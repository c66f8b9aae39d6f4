"""Exception hierarchy shared by all branekit modules."""


class BranekitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BranekitError):
    """Malformed input data.  Carries a JSON-pointer-style location."""

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
        self.reason = message


class ShapeMismatch(BranekitError):
    """Array shapes inconsistent with the declared dimension."""


class Degenerate(BranekitError):
    """A bilinear form required to be invertible is numerically singular."""


class NotSemisimple(BranekitError):
    """No separated eigenstructure found within the retry budget."""


class DegenerateWeight(BranekitError):
    """An idempotent weight is (numerically) zero; square roots are undefined.
    `weight` is the lightest |theta(e_i)|, when the idempotents were found,
    and `point` the (chart id, sample index) of a family member."""

    def __init__(self, message, weight=None, point=None):
        self.weight, self.point = weight, point
        super().__init__(message)


class LabelMismatch(BranekitError):
    """Composition or pairing attempted between incompatible brane labels."""


class NotEndomorphism(BranekitError):
    """Operation requires source label == target label."""


class DegeneratePairing(BranekitError):
    """The open-string pairing Gram matrix is singular within tolerance."""


class NotIdempotent(BranekitError):
    """Splitting requested for a morphism with sigma^2 != sigma."""


class WDVVViolation(BranekitError):
    """Associativity of the potential-induced product fails at sample points."""

    def __init__(self, points):
        self.points = list(points)
        super().__init__(f"associativity fails at {len(self.points)} sample point(s): "
                         f"{self.points[:5]}{'...' if len(self.points) > 5 else ''}")


class NonUnit(BranekitError):
    """The declared unit direction is not a two-sided unit."""


class NotSemisimpleAtPoint(BranekitError):
    """A family member fails the semisimplicity test."""

    def __init__(self, point, message=""):
        self.point = point
        super().__init__(f"not semisimple at sample point {point}" + (f": {message}" if message else ""))


class AmbiguousTracking(BranekitError):
    """Nearest-neighbour idempotent tracking has no clear winner."""


class AmbiguousMatching(BranekitError):
    """Cross-chart idempotent matching is not a clean bijection."""


class NotAutomorphism(BranekitError):
    """An edge map of an algebra bundle is not an algebra automorphism."""


class InconsistentDims(BranekitError):
    """Brane dimensions disagree along a spectral-cover edge."""


class NoWitnessFound(BranekitError):
    """Spanning-tree isomorphism search failed (inconclusive, not a proof)."""
