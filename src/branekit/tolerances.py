"""Tolerance policy: the one place that knows a pass/fail bound.

Every numerical decision (a check record, or a test that raises) names a
rule below: a knob times a fixed factor times a data scale, in the order of
the expression the rule replaced.  A ceiling passes when the value is at
most its bound (residuals), a floor when it exceeds it (ratios, weights).
"""

from dataclasses import dataclass

import numpy as np

CEILING, FLOOR = "ceiling", "floor"

# Two fixed matching rules, which no knob scales.
#
# Eigenvalue separation needed before eigenvectors are used as idempotents
# (`frobenius.idempotent_stack`), relative to the spectral radius.  Jordan
# blocks perturb eigenvalues by ~sqrt(machine eps), so this must sit well
# above 1e-8.
SEP_FACTOR = 1e-5
# A sheet match (`family` tracking and transitions) is ambiguous unless the
# second-nearest candidate is at least this factor farther than the nearest.
MATCH_MARGIN = 2.0

# (knob, side, bound from the knob e and the data scale s), then the checks it governs
_GROUPS = [
    (("eps_structural", CEILING, lambda e, s: e * s),
     ("commutativity", "associativity", "unit", "square_roots", "sewing_symmetry", "adjoint",
      "idempotent_law", "unit_direction", "wdvv_associativity",
      "sheet_measure_sums_to_unit_trace")),
    (("eps_structural", CEILING, lambda e, s: 10 * e * s), ("idempotent_residual",)),
    (("eps_structural", CEILING, lambda e, s: e / 10 * s), ("cardy", "psi_output_ordinary")),
    (("eps_structural", CEILING, lambda e, s: e / 1000 * s),
     ("centrality", "flat_metric_symmetric")),
    (("eps_structural", CEILING, lambda e, s: e * s * 10), ("transition_inverses",)),
    (("eps_structural", CEILING, lambda e, s: e * s * 100),
     ("triangle_relation", "twist_2cocycle", "witness_conjugation", "twists_agree",
      "scalar_ratio", "psi_ordinary")),
    (("eps_structural", CEILING, lambda e, s: e * s * 1000),
     ("edge_automorphism", "conjugation_recovered", "twist_scalar_defect")),
    (("eps_rank", FLOOR, lambda e, s: e * s),
     ("metric_nondegenerate", "idempotent_weight", "pairing_nondegenerate", "image_rank",
      "transition_invertible", "twist_nonzero")),
    (("eps_rank", FLOOR, lambda e, s: e / 100 * s), ("conjugator_invertible",)),
    (("eps_rank", FLOOR, lambda e, s: e / 10000 * s), ("flat_metric_nondegenerate",)),
]
_RULES = {name: rule for rule, names in _GROUPS for name in names}


@dataclass(frozen=True)
class Tolerance:
    """Two knobs; every bound is linear in one: eps_structural (`--tol-structural`)
    for residuals of algebraic identities, eps_rank (`--tol-rank`) for rank and
    invertibility decisions (ratios to the largest singular value)."""

    eps_structural: float = 1e-9
    eps_rank: float = 1e-8

    def __post_init__(self):
        if not all(0 < eps < np.inf for eps in (self.eps_structural, self.eps_rank)):
            raise ValueError("tolerances must be finite and strictly positive")

    def bound(self, name: str, scale=1.0):
        """The bound of rule `name` at this data scale."""
        knob, _, rule = _RULES[name]
        return rule(getattr(self, knob), scale)

    def passes(self, name: str, value, scale=1.0):
        """Whether `value` (a number or an array) meets rule `name`."""
        return meets(name, value, self.bound(name, scale))


DEFAULT_TOL = Tolerance()


def meets(name: str, value, bound):
    """value <= bound for a ceiling rule, value > bound for a floor rule."""
    return value <= bound if _RULES[name][1] == CEILING else value > bound


def worst(values) -> float:
    """The largest of `values` as a float: 0.0 when there is none, and NaN when
    any is NaN, so that a non-finite residual fails every ceiling rule."""
    return float(np.max(values, initial=0.0))


def gamma(k, dtype=float):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of `dtype`: the
    relative error bound of k roundings (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3)."""
    u = np.finfo(dtype).eps / 2
    return k * u / (1 - k * u)


def inverse_defect(a, q):
    """max(||H||_inf, ||H||_1) for H = I - A Q of each matrix A of a stack (..., n, n)
    and its computed inverse Q, as long doubles: H is formed in np.clongdouble and
    |H| is raised by the rounding bound sqrt(2) gamma_2n |A| |Q| of that type, so
    the result bounds both norms up to the rounding of its own sums, which the
    caller's round-up covers.  Where long double is wider than float, that bound
    is far below H itself (in double it would dominate)."""
    n = a.shape[-1]
    wide = np.eye(n) - a.astype(np.clongdouble) @ q.astype(np.clongdouble)
    defect = np.abs(wide) + np.sqrt(2) * gamma(2 * n, np.longdouble) * (np.abs(a) @ np.abs(q))
    return np.maximum(np.max(defect.sum(axis=-1), axis=-1), np.max(defect.sum(axis=-2), axis=-1))


def singular_values(m) -> np.ndarray:
    """Singular values of m, largest first: the one SVD of every rank decision."""
    return np.linalg.svd(m, compute_uv=False)


def singular_ratio(m):
    """Smallest over largest singular value of m; 0 for the zero matrix.  One
    float for a matrix, an array for a stack of them."""
    return sv_ratio(singular_values(m))


def sv_ratio(sv):
    """Smallest over largest of singular values `sv` (largest first, along the
    last axis); 0 when all vanish.  One float for one set, an array for a stack."""
    sv = np.asarray(sv)
    top = sv[..., 0]
    ratio = np.where(top > 0, sv[..., -1] / np.where(top > 0, top, 1.0), 0.0)
    return float(ratio) if ratio.ndim == 0 else ratio
