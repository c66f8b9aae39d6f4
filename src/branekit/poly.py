"""Multivariate polynomials with complex coefficients.

Differentiation is exact (integer coefficient manipulation); only evaluation
is floating point.  Terms are kept in sorted exponent order so every
operation is reproducible.
"""

import numpy as np


class Polynomial:
    """sum_m coeff_m * t^m over exponent tuples m of fixed length nvars."""

    def __init__(self, nvars: int, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {self.nvars} variables")
            z = complex(coeff)
            if z != 0:
                clean[expo] = clean.get(expo, 0) + z
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def from_term_list(cls, nvars, term_list):
        """term_list: iterable of (coeff, exponent-tuple)."""
        terms = {}
        for coeff, expo in term_list:
            expo = tuple(int(e) for e in expo)
            terms[expo] = terms.get(expo, 0) + complex(coeff)
        return cls(nvars, terms)

    def diff(self, var: int) -> "Polynomial":
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[var]
            if e == 0:
                continue
            new = list(expo)
            new[var] = e - 1
            out[tuple(new)] = coeff * e
        return Polynomial(self.nvars, out)

    def __call__(self, point):
        """Value at a point (nvars,), or at each row of an (N, nvars) array;
        a point is evaluated as a one-row array, so the two agree bit for bit."""
        rows = np.atleast_2d(np.asarray(point, dtype=complex))
        total = np.zeros(len(rows), dtype=complex)
        for expo, coeff in self.terms.items():
            val = coeff
            for v, e in enumerate(expo):
                if e:
                    val = val * rows[:, v] ** e
            total = total + val
        return complex(total[0]) if np.ndim(point) == 1 else total

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for expo, coeff in self.terms.items():
            mono = "*".join(f"t{v}^{e}" for v, e in enumerate(expo) if e) or "1"
            bits.append(f"({coeff:g})*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"
