"""Finite-dimensional commutative Frobenius algebras over the complex numbers.

An algebra is given concretely by structure constants in a chosen basis
b_1..b_n (so b_i * b_j = sum_k c[i,j,k] b_k), the coordinates of the unit,
and the trace functional theta evaluated on the basis.  The induced metric
g(x, y) = theta(x * y) must be nondegenerate.

Semisimple algebras (no nilpotents) admit a basis of orthogonal idempotents
e_i with e_i^2 = e_i, e_i e_j = 0, unique up to permutation.  They are the
common eigenvectors of the multiplication operators, so we take the
eigenvectors of one generic operator L_a and scale them to sum to the unit.
"""

import numpy as np

from dataclasses import dataclass

from .errors import Degenerate, DegenerateWeight, NotSemisimple, ShapeMismatch
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance, singular_ratio, singular_values

# Eigenvalue separation needed before eigenvectors are used as idempotents,
# relative to the spectral radius.  Jordan blocks perturb eigenvalues by
# ~sqrt(machine eps), so this must sit well above 1e-8.
_SEP_FACTOR = 1e-5

_RETRY_BUDGET = 8


def _round6(x: float) -> float:
    # +0.0 normalizes -0.0 so sort keys are reproducible
    return round(float(x), 6) + 0.0


@dataclass(frozen=True)
class IdempotentBasis:
    """Orthogonal idempotents e_1..e_n (rows of `idempotents`, coordinates in
    the algebra basis) together with their weights theta(e_i)."""

    idempotents: np.ndarray  # (n, n), row i = coordinates of e_i
    weights: np.ndarray      # (n,), theta(e_i)

    @property
    def n(self) -> int:
        return self.idempotents.shape[0]


class FrobeniusAlgebra:
    """Structure constants + unit + trace in a fixed basis."""

    def __init__(self, structure_constants, unit, trace):
        c = np.asarray(structure_constants, dtype=complex)
        u = np.asarray(unit, dtype=complex)
        t = np.asarray(trace, dtype=complex)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != c.shape[2]:
            raise ShapeMismatch(f"structure constants must be (n,n,n), got {c.shape}")
        n = c.shape[0]
        if n < 1:
            raise ShapeMismatch("dimension must be >= 1")
        if u.shape != (n,):
            raise ShapeMismatch(f"unit must have shape ({n},), got {u.shape}")
        if t.shape != (n,):
            raise ShapeMismatch(f"trace must have shape ({n},), got {t.shape}")
        for name, arr in (("structure constants", c), ("unit", u), ("trace", t)):
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch(f"{name} contain non-finite entries")
        self.dim = n
        self.c = c
        self.unit = u
        self.trace = t

    # -- basic algebra operations ------------------------------------------

    def multiply(self, x, y) -> np.ndarray:
        """Coordinates of x * y."""
        return np.einsum("i,j,ijk->k", np.asarray(x), np.asarray(y), self.c)

    def mult_operator(self, a) -> np.ndarray:
        """Matrix of L_a: x -> a * x acting on coordinate vectors."""
        return np.einsum("i,ijk->kj", np.asarray(a), self.c)

    def theta(self, x) -> complex:
        """Trace functional applied to a coordinate vector."""
        return complex(np.dot(self.trace, np.asarray(x)))

    # -- spec operations ----------------------------------------------------

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
        """Check commutativity, associativity, the unit law, and metric
        nondegeneracy; each record carries its max residual."""
        report = CheckReport()
        c = self.c
        scale = 1.0 + max(1.0, float(np.max(np.abs(c))))

        comm_res = np.abs(c - c.transpose(1, 0, 2))
        comm = float(np.max(comm_res))
        report.check("commutativity", comm, tol, scale,
                     location=None if tol.passes("commutativity", comm, scale) else
                     "c" + "".join(f"[{i}]" for i in
                                   np.unravel_index(np.argmax(comm_res), comm_res.shape)))

        # sum_m c[i,j,m] c[m,k,l]  vs  sum_m c[j,k,m] c[i,m,l], one i at a time
        # as (n, n*n) matrices over (j, (k, l)); no (n,n,n,n) tensor is built
        n = self.dim
        per_i = []  # max |left|, max |right|, max residual and its argmax, per i
        for ci in c:
            left = ci @ c.reshape(n, n * n)
            right = (c.reshape(n * n, n) @ ci).reshape(n, n * n)
            res = np.abs(left - right)
            per_i.append((np.max(np.abs(left)), np.max(np.abs(right)), np.max(res), np.argmax(res)))
        left_max, right_max, res_max, res_arg = zip(*per_i)
        asc_scale = max(1.0, float(np.max(left_max)), float(np.max(right_max)))
        worst = int(np.argmax(res_max))  # first maximum in C order over (i, j, k, l)
        assoc = float(res_max[worst])
        ok = tol.passes("associativity", assoc, 1.0 + asc_scale)
        at = (worst,) + tuple(int(x) for x in np.unravel_index(res_arg[worst], (n, n, n)))
        report.check("associativity", assoc, tol, 1.0 + asc_scale,
                     location=None if ok else f"(b_i b_j) b_k at {at}")

        unit_res = float(np.max(np.abs(self.mult_operator(self.unit) - np.eye(self.dim))))
        report.check("unit", unit_res, tol, scale)

        g = self.metric()
        sv = singular_values(g)
        report.check("metric_nondegenerate", singular_ratio(g), tol,
                     detail=f"singular values {sv[0]:.3e}..{sv[-1]:.3e}")
        return report

    def metric(self) -> np.ndarray:
        """Gram matrix g_ij = theta(b_i b_j)."""
        return np.einsum("ijk,k->ij", self.c, self.trace)

    def three_point(self) -> np.ndarray:
        """Fully symmetric tensor c_ijk = theta(b_i b_j b_k)."""
        return np.einsum("ijm,mkl,l->ijk", self.c, self.c, self.trace)

    def frobenius_iso(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Matrix of x -> g(x, .) from the algebra to its dual (coordinates of
        Phi(x) are g @ x).  Raises Degenerate when g is singular."""
        g = self.metric()
        if not tol.passes("metric_nondegenerate", singular_ratio(g)):
            raise Degenerate("metric is singular; no Frobenius isomorphism")
        return g

    def is_semisimple(self, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
        """True iff an orthogonal idempotent basis exists.  Returns
        (True, IdempotentBasis) or (False, diagnostics-dict)."""
        try:
            basis = self.idempotent_basis(tol, seed)
        except NotSemisimple as exc:
            return False, exc.args[0] if exc.args else {}
        return True, basis

    def idempotent_basis(self, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> IdempotentBasis:
        """Orthogonal idempotents as eigenvectors of L_a for a seeded
        pseudo-random element a, in canonical order.

        With a = sum a_i e_i, L_a e_i = a_i e_i, so for distinct a_i the
        eigenvectors v_i are multiples of the e_i; the unit 1 = sum e_i fixes
        the scales s_i in e_i = s_i v_i.  Deterministic for a fixed seed;
        canonical ordering makes the output independent of the seed as well
        (the basis itself is unique up to permutation)."""
        n = self.dim
        rng = np.random.default_rng(seed)
        best = {"gap": 0.0, "residual": np.inf}
        for _ in range(_RETRY_BUDGET):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eigvals, v = np.linalg.eig(self.mult_operator(a))
            radius = max(1.0, float(np.max(np.abs(eigvals))))
            gap = _min_gap(eigvals)
            best["gap"] = max(best["gap"], gap)
            if gap <= _SEP_FACTOR * radius:
                continue
            try:
                idem = (v * np.linalg.solve(v, self.unit)).T
            except np.linalg.LinAlgError:  # exactly singular eigenvector matrix
                continue
            residual = self._idempotent_residual(idem)
            best["residual"] = min(best["residual"], residual)
            if tol.passes("idempotent_residual", residual, radius):
                weights = idem @ self.trace
                if not tol.passes("idempotent_weight", np.min(np.abs(weights))):
                    raise DegenerateWeight(
                        f"idempotent weight {np.min(np.abs(weights)):.3e} is numerically zero")
                order = _canonical_order(idem, weights)
                return IdempotentBasis(idempotents=idem[order], weights=weights[order])
        raise NotSemisimple({
            "attempts": _RETRY_BUDGET,
            "best_eigenvalue_gap": best["gap"],
            "best_idempotent_residual": best["residual"],
        })

    # -- internals ----------------------------------------------------------

    def _idempotent_residual(self, idem: np.ndarray) -> float:
        """max |e_a e_b - delta_ab e_a| over all pairs, and |sum e_i - 1|."""
        prods = np.einsum("bj,ajk->abk", idem, np.einsum("ai,ijk->ajk", idem, self.c))
        n = idem.shape[0]
        prods[np.arange(n), np.arange(n)] -= idem
        return max(float(np.max(np.abs(prods))),
                   float(np.max(np.abs(idem.sum(axis=0) - self.unit))))

    def __repr__(self):
        return f"FrobeniusAlgebra(dim={self.dim})"


def _min_gap(eigvals) -> float:
    n = len(eigvals)
    if n == 1:
        return np.inf
    diffs = np.abs(eigvals[:, None] - eigvals[None, :]) + np.diag([np.inf] * n)
    return float(np.min(diffs))


def _canonical_order(idem, weights):
    """Sort by (-|weight|, rounded coordinates): reproducible total order on a
    basis that is intrinsically only defined up to permutation."""
    def key(i):
        coords = tuple((_round6(z.real), _round6(z.imag)) for z in idem[i])
        return (-_round6(abs(weights[i])), coords)
    return sorted(range(idem.shape[0]), key=key)


def direct_sum(a: FrobeniusAlgebra, b: FrobeniusAlgebra) -> FrobeniusAlgebra:
    """Block-diagonal sum: structure constants in blocks, traces concatenated."""
    na, nb = a.dim, b.dim
    c = np.zeros((na + nb, na + nb, na + nb), dtype=complex)
    c[:na, :na, :na] = a.c
    c[na:, na:, na:] = b.c
    return FrobeniusAlgebra(c, np.concatenate([a.unit, b.unit]),
                            np.concatenate([a.trace, b.trace]))


def diagonal_algebra(weights) -> FrobeniusAlgebra:
    """C^n with componentwise product and trace theta(e_i) = weights[i]."""
    w = np.asarray(weights, dtype=complex)
    n = w.shape[0]
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i] = 1.0
    return FrobeniusAlgebra(c, np.ones(n), w)


def conjugate(a: FrobeniusAlgebra, p) -> FrobeniusAlgebra:
    """Transport of structure along the linear isomorphism x -> P x.

    The result has product x *' y = P((P^-1 x)(P^-1 y)), unit P e and trace
    theta o P^-1; its idempotents are P applied to those of `a`.
    """
    p = np.asarray(p, dtype=complex)
    q = np.linalg.inv(p)
    # c'[i,j,k] = sum q[a,i] q[b,j] c[a,b,m] p[k,m], one index at a time
    c = np.einsum("bj,ibm->ijm", q, np.einsum("ai,abm->ibm", q, a.c)) @ p.T
    return FrobeniusAlgebra(c, p @ a.unit, a.trace @ q)


def nilpotent_example() -> FrobeniusAlgebra:
    """C[x]/(x^2) with theta(1) = 0, theta(x) = 1: Frobenius but not
    semisimple (Gram is the swap matrix, x is nilpotent)."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    return FrobeniusAlgebra(c, [1.0, 0.0], [0.0, 1.0])


def quadratic_extension(t=1.0) -> FrobeniusAlgebra:
    """C[x]/(x^2 - t) with theta = (1, 0) in the basis {1, x}."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = complex(t)
    return FrobeniusAlgebra(c, [1.0, 0.0], [1.0, 0.0])
