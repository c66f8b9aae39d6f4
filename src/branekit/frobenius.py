"""Finite-dimensional commutative Frobenius algebras over the complex numbers.

An algebra is given concretely by structure constants in a chosen basis
b_1..b_n (so b_i * b_j = sum_k c[i,j,k] b_k), the coordinates of the unit,
and the trace functional theta evaluated on the basis.  The induced metric
g(x, y) = theta(x * y) must be nondegenerate.

Semisimple algebras (no nilpotents) admit a basis of orthogonal idempotents
e_i with e_i^2 = e_i, e_i e_j = 0, unique up to permutation.  They are the
common eigenvectors of the multiplication operators, so we take the
eigenvectors of one generic operator L_a and scale them to sum to the unit.

In the frame of those idempotents the structure constants are those of C^n,
up to rounding.  `change_basis` transports them there in O(n^4), for one
algebra or a stack: the idempotent search reads its residual there, and
`associativity_certificate` certifies associativity there.  The direct O(n^5)
check (`law_residuals`) is left to the algebras the certificate cannot decide.
"""

import numpy as np

from dataclasses import dataclass

from .errors import DegenerateWeight, NotSemisimple, ShapeMismatch
from .report import CheckReport
from .tolerances import (
    DEFAULT_TOL,
    SEP_FACTOR,
    Tolerance,
    gamma,
    inverse_defect,
    singular_ratio,
    singular_values,
)

_RETRY_BUDGET = 8

# the method that decided a `validate` associativity record
_CERTIFIED = "certified in the idempotent frame"
_DIRECT = "direct check over all (i, j, k)"


@dataclass(frozen=True)
class IdempotentBasis:
    """Orthogonal idempotents e_1..e_n (rows of `idempotents`, coordinates in
    the algebra basis) together with their weights theta(e_i)."""

    idempotents: np.ndarray  # (n, n), row i = coordinates of e_i
    weights: np.ndarray      # (n,), theta(e_i)


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
        return mult_operators(np.asarray(a), self.c)

    # -- spec operations ----------------------------------------------------

    def validate(self, tol: Tolerance = DEFAULT_TOL, basis=None) -> CheckReport:
        """Check commutativity, associativity, the unit law, and metric
        nondegeneracy; each record carries its max residual.

        Associativity is decided by one of two methods, which the record's
        detail names.  Given `basis` (an IdempotentBasis of this algebra),
        `associativity_certificate` bounds the defect from the structure
        constants in that frame in O(n^4); the bound passes only when it is
        at most the associativity bound at scale 2, the least the direct
        check ever uses, so it never passes an algebra the direct check
        fails.  Otherwise (no basis, no certificate, or one over that bound)
        the direct O(n^5) check of `law_residuals` decides and locates the
        worst entry."""
        report = CheckReport()
        c = self.c
        scale = 1.0 + max(1.0, float(np.max(np.abs(c))))

        comm_res = np.abs(c - c.transpose(1, 0, 2))
        comm = float(np.max(comm_res))
        report.check("commutativity", comm, tol, scale,
                     location=None if tol.passes("commutativity", comm, scale) else
                     "c" + "".join(f"[{i}]" for i in
                                   np.unravel_index(np.argmax(comm_res), comm_res.shape)))

        cert = None if basis is None else associativity_certificate(c, basis.idempotents)
        if cert is not None and tol.passes("associativity", cert, 2.0):
            report.check("associativity", cert, tol, 2.0, detail=_CERTIFIED)
            unit_res = unit_residuals(c[None], self.unit[None])[0]
        else:
            unit_res, left, right, assoc, at = (x[0] for x in
                                                law_residuals(c[None], self.unit[None]))
            asc_scale = max(1.0, float(left), float(right))
            ok = tol.passes("associativity", assoc, 1.0 + asc_scale)
            report.check("associativity", float(assoc), tol, 1.0 + asc_scale,
                         location=None if ok else
                         f"(b_i b_j) b_k at {tuple(int(x) for x in at)}", detail=_DIRECT)
        report.check("unit", float(unit_res), tol, scale)

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

    def idempotent_basis(self, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> IdempotentBasis:
        """Orthogonal idempotents in canonical order, which is independent of
        the seed: `idempotent_stack` on this algebra alone, raising what it reports."""
        idem, weights, failed = idempotent_stack(self.c[None], self.unit[None],
                                                 self.trace[None], tol, seed)
        if failed:
            raise failed[0]
        order = canonical_order(idem[0], weights[0])
        return IdempotentBasis(idempotents=idem[0][order], weights=weights[0][order])

    def __repr__(self):
        return f"FrobeniusAlgebra(dim={self.dim})"


def mult_operators(a, c) -> np.ndarray:
    """L_a of one algebra or of a stack: c (..., n, n, n), a (n,) or (..., n)."""
    return np.einsum("...i,...ijk->...kj", a, c)


def unit_residuals(c, unit):
    """max |L_1 - I| of each of N algebras, c (N, n, n, n) and unit (N, n)."""
    return np.max(np.abs(mult_operators(unit, c) - np.eye(unit.shape[1])), axis=(1, 2))


def law_residuals(c, unit):
    """Unit and associativity defects of N algebras, c (N, n, n, n) and unit (N, n): per
    sample max |L_1 - I|, max |(b_i b_j) b_k|, max |b_i (b_j b_k)|, the max associativity
    residual and its (i, j, k, l), first in C order.  One i at a time: no (n,n,n,n) tensor.
    The direct check: the WDVV check's, and `validate`'s when no certificate passes."""
    num, n = unit.shape
    unit_res = unit_residuals(c, unit)
    per_i = []  # max |left|, max |right|, max residual and its argmax, per i
    for i in range(n):
        left = (c[:, i] @ c.reshape(num, n, n * n)).reshape(num, -1)
        right = (c.reshape(num, n * n, n) @ c[:, i]).reshape(num, -1)
        res = np.abs(left - right)
        per_i.append((np.max(np.abs(left), axis=1), np.max(np.abs(right), axis=1),
                      np.max(res, axis=1), np.argmax(res, axis=1)))
    left_max, right_max, res_max, res_arg = (np.array(x) for x in zip(*per_i))  # (n, N)
    worst, samples = np.argmax(res_max, axis=0), np.arange(num)
    at = np.column_stack((worst,) + np.unravel_index(res_arg[worst, samples], (n, n, n)))
    return (unit_res, np.max(left_max, axis=0), np.max(right_max, axis=0),
            res_max[worst, samples], at)


def change_basis(c, left):
    """c'[..., a, b, m] = sum left[a,i] left[b,j] c[i,j,m] of c (..., n, n, n) and left
    (..., n, n) by batched matrix products: the one transport into a frame.  A change
    of the output index m is one more matrix product, which the caller applies."""
    n = c.shape[-1]
    x = (left @ c.reshape(c.shape[:-3] + (n, n * n))).reshape(c.shape)  # left[a,i] c[i,j,m]
    return left[..., None, :, :] @ x


def associativity_certificate(c, frame):
    """An upper bound on the exact max |(b_i b_j) b_k - b_i (b_j b_k)| of c (n, n, n),
    read off the structure constants in the frame whose rows e_a are `frame` (n, n),
    orthogonal idempotents up to rounding; None when the frame is singular or
    non-finite, or its computed inverse Q leaves ||I - E Q|| >= 1/2.

    With T = Q^-1 exactly, c'' = T (x) T . c . Q are the structure constants in the
    basis of T's rows, and the defect A is a tensor, so
    max|A(c)| <= ||Q||_inf^3 ||T||_1 max|A(c'')|.  For c'' = delta + R'' (delta the
    product of C^n, A(delta) = 0) and rho >= max|R''|, max|A(c'')| <= 2 rho + 2n rho^2:
    the part linear in R'' at (a, b, c, d) is d_ab R_acd + d_cd R_abc - d_bc R_abd -
    d_ad R_bca, of whose four Kronecker deltas at most two hold unless all do, and two
    terms survive only when a = b, c = d or b = c, a = d (else they cancel); the
    quadratic part is two sums of n products.  The 2 is attained.
    rho adds up
    - r = max |c' - delta| of c' = fl(E (x) E . c . Q), from `change_basis`, then Q;
    - the rounding of c', at most ((1 + g)^3 - 1) max(|E| (x) |E| . |c| . |Q|) with
      g = sqrt(2) gamma_{2n}: each part of a complex inner product of length n is a
      sum of 2n real products, whatever order or fused operations BLAS uses
      (Higham, ch. 3);
    - the transport from E to T: E Q = I - H makes E (x) E . c . Q = (I - H) (x) (I - H) . c''
      exactly, so it is within (2h + h^2) / (1 - h)^2 (1 + r + rounding) of c'', with
      h >= max(||H||_inf, ||H||_1) from `tolerances.inverse_defect` (H formed in long
      double); this h also gives ||T||_1 <= ||E||_1 / (1 - h).
    Every computed ingredient, and the result, is rounded up by 1 + gamma_{4n+16}."""
    n = c.shape[0]
    e = np.asarray(frame, dtype=complex)
    if not np.all(np.isfinite(e)):
        return None
    try:
        q = np.linalg.inv(e)
    except np.linalg.LinAlgError:
        return None
    up, g = 1 + gamma(4 * n + 16), np.sqrt(2) * gamma(2 * n)
    ae, aq = np.abs(e), np.abs(q)
    h = up * inverse_defect(e, q)
    if not h < 0.5:  # also when Q overflowed
        return None
    r_frame = (change_basis(c, e).reshape(n * n, n) @ q).reshape(n, n, n)
    r_frame[np.arange(n), np.arange(n), np.arange(n)] -= 1.0  # c' - delta
    r = up * (np.max(np.abs(r_frame))
              + ((1 + g) ** 3 - 1) * np.max(change_basis(np.abs(c), ae).reshape(n * n, n) @ aq))
    rho = r + (2 * h + h * h) / (1 - h) ** 2 * (1 + r)
    kappa = (up * np.max(aq.sum(axis=1))) ** 3 * up * np.max(ae.sum(axis=0)) / (1 - h)
    cert = up * kappa * (2 * rho + 2 * n * rho * rho)
    return float(cert) if np.isfinite(cert) else None


def idempotent_stack(c, unit, trace, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
    """Orthogonal idempotents of N algebras, c (N, n, n, n), unit and trace (N, n).

    With a = sum a_i e_i, L_a e_i = a_i e_i, so for distinct a_i the eigenvectors
    v_i of L_a are multiples of the e_i, and 1 = sum e_i fixes e_i = s_i v_i.
    Attempt t draws one a_t from the seeded rng and runs one eig, one solve and
    one residual over the samples still pending.  Returns idempotents (N, n, n)
    in eigenvector order, weights theta(e_i) (N, n), and {sample index: the
    exception it raises alone} (NotSemisimple, DegenerateWeight or LinAlgError)."""
    num, n = unit.shape
    rng = np.random.default_rng(seed)
    idem, weights = np.zeros((num, n, n), dtype=complex), np.zeros((num, n), dtype=complex)
    best_gap, best_res = np.zeros(num), np.full(num, np.inf)
    failed, done, off_diagonal = {}, np.zeros(num, dtype=bool), np.diag([np.inf] * n)
    for _ in range(_RETRY_BUDGET):
        pending = np.flatnonzero(~done)
        if not pending.size:
            break
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops = mult_operators(a, c[pending])
        finite = np.all(np.isfinite(ops), axis=(1, 2))
        for p in pending[~finite]:  # what eig raises for such an operator
            failed[p], done[p] = np.linalg.LinAlgError("Array must not contain infs or NaNs"), True
        pending, ops = pending[finite], ops[finite]
        eigvals, v = np.linalg.eig(ops)
        radius = np.maximum(1.0, np.max(np.abs(eigvals), axis=1))
        gap = np.min(np.abs(eigvals[:, :, None] - eigvals[:, None, :]) + off_diagonal, axis=(1, 2))
        best_gap[pending] = np.maximum(best_gap[pending], gap)  # gap is inf for n = 1
        ok = gap > SEP_FACTOR * radius
        ok[ok] = np.linalg.slogdet(v[ok])[1] > -np.inf  # no exactly zero pivot for solve
        rows, v, radius = pending[ok], v[ok], radius[ok]
        if not rows.size:
            continue
        e = (v * np.linalg.solve(v, unit[rows, :, None])[:, None, :, 0]).transpose(0, 2, 1)
        # e_a e_b - delta_ab e_a over all pairs, and sum e_i - 1
        prods = change_basis(c[rows], e)
        prods[:, np.arange(n), np.arange(n)] -= e
        residual = np.maximum(np.max(np.abs(prods), axis=(1, 2, 3)),
                              np.max(np.abs(e.sum(axis=1) - unit[rows]), axis=1))
        best_res[rows] = np.minimum(best_res[rows], residual)
        good = tol.passes("idempotent_residual", residual, radius)
        rows, e = rows[good], e[good]
        idem[rows], weights[rows], done[rows] = e, (e @ trace[rows, :, None])[..., 0], True
        lightest = np.min(np.abs(weights[rows]), axis=1)
        light = ~tol.passes("idempotent_weight", lightest)
        for p, w in zip(rows[light], lightest[light]):
            failed[p] = DegenerateWeight(f"idempotent weight {w:.3e} is numerically zero", w)
    for p in np.flatnonzero(~done):
        failed[p] = NotSemisimple({"attempts": _RETRY_BUDGET,
                                   "best_eigenvalue_gap": float(best_gap[p]),
                                   "best_idempotent_residual": float(best_res[p])})
    return idem, weights, failed


def canonical_order(idem, weights):
    """Sort by (-|weight|, rounded coordinates): reproducible total order on a
    basis that is intrinsically only defined up to permutation.  The keys are
    built from Python numbers; abs of a Python complex is hypot, as numpy's
    scalar abs is."""
    def r6(x):
        return round(x, 6) + 0.0  # +0.0 normalizes -0.0

    keys = [(-r6(abs(w)), tuple((r6(z.real), r6(z.imag)) for z in row))
            for w, row in zip(np.asarray(weights).tolist(), np.asarray(idem).tolist())]
    return sorted(range(len(keys)), key=keys.__getitem__)


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
    n, q = a.dim, np.linalg.inv(p)
    # c'[i,j,k] = sum q[a,i] q[b,j] c[a,b,m] p[k,m]
    c = (change_basis(a.c, q.T).reshape(n * n, n) @ p.T).reshape(n, n, n)
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
