"""Twisted vector bundles as Cech cocycle data on a finite nerve.

A bundle of rank r assigns an invertible r x r transition matrix g_ij to
each ordered edge and a nonzero scalar twist lambda_ijk to each triangle,
subject to

    g_ii = 1,   g_ji = g_ij^{-1},   g_ij g_jk = lambda_ijk g_ik,

with lambda a 2-cocycle on quadruples.  Tensor multiplies twists, the dual
inverts them, and Hom(E, F) with equal twists is an ordinary bundle (the
twists cancel algebraically).

A bundle holds its transitions as one (E, r, r) stack (a reversed edge,
through `family.EdgeIndex`, reads the batched inverse) and its twists as one
(T,) array in triangle order (`twists_at`); every operation works on whole
stacks and arrays, in blocks of at most BLOCK_BYTES of large temporaries.

Conjugation cocycles of matrix algebras are handled in closed form: with
x[p, q] = phi(E_pq) (phi^T reshaped to (k, k, k, k)), an edge map phi is an
automorphism of M_k iff x[p, q] x[r, s] = delta_qr x[p, s], and then it is
conjugation by g[:, p] = x[p, 0] w (Skolem-Noether, w the column of x[0, 0]
of largest 2-norm), i.e. phi = kron(g, g^{-T}) on row-major vec.  Normalizing
det g = 1 and the phase of its leading entry turns a bundle of matrix algebras
into a twisted bundle E with END(E) isomorphic to the input.

The automorphism law is certified from the recovered g rather than checked
over all k^4 pairs of matrix units (O(k^4) per edge, not O(k^7)).  With
A_pq = g E_pq g^{-1}, which has rank one and multiplies exactly as the matrix
units do, and x[p, q] = A_pq + Delta_pq with max |Delta| <= R (the
conjugation residual plus the rounding of kron(g, g^{-T}) and the defect of
the computed inverse), the law residual is A_pq Delta_rs + Delta_pq A_rs +
Delta_pq Delta_rs - delta_qr Delta_ps, at most R (2kM + kR + 1) entrywise for
M = max|g| max|g^{-1}|, and the unit residual is at most kR.  Rounded up as
`frobenius.associativity_certificate` is, and raised by the rounding of the
direct check, this bounds the residual the direct check would compute; an
edge whose bound misses the rule (an ill-conditioned g, say) falls back to
that check, and the record's detail names which one decided.
"""

import numpy as np

from dataclasses import dataclass, field
from itertools import repeat

from .errors import InputError, NoWitnessFound, NotAutomorphism, ShapeMismatch
from .family import EdgeIndex, Nerve, blocks
from .report import CheckReport
from .tolerances import (
    DEFAULT_TOL,
    Tolerance,
    gamma,
    inverse_defect,
    singular_ratio,
    singular_values,
    worst,
)


class TwistedBundle:
    """Cocycle data (nerve, rank, transitions, twists).

    `g` is an (E, r, r) stack, row n the transition of the chart pair
    `keys[n]`, kept as given (not copied when complex).  `twists` is a (T,)
    array of nonzero scalars, row t the twist of `nerve.triangles[t]`, and a
    NaN row names a triangle with no value; when omitted they are computed
    from the transitions, and `twist_residuals` keeps how far each
    triangle's product is from its scalar, in the same order.
    """

    def __init__(self, nerve: Nerve, rank: int, keys, g, twists=None):
        self.nerve = nerve
        self.rank = int(rank)
        if self.rank < 1:
            raise ShapeMismatch("rank must be >= 1")
        self.keys = [tuple(key) for key in keys]
        self.g = np.asarray(g, dtype=complex)
        if self.g.shape != (len(self.keys), self.rank, self.rank):
            raise ShapeMismatch(f"transitions have shape {self.g.shape}, expected "
                                f"({len(self.keys)},{self.rank},{self.rank})")
        finite = np.empty(len(self.keys), dtype=bool)
        for block in blocks(len(self.keys), self.rank ** 2):
            finite[block] = np.isfinite(self.g[block]).all(axis=(1, 2))
        self.index = EdgeIndex(nerve, self.keys, "transition", (~finite).tolist(),
                               lambda key: InputError(f"transition {key} has non-finite entries"))
        self.twist_residuals = None
        if twists is None:
            self.twists, self.twist_residuals = self._scalar_defects(nerve.triangles)
            return
        self.twists = np.asarray(twists, dtype=complex)
        if self.twists.shape != (len(nerve.triangles),):
            raise ShapeMismatch(f"twists have shape {self.twists.shape}, expected "
                                f"({len(nerve.triangles)},)")
        missing = np.flatnonzero(np.isnan(self.twists))
        if missing.size:
            raise InputError(f"no twist value for triangle {nerve.triangles[missing[0]]}")
        if not self.twists.all():
            raise InputError("twist values must be nonzero")

    def transitions(self, pairs) -> np.ndarray:
        """g_ij for each ordered pair (i, j) of `pairs`, as one (N, r, r)
        stack: the stored row, else the inverse of the stored g_ji (one
        batched `inv`), and the identity when i == j."""
        rows, flipped = self.index.rows(pairs)
        diagonal = np.array([i == j for i, j in pairs], dtype=bool)
        missing = np.flatnonzero((rows < 0) & ~diagonal)
        if missing.size:
            i, j = pairs[missing[0]]
            raise InputError(f"no transition between charts {i} and {j}")
        out = np.empty((len(pairs), self.rank, self.rank), dtype=complex)
        out[~diagonal] = self.g[rows[~diagonal]]
        out[flipped] = np.linalg.inv(out[flipped])
        out[diagonal] = np.eye(self.rank)
        return out

    def _sides(self, triples) -> tuple:
        """The (g_ij, g_jk, g_ik) stacks over ordered triples (i, j, k)."""
        return tuple(self.transitions([(t[a], t[b]) for t in triples])
                     for a, b in ((0, 1), (1, 2), (0, 2)))

    def twists_at(self, triples) -> np.ndarray:
        """lambda for each ordered triple (i, j, k) of `triples`, as one (N,)
        array: the stored row of a nerve triangle, else the scalar of
        g_ij g_jk g_ik^{-1} (one `_scalar_defects` call for all of those)."""
        rows = np.fromiter(map(self.nerve.triangle_row.get, triples, repeat(-1)), dtype=np.intp,
                           count=len(triples))
        out, computed = np.empty(len(triples), dtype=complex), np.flatnonzero(rows < 0)
        out[rows >= 0] = self.twists[rows[rows >= 0]]
        out[computed] = self._scalar_defects([triples[n] for n in computed])[0]
        return out

    def _scalar_defects(self, triples):
        """(lambda, residual) arrays over a list of ordered triples (i, j, k),
        in one pass over stacked blocks of triples: lambda = tr(P) / rank and
        residual = max |P - lambda| for P = g_ij g_jk g_ik^{-1}."""
        lam, res = np.zeros(len(triples), dtype=complex), np.zeros(len(triples))
        for block in blocks(len(triples), 16 * self.rank ** 2):
            ij, jk, ik = self._sides(triples[block])
            prod = ij @ jk @ np.linalg.inv(ik)
            lam[block] = np.trace(prod, axis1=1, axis2=2) / self.rank
            res[block] = np.max(np.abs(prod - lam[block, None, None] * np.eye(self.rank)),
                                axis=(1, 2))
        return lam, res

    def __repr__(self):
        return f"TwistedBundle(rank={self.rank}, charts={len(self.nerve.charts)})"


def twist_key(bundle: TwistedBundle, invert: bool = False) -> tuple:
    """Hashable fingerprint of the twist data (rounded to 12 digits so keys
    survive float noise); `invert` keys the pointwise inverse class."""
    lam = 1.0 / bundle.twists if invert else bundle.twists
    return tuple(zip(bundle.nerve.triangles, (np.round(lam, 12) + 0.0).tolist()))


def validate(e: TwistedBundle, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """All three cocycle invariant families, with residuals."""
    report = CheckReport()
    # inverse condition wherever both orientations are stored, g_ii = 1 on a stored (i, i)
    eye = np.eye(e.rank)
    diagonal = np.array([i == j for i, j in e.keys], dtype=bool)
    back, flipped = e.index.rows([key[::-1] for key in e.keys])
    both = np.flatnonzero(~(flipped | diagonal))
    res = np.zeros(len(e.keys))
    res[diagonal] = np.max(np.abs(e.g[diagonal] - eye), axis=(1, 2))
    for block in blocks(len(both), 16 * e.rank ** 2):
        n, m = both[block], back[both[block]]
        res[n] = np.max(np.abs(e.g[n] @ e.g[m] - eye), axis=(1, 2))
    report.check("transition_inverses", worst(res), tol)

    sv = singular_values(e.g)  # LAPACK works one matrix at a time: no stack temporaries
    singular = np.flatnonzero(~tol.passes("transition_invertible", sv[:, -1], sv[:, 0]))
    for p in sorted(singular.tolist(), key=e.keys.__getitem__):
        report.check("transition_invertible", float(sv[p, -1]), tol, sv[p, 0],
                     location=f"edge {e.keys[p]}")
    if not singular.size:
        report.add("transition_invertible", True, 0.0)

    triangles, quadruples = e.nerve.triangles, e.nerve.quadruples
    res = np.empty(len(triangles))
    for block in blocks(len(triangles), 16 * e.rank ** 2):
        ij, jk, ik = e._sides(triangles[block])
        res[block] = np.max(np.abs(ij @ jk - e.twists[block, None, None] * ik), axis=(1, 2))
    for tri, lam_t, res_t in zip(triangles, e.twists.tolist(), res.tolist()):
        report.check("triangle_relation", res_t, tol, 1.0 + abs(lam_t),
                     location=f"triangle {tri}")
        report.check("twist_nonzero", abs(lam_t), tol, location=f"triangle {tri}")
    faces = e.twists_at([q[:n] + q[n + 1:] for q in quadruples for n in range(4)])
    jkl, ikl, ijl, ijk = faces.reshape(-1, 4).T  # the faces of each quadruple (i, j, k, l)
    for quad, val in zip(quadruples, (jkl / ikl * ijl / ijk).tolist()):
        report.check("twist_2cocycle", abs(val - 1.0), tol, location=f"quadruple {quad}")
    return report


def same_nerve(e: TwistedBundle, f: TwistedBundle) -> bool:
    """True when both bundles live on one nerve: the same charts, edges and
    triangles, in the same order."""
    return (e.nerve is f.nerve or
            (e.nerve.chart_order == f.nerve.chart_order
             and e.nerve.edges == f.nerve.edges
             and e.nerve.triangles == f.nerve.triangles))


def _require_same_nerve(e: TwistedBundle, f: TwistedBundle):
    if not same_nerve(e, f):
        raise InputError("bundles live on different nerves")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a[n], b[n]) for each n of stacks a (N, p, p) and b (N, q, q),
    broadcast as np.kron does it for one pair."""
    num, p, q = len(a), a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(num, p * q, p * q)


def tensor(e: TwistedBundle, f: TwistedBundle) -> TwistedBundle:
    """Kronecker product of transitions; twists multiply."""
    _require_same_nerve(e, f)
    g = _kron(e.g, f.transitions(e.keys))
    return TwistedBundle(e.nerve, e.rank * f.rank, e.keys, g, e.twists * f.twists)


def dual(e: TwistedBundle) -> TwistedBundle:
    """Transpose-inverse transitions; twists invert."""
    return TwistedBundle(e.nerve, e.rank, e.keys, np.linalg.inv(e.g).transpose(0, 2, 1),
                         1.0 / e.twists)


def hom(e: TwistedBundle, f: TwistedBundle) -> TwistedBundle:
    """Bundle of maps u -> f_ij u g_ij^{-1} on matrix space (row-major
    vectorization); twist is mu / lambda, identically 1 for equal twists."""
    _require_same_nerve(e, f)
    g = _kron(f.transitions(e.keys), np.linalg.inv(e.g).transpose(0, 2, 1))
    return TwistedBundle(e.nerve, e.rank * f.rank, e.keys, g, f.twists / e.twists)


def end(e: TwistedBundle) -> TwistedBundle:
    return hom(e, e)


def trivial_line(nerve: Nerve) -> TwistedBundle:
    return TwistedBundle(nerve, 1, nerve.edges, np.ones((len(nerve.edges), 1, 1)))


def scalar_line(nerve: Nerve, values: dict) -> TwistedBundle:
    """Rank-1 bundle with prescribed scalar transitions per edge."""
    g = np.reshape([complex(v) for v in values.values()], (-1, 1, 1))
    return TwistedBundle(nerve, 1, values, g)


@dataclass
class IsoWitness:
    """Per-chart invertible matrices u_i with f_ij = u_i g_ij u_j^{-1}; a
    witness from `solve_iso` carries its passing `verify_iso` report."""

    u: dict
    report: CheckReport | None = field(default=None, compare=False, repr=False)


def verify_iso(e: TwistedBundle, f: TwistedBundle, w: IsoWitness,
               tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    report = CheckReport()
    _require_same_nerve(e, f)
    if e.rank != f.rank:
        report.add("rank_equal", False, float(abs(e.rank - f.rank)))
        return report
    u = []
    for cid in e.nerve.chart_order:
        if cid not in w.u:
            raise InputError(f"witness names no matrix for chart {cid}")
        u.append(np.asarray(w.u[cid], dtype=complex))
        if u[-1].shape != (e.rank, e.rank):
            raise InputError(f"witness for chart {cid} has shape {u[-1].shape}, "
                             f"expected ({e.rank},{e.rank})")
    u = np.array(u).reshape(-1, e.rank, e.rank)
    u_inv = np.linalg.inv(u)
    row = e.nerve.chart_row
    first, second = ([row[key[a]] for key in e.keys] for a in (0, 1))
    res, size = np.zeros(len(e.keys)), np.zeros(len(e.keys))
    for block in blocks(len(e.keys), 16 * e.rank ** 2):
        conj = u[first[block]] @ e.g[block] @ u_inv[second[block]]
        res[block] = np.max(np.abs(f.transitions(e.keys[block]) - conj), axis=(1, 2))
        size[block] = np.max(np.abs(e.g[block]), axis=(1, 2))
    report.check("witness_conjugation", worst(res), tol, 1.0 + worst(size))
    return report


def solve_iso(e: TwistedBundle, f: TwistedBundle,
              tol: Tolerance = DEFAULT_TOL) -> IsoWitness:
    """Spanning-tree heuristic: fix u = 1 at each component root, propagate
    u_j = f_ij^{-1} u_i g_ij along tree edges, then verify all edges.

    Raises NoWitnessFound when verification fails; this is inconclusive (it
    is not a proof that no isomorphism exists).
    """
    _require_same_nerve(e, f)
    if e.rank != f.rank:
        raise NoWitnessFound("ranks differ")
    differ = np.flatnonzero(~tol.passes("twists_agree", np.abs(e.twists - f.twists),
                                        1 + np.abs(e.twists)))
    if differ.size:
        raise NoWitnessFound(f"twists differ on triangle {e.nerve.triangles[differ[0]]}; "
                             "conjugation cannot change the twist")
    adjacency = {}
    for (a, b) in e.nerve.edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    parent = {}  # each chart, in the order it is reached: the chart it is reached from
    for root in e.nerve.chart_order:
        if root in parent:
            continue
        parent[root], stack = None, [root]
        while stack:
            i = stack.pop()
            for j in adjacency.get(i, []):
                if j not in parent:
                    parent[j] = i
                    stack.append(j)
    tree = [(i, j) for j, i in parent.items() if i is not None]
    u = {j: np.eye(e.rank, dtype=complex) for j, i in parent.items() if i is None}
    for (i, j), f_inv, g in zip(tree, np.linalg.inv(f.transitions(tree)),
                                e.transitions(tree)):
        u[j] = f_inv @ u[i] @ g
    report = verify_iso(e, f, IsoWitness(u), tol)
    if not report.passed:
        raise NoWitnessFound(f"non-tree edge check failed (residual {report.max_residual:.3e})")
    return IsoWitness(u, report)


def line_between(e: TwistedBundle, f: TwistedBundle,
                 tol: Tolerance = DEFAULT_TOL) -> TwistedBundle:
    """The twisted line with f = e (x) line, edgewise, when the transitions
    of f are exact scalar multiples of those of e (same gauge)."""
    _require_same_nerve(e, f)
    if e.rank != f.rank:
        raise InputError("ranks differ; no scalar ratio")
    ratio = f.transitions(e.keys) @ np.linalg.inv(e.g)
    s = np.trace(ratio, axis1=1, axis2=2) / e.rank
    res = np.max(np.abs(ratio - s[:, None, None] * np.eye(e.rank)), axis=(1, 2))
    scale = np.array([1 + abs(z) for z in s.tolist()])
    bad = np.flatnonzero(~tol.passes("scalar_ratio", res, scale))
    if bad.size:
        raise InputError(f"transitions on edge {e.keys[bad[0]]} differ by a non-scalar "
                         f"(residual {res[bad[0]]:.3e})")
    return TwistedBundle(e.nerve, 1, e.keys, s[:, None, None])


# -- Azumaya / conjugation cocycles ----------------------------------------


# the method that decided an `edge_automorphism` record
_CERTIFIED = "certified from the recovered conjugator"
_DIRECT = "direct check over all pairs of matrix units"


def _automorphism_residual(x: np.ndarray) -> np.ndarray:
    """How far each phi of a stack is from an algebra automorphism of M_k,
    given its images x[e, p, q] = phi_e(E_pq), shape (E, k, k, k, k): per
    edge, |sum_p x[p, p] - 1| or, when larger, |x[p, q] x[r, s] - delta_qr x[p, s]|,
    the products built one (p, q) at a time over the stack; NaN when either is."""
    num, k = x.shape[:2]
    unit = np.max(np.abs(np.trace(x, axis1=1, axis2=2) - np.eye(k)), axis=(1, 2))
    law = np.zeros(num)
    for p in range(k):
        for q in range(k):
            prod = x[:, p, q, None, None] @ x  # prod[e, r, s] = x[e, p, q] @ x[e, r, s]
            prod[:, q] -= x[:, p]
            law = np.maximum(law, np.max(np.abs(prod), axis=(1, 2, 3, 4)))
    return np.maximum(law, unit)


def _conjugator(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Skolem-Noether over a stack of unit images (E, k, k, k, k): phi(E_11) =
    g E_11 g^{-1} has rank one with image spanned by g e_1, so its column w of
    largest 2-norm (first on ties) is g e_1 up to a scalar, and g[:, p] =
    phi(E_p1) w.  Returns the (E, k, k) stack g and the mask of the g that
    pass the invertibility floor; a g that overflowed fails it (its SVD is
    not taken, as LAPACK may refuse it)."""
    first = x[:, 0, 0]
    col = np.argmax(np.sum(np.abs(first) ** 2, axis=1), axis=1)
    w = np.take_along_axis(first, col[:, None, None], axis=2)  # (E, k, 1)
    g = (x[:, :, 0] @ w[:, None])[..., 0].transpose(0, 2, 1)
    finite = np.isfinite(g).all(axis=(1, 2))
    ratio = singular_ratio(np.where(finite[:, None, None], g, 0.0))  # 0 for the zero matrix
    return g, tol.passes("conjugator_invertible", ratio)


def _edge_certificate(x: np.ndarray, g: np.ndarray, g_inv: np.ndarray,
                      conj: np.ndarray) -> np.ndarray:
    """Per edge of a stack, an upper bound on the residual `_automorphism_residual`
    computes for the unit images x (E, k, k, k, k), from the recovered conjugator
    g (E, k, k), its computed inverse Q = `g_inv` and the conjugation residual
    `conj` = max |phi - fl(kron(g, Q^T))|; inf where ||I - g Q|| >= 1/2 or the
    bound is not finite.

    With T = g^{-1} exactly, A_pq = g E_pq T has rank one and A_pq A_rs =
    delta_qr A_ps exactly, so for Delta_pq = x[p, q] - A_pq with max |Delta| <= R
    the law residual A_pq Delta_rs + Delta_pq A_rs + Delta_pq Delta_rs - delta_qr Delta_ps
    is at most R (2kM + kR + 1) entrywise, M >= max |g| max |T|, and the unit
    residual sum_p Delta_pp at most kR.  R adds up
    - `conj`;
    - the rounding of the computed kron, sqrt(2) gamma_2 max |g| max |Q|;
    - max |g| t with t = ||Q||_inf h / (1 - h) >= max |T - Q|, since T - Q = T H for
      H = I - g Q and ||T||_inf <= ||Q||_inf / (1 - h), h from
      `tolerances.inverse_defect`; M is max |g| (max |Q| + t).
    To that exact bound it adds the rounding of the direct check itself,
    sqrt(2) (gamma_2k k max|x|^2 + gamma_{k+1} (k max|x| + 1)) (a complex inner
    product of length k is two sums of 2k real products; the unit sum adds k + 1
    terms), so a certificate within a bound means the direct check is within it
    too.  Every computed ingredient, and the result, is rounded up by
    1 + gamma_{4k+16} (Higham, ch. 3)."""
    k = x.shape[1]
    up, root2 = 1 + gamma(4 * k + 16), np.sqrt(2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = up * inverse_defect(g, g_inv)
        abs_q = np.abs(g_inv)
        top_g, top_q = up * np.max(np.abs(g), axis=(1, 2)), np.max(abs_q, axis=(1, 2))
        t = up * np.max(abs_q.sum(axis=2), axis=1) * h / (1 - h)
        r = up * (up * conj + root2 * gamma(2) * top_g * top_q + top_g * t)
        m = up * top_g * (top_q + t)
        top_x = np.max(np.abs(x), axis=(1, 2, 3, 4))
        rounding = root2 * (gamma(2 * k) * k * top_x * top_x + gamma(k + 1) * (k * top_x + 1))
        cert = (up * (np.maximum(r * (2 * k * m + k * r + 1), k * r) + rounding)).astype(float)
    return np.where((h < 0.5) & np.isfinite(cert), cert, np.inf)


def azumaya_extract(a: TwistedBundle, tol: Tolerance = DEFAULT_TOL):
    """From a bundle of matrix algebras (edge maps = algebra automorphisms of
    M_k, k^2 = rank) recover a twisted bundle E with END(E) isomorphic to the
    input: each edge map is conjugation by a matrix read off its unit images,
    normalized to det = 1 with the principal k-th root (the root choice is
    recorded), and the twist is the scalar defect (g_ij g_jk) g_ik^{-1}.

    The sorted edges are worked as stacks, in blocks of at most BLOCK_BYTES
    of edge maps.  Each block first recovers every g, its one inverse and the
    conjugation residual r; `_edge_certificate` then bounds each edge's
    automorphism residual from those in O(k^4) (A_pq = g E_pq g^{-1} multiplies
    exactly as the matrix units do, so the law residual is at most
    r (2kM + kr + 1) and the unit residual kr, M = max|g| max|g^{-1}|, plus
    rounding), and only an edge whose bound exceeds the `edge_automorphism`
    rule (or a block with a singular conjugator) runs the direct O(k^7) check.  An `edge_automorphism` record
    carries the certificate or the direct residual, and its detail names the
    method.  The certificate bounds the residual the direct check computes,
    so the verdicts are the direct check's: the first edge in sorted order
    that fails it raises NotAutomorphism, unless an edge before it has a
    singular conjugator, which raises "could not invert the recovered
    conjugator".  Returns (bundle, report).
    """
    k = int(round(np.sqrt(a.rank)))
    if k * k != a.rank:
        raise ShapeMismatch(f"rank {a.rank} is not a square; not an algebra bundle "
                            "of matrix type")
    order = sorted(range(len(a.keys)), key=a.keys.__getitem__)
    keys = [a.keys[n] for n in order]
    auto_res, conj_res = np.zeros(len(keys)), np.zeros(len(keys))
    certified = np.zeros(len(keys), dtype=bool)
    g = np.empty((len(keys), k, k), dtype=complex)
    for block in blocks(len(keys), 16 * k ** 4):
        # x[e, p, q] = phi_e(E_pq), contiguous so `@` takes BLAS (a view rounds g otherwise)
        x = np.ascontiguousarray(a.g[order[block]].transpose(0, 2, 1)).reshape(-1, k, k, k, k)
        phi = x.reshape(-1, k * k, k * k).transpose(0, 2, 1)
        raw, invertible = _conjugator(x, tol)
        res, direct = np.full(len(x), np.inf), np.ones(len(x), dtype=bool)
        if invertible.all():  # else the block raises, and only the direct check can say where
            root = np.exp(np.log(np.linalg.det(raw)) / k)  # principal branch of det^(1/k)
            g[block] = _fix_unit_root(raw / root[:, None, None], k)
            g_inv = np.linalg.inv(g[block])
            conj_res[block] = _conjugation_residual(phi, g[block], g_inv)
            res = _edge_certificate(x, g[block], g_inv, conj_res[block])
            direct = ~tol.passes("edge_automorphism", res)
        if direct.any():
            res[direct] = _automorphism_residual(x[direct])
        bad = np.flatnonzero(~tol.passes("edge_automorphism", res))
        stop = bad[0] if bad.size else len(res)
        if not invertible[:stop].all():
            raise NotAutomorphism("could not invert the recovered conjugator")
        if bad.size:
            raise NotAutomorphism(f"edge {keys[block][stop]}: automorphism residual "
                                  f"{res[stop]:.3e}")
        auto_res[block], certified[block] = res, ~direct
    bundle = TwistedBundle(a.nerve, k, keys, g)
    report = CheckReport()
    for key, res, conj, cert in zip(keys, auto_res.tolist(), conj_res.tolist(),
                                    certified.tolist()):
        report.check("edge_automorphism", res, tol, location=f"edge {key}",
                     detail=_CERTIFIED if cert else _DIRECT)
        report.check("conjugation_recovered", conj, tol, location=f"edge {key}",
                     detail=f"det = 1 via principal {k}-th root; residual unit-root "
                            "phase fixed on the leading entry")
    for tri, res, lam in zip(a.nerve.triangles, bundle.twist_residuals.tolist(), bundle.twists):
        report.check("twist_scalar_defect", res, tol, location=f"triangle {tri}",
                     detail=f"lambda={lam:.6g}")
    return bundle, report


def _fix_unit_root(g: np.ndarray, k: int) -> np.ndarray:
    """det(g) = 1 leaves a k-th root of unity free; for each g of a stack
    (E, k, k) choose the one putting the argument of the leading entry (first
    row-major entry of near-maximal modulus) in (-pi/k, pi/k]: the unique
    integer m with arg(lead) + 2 pi m / k in that interval is
    floor(1/2 - k arg(lead) / 2 pi)."""
    flat = g.reshape(len(g), -1)
    modulus = np.abs(flat)
    near = modulus >= 0.5 * np.max(modulus, axis=1, keepdims=True)
    lead = flat[np.arange(len(g)), np.argmax(near, axis=1)]
    m = np.floor(0.5 - k * np.angle(lead) / (2 * np.pi)).astype(int) % k
    roots = np.array([np.exp(2j * np.pi * r / k) for r in range(k)])
    return roots[m][:, None, None] * g


def _conjugation_residual(phi: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """max |phi - kron(g, g_inv^T)| per edge of stacks phi (E, k^2, k^2), g
    (E, k, k) and g_inv its computed inverse: X -> g X g^{-1} on row-major vec(X)."""
    return np.max(np.abs(phi - _kron(g, g_inv.transpose(0, 2, 1))), axis=(1, 2))


# -- the Psi correspondence --------------------------------------------------


def psi(e: TwistedBundle, reps: dict, tol: Tolerance = DEFAULT_TOL) -> TwistedBundle:
    """Tensor with the fixed representative line of the inverse twist class:
    the result is an ordinary bundle (twist identically 1).

    `reps` maps twist_key(...) fingerprints to chosen rank-1 bundles.
    """
    key = twist_key(e, invert=True)
    if key not in reps:
        raise InputError("no representative line bundle for the inverse twist class")
    out = tensor(e, reps[key])
    bad = np.flatnonzero(~tol.passes("psi_ordinary", np.abs(out.twists - 1.0)))
    if bad.size:
        raise InputError(f"psi output is not ordinary on triangle {out.nerve.triangles[bad[0]]}: "
                         f"twist {out.twists[bad[0]]:.6g}")
    return out


def random_twisted_bundle(nerve: Nerve, rank: int, seed: int = 0,
                          scalars=None) -> TwistedBundle:
    """Generic gauge-trivial fixture: g_ij = s_ij u_i u_j^{-1} for random
    invertible u_i and scalars s_ij (given or random), so the twist on a
    triangle is s_ij s_jk / s_ik."""
    rng = np.random.default_rng(seed)
    u = []
    for cid in nerve.chart_order:
        while True:
            m = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            if np.linalg.cond(m) < 50:
                u.append(m)
                break
    u = np.array(u)
    scalars = scalars or {}
    phases = np.exp(2j * np.pi * rng.uniform(size=sum(k not in scalars for k in nerve.edges)))
    phases = iter(phases.tolist())  # drawn in edge order, for the edges without a given s
    s = np.array([complex(scalars[k]) if k in scalars else next(phases) for k in nerve.edges])
    row = nerve.chart_row
    first, second = ([row[key[a]] for key in nerve.edges] for a in (0, 1))
    return TwistedBundle(nerve, rank, nerve.edges,
                         s[:, None, None] * u[first] @ np.linalg.inv(u)[second])
