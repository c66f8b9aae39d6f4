"""Twisted vector bundles as Cech cocycle data on a finite nerve.

A bundle of rank r assigns an invertible r x r transition matrix g_ij to
each ordered edge and a nonzero scalar twist lambda_ijk to each triangle,
subject to

    g_ii = 1,   g_ji = g_ij^{-1},   g_ij g_jk = lambda_ijk g_ik,

with lambda a 2-cocycle on quadruples.  Tensor multiplies twists, the dual
inverts them, and Hom(E, F) with equal twists is an ordinary bundle (the
twists cancel algebraically).

Conjugation cocycles of matrix algebras are handled in closed form: with
x[p, q] = phi(E_pq) (phi^T reshaped to (k, k, k, k)), an edge map phi is an
automorphism of M_k iff x[p, q] x[r, s] = delta_qr x[p, s], and then it is
conjugation by g[:, p] = x[p, 0] w (Skolem-Noether, w the column of x[0, 0]
of largest 2-norm), i.e. phi = kron(g, g^{-T}) on row-major vec.  Normalizing
det g = 1 and the phase of its leading entry turns a bundle of matrix algebras
into a twisted bundle E with END(E) isomorphic to the input.  The extraction
works on the sorted edges as one stack (E, k, k, k, k) of unit images, in
blocks of at most BLOCK_BYTES, and finds all triangle twists in one pass.
"""

import numpy as np

from dataclasses import dataclass, field

from .errors import (
    InputError,
    NoWitnessFound,
    NotAutomorphism,
    ShapeMismatch,
)
from .family import Nerve, blocks
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance, singular_ratio, singular_values


class TwistedBundle:
    """Cocycle data (nerve, rank, transitions, twists).

    `transitions` maps ordered edges (i, j) to invertible matrices; the
    reverse orientation is derived as the inverse when not stored.  `twists`
    maps the nerve's triangles to nonzero scalars; when omitted they are
    computed from the transitions (the triangle products must then be scalar
    multiples of each other), and `twist_residuals` keeps how far each
    triangle's product is from its scalar, in the nerve's triangle order.
    """

    def __init__(self, nerve: Nerve, rank: int, transitions: dict, twists: dict | None = None):
        self.nerve = nerve
        self.rank = int(rank)
        if self.rank < 1:
            raise ShapeMismatch("rank must be >= 1")
        self.g = self._checked_transitions(transitions)
        for (a, b) in nerve.edges:
            if (a, b) not in self.g and (b, a) not in self.g:
                raise InputError(f"no transition data for edge {(a, b)}")
        self.twist_residuals = None
        if twists is None:
            lam, self.twist_residuals = self._scalar_defects(nerve.triangles)
            self.twists = {tuple(tri): complex(x) for tri, x in zip(nerve.triangles, lam)}
        else:
            self.twists = {tuple(k): complex(v) for k, v in twists.items()}
            for tri in nerve.triangles:
                if tuple(tri) not in self.twists:
                    raise InputError(f"no twist value for triangle {tri}")
            if 0 in self.twists.values():
                raise InputError("twist values must be nonzero")

    def _checked_transitions(self, transitions: dict) -> dict:
        """The transitions keyed by chart pairs, each stored as given (as a
        complex array).  They are checked (shape, finiteness, chart names) in
        stacked passes over blocks of at most BLOCK_BYTES; only when that
        fails does the per-key pass run, which raises at the first bad key in
        input order."""
        shape, values = (self.rank, self.rank), list(transitions.values())
        try:
            pairs = [tuple(key) for key in transitions]
            stacks = (np.array(values[block], dtype=complex)
                      for block in blocks(len(values), 16 * self.rank ** 2))
            passed = (all(m.shape[1:] == shape and np.isfinite(m).all() for m in stacks)
                      and all(len(p) == 2 and p[0] in self.nerve.charts
                              and p[1] in self.nerve.charts for p in pairs))
        except (TypeError, ValueError, OverflowError):  # the per-key pass locates it
            passed = False
        if passed:
            return {p: np.asarray(m, dtype=complex) for p, m in zip(pairs, values)}
        g = {}
        for key, m in transitions.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != shape:
                raise ShapeMismatch(f"transition {key} has shape {m.shape}, "
                                    f"expected ({self.rank},{self.rank})")
            if not np.all(np.isfinite(m)):
                raise InputError(f"transition {key} has non-finite entries")
            i, j = key
            if i not in self.nerve.charts or j not in self.nerve.charts:
                raise InputError(f"transition {key} names unknown charts")
            g[(i, j)] = m
        return g

    def transition(self, i, j) -> np.ndarray:
        if i == j:
            return np.eye(self.rank, dtype=complex)
        if (i, j) in self.g:
            return self.g[(i, j)]
        if (j, i) in self.g:
            return np.linalg.inv(self.g[(j, i)])
        raise InputError(f"no transition between charts {i} and {j}")

    def twist_of(self, i, j, k) -> complex:
        """lambda for an ordered triple: stored value, or computed as the
        scalar of g_ij g_jk g_ik^{-1}."""
        if (i, j, k) in self.twists:
            return self.twists[(i, j, k)]
        return complex(self._scalar_defects([(i, j, k)])[0][0])

    def _scalar_defects(self, triples):
        """(lambda, residual) arrays over a list of ordered triples (i, j, k),
        in one pass over stacked blocks of triples: lambda = tr(P) / rank and
        residual = max |P - lambda| for P = g_ij g_jk g_ik^{-1}."""
        lam, res = np.zeros(len(triples), dtype=complex), np.zeros(len(triples))
        for block in blocks(len(triples), 16 * self.rank ** 2):
            ij, jk, ik = (np.stack([self.transition(t[a], t[b]) for t in triples[block]])
                          for a, b in ((0, 1), (1, 2), (0, 2)))
            prod = ij @ jk @ np.linalg.inv(ik)
            lam[block] = np.trace(prod, axis1=1, axis2=2) / self.rank
            res[block] = np.max(np.abs(prod - lam[block, None, None] * np.eye(self.rank)),
                                axis=(1, 2))
        return lam, res

    def twist_values(self) -> dict:
        return {tuple(t): self.twist_of(*t) for t in self.nerve.triangles}

    def __repr__(self):
        return f"TwistedBundle(rank={self.rank}, charts={len(self.nerve.charts)})"


def twist_key(bundle: TwistedBundle, invert: bool = False) -> tuple:
    """Hashable fingerprint of the twist data (rounded to 12 digits so keys
    survive float noise); `invert` keys the pointwise inverse class."""
    items = []
    for tri in bundle.nerve.triangles:
        lam = bundle.twist_of(*tri)
        if invert:
            lam = 1.0 / lam
        items.append((tuple(tri), (round(lam.real, 12) + 0.0, round(lam.imag, 12) + 0.0)))
    return tuple(items)


def validate(e: TwistedBundle, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """All three cocycle invariant families, with residuals."""
    report = CheckReport()
    # inverse condition wherever both orientations are stored
    worst = 0.0
    for (i, j) in e.g:
        if i == j:
            worst = max(worst, float(np.max(np.abs(e.g[(i, j)] - np.eye(e.rank)))))
        elif (j, i) in e.g:
            worst = max(worst, float(np.max(np.abs(e.g[(i, j)] @ e.g[(j, i)] - np.eye(e.rank)))))
    report.check("transition_inverses", worst, tol)

    keys = sorted(e.g)
    sv = np.empty((len(keys), e.rank))
    for block in blocks(len(keys), 16 * e.rank ** 2):
        sv[block] = singular_values(np.array([e.g[key] for key in keys[block]]))
    singular = np.flatnonzero(~tol.passes("transition_invertible", sv[:, -1], sv[:, 0]))
    for p in singular:
        report.check("transition_invertible", float(sv[p, -1]), tol, sv[p, 0],
                     location=f"edge {keys[p]}")
    if not singular.size:
        report.add("transition_invertible", True, 0.0)

    triangles = e.nerve.triangles
    lam = [e.twist_of(*tri) for tri in triangles]
    res = np.empty(len(triangles))
    for block in blocks(len(triangles), 16 * e.rank ** 2):
        ij, jk, ik = (np.array([e.transition(t[a], t[b]) for t in triangles[block]])
                      for a, b in ((0, 1), (1, 2), (0, 2)))
        lam_block = np.array(lam[block], dtype=complex)[:, None, None]
        res[block] = np.max(np.abs(ij @ jk - lam_block * ik), axis=(1, 2))
    for tri, lam_t, res_t in zip(triangles, lam, res.tolist()):
        report.check("triangle_relation", res_t, tol, 1.0 + abs(lam_t),
                     location=f"triangle {tri}")
        report.check("twist_nonzero", abs(lam_t), tol, location=f"triangle {tri}")
    for quad in e.nerve.quadruples:
        i, j, k, l = quad
        val = (e.twist_of(j, k, l) / e.twist_of(i, k, l)
               * e.twist_of(i, j, l) / e.twist_of(i, j, k))
        res = abs(val - 1.0)
        report.check("twist_2cocycle", res, tol, location=f"quadruple {quad}")
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


def tensor(e: TwistedBundle, f: TwistedBundle) -> TwistedBundle:
    """Kronecker product of transitions; twists multiply."""
    _require_same_nerve(e, f)
    g = {key: np.kron(e.g[key], f.transition(*key)) for key in e.g}
    twists = {tuple(t): e.twist_of(*t) * f.twist_of(*t) for t in e.nerve.triangles}
    return TwistedBundle(e.nerve, e.rank * f.rank, g, twists)


def dual(e: TwistedBundle) -> TwistedBundle:
    """Transpose-inverse transitions; twists invert."""
    g = {key: np.linalg.inv(m).T for key, m in e.g.items()}
    twists = {tuple(t): 1.0 / e.twist_of(*t) for t in e.nerve.triangles}
    return TwistedBundle(e.nerve, e.rank, g, twists)


def hom(e: TwistedBundle, f: TwistedBundle) -> TwistedBundle:
    """Bundle of maps u -> f_ij u g_ij^{-1} on matrix space (row-major
    vectorization); twist is mu / lambda, identically 1 for equal twists."""
    _require_same_nerve(e, f)
    g = {key: np.kron(f.transition(*key), np.linalg.inv(ge).T) for key, ge in e.g.items()}
    twists = {tuple(t): f.twist_of(*t) / e.twist_of(*t) for t in e.nerve.triangles}
    return TwistedBundle(e.nerve, e.rank * f.rank, g, twists)


def end(e: TwistedBundle) -> TwistedBundle:
    return hom(e, e)


def trivial_line(nerve: Nerve) -> TwistedBundle:
    g = {tuple(key): np.eye(1, dtype=complex) for key in nerve.edges}
    return TwistedBundle(nerve, 1, g)


def scalar_line(nerve: Nerve, values: dict) -> TwistedBundle:
    """Rank-1 bundle with prescribed scalar transitions per edge."""
    g = {tuple(k): np.array([[complex(v)]]) for k, v in values.items()}
    return TwistedBundle(nerve, 1, g)


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
    u = {}
    for cid in e.nerve.chart_order:
        if cid not in w.u:
            raise InputError(f"witness names no matrix for chart {cid}")
        u[cid] = np.asarray(w.u[cid], dtype=complex)
        if u[cid].shape != (e.rank, e.rank):
            raise InputError(f"witness for chart {cid} has shape {u[cid].shape}, "
                             f"expected ({e.rank},{e.rank})")
    worst = 0.0
    for (i, j) in e.g:
        res = float(np.max(np.abs(f.transition(i, j)
                                  - u[i] @ e.g[(i, j)] @ np.linalg.inv(u[j]))))
        worst = max(worst, res)
    scale = 1.0 + max((float(np.max(np.abs(m))) for m in e.g.values()), default=0.0)
    report.check("witness_conjugation", worst, tol, scale)
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
    tw_e, tw_f = e.twist_values(), f.twist_values()
    for t in tw_e:
        if not tol.passes("twists_agree", abs(tw_e[t] - tw_f[t]), 1 + abs(tw_e[t])):
            raise NoWitnessFound(f"twists differ on triangle {t}; conjugation "
                                 "cannot change the twist")
    adjacency = {}
    for (a, b) in e.nerve.edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    u = {}
    for root in e.nerve.chart_order:
        if root in u:
            continue
        u[root] = np.eye(e.rank, dtype=complex)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in adjacency.get(i, []):
                if j in u:
                    continue
                gij = e.transition(i, j)
                fij = f.transition(i, j)
                u[j] = np.linalg.inv(fij) @ u[i] @ gij
                stack.append(j)
    report = verify_iso(e, f, IsoWitness(u), tol)
    if not report.passed:
        raise NoWitnessFound(f"non-tree edge check failed "
                             f"(residual {report.max_residual:.3e})")
    return IsoWitness(u, report)


def line_between(e: TwistedBundle, f: TwistedBundle,
                 tol: Tolerance = DEFAULT_TOL) -> TwistedBundle:
    """The twisted line with f = e (x) line, edgewise, when the transitions
    of f are exact scalar multiples of those of e (same gauge)."""
    _require_same_nerve(e, f)
    if e.rank != f.rank:
        raise InputError("ranks differ; no scalar ratio")
    values = {}
    for key, ge in e.g.items():
        gf = f.transition(*key)
        ratio = gf @ np.linalg.inv(ge)
        s = complex(np.trace(ratio) / e.rank)
        res = float(np.max(np.abs(ratio - s * np.eye(e.rank))))
        if not tol.passes("scalar_ratio", res, 1 + abs(s)):
            raise InputError(f"transitions on edge {key} differ by a non-scalar "
                             f"(residual {res:.3e})")
        values[key] = s
    return scalar_line(e.nerve, values)


# -- Azumaya / conjugation cocycles ----------------------------------------


def _automorphism_residual(x: np.ndarray) -> np.ndarray:
    """How far each phi of a stack is from an algebra automorphism of M_k,
    given its images x[e, p, q] = phi_e(E_pq), shape (E, k, k, k, k): per
    edge, |sum_p x[p, p] - 1| or, when larger, |x[p, q] x[r, s] - delta_qr x[p, s]|,
    the products built one (p, q) at a time over the stack."""
    num, k = x.shape[:2]
    unit = np.max(np.abs(np.trace(x, axis1=1, axis2=2) - np.eye(k)), axis=(1, 2))
    law = np.zeros(num)
    for p in range(k):
        for q in range(k):
            prod = x[:, p, q, None, None] @ x  # prod[e, r, s] = x[e, p, q] @ x[e, r, s]
            prod[:, q] -= x[:, p]
            law = np.maximum(law, np.max(np.abs(prod), axis=(1, 2, 3, 4)))
    return np.where(law > unit, law, unit)  # as max(unit, law): a NaN law keeps unit


def _conjugator(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Skolem-Noether over a stack of unit images (E, k, k, k, k): phi(E_11) =
    g E_11 g^{-1} has rank one with image spanned by g e_1, so its column w of
    largest 2-norm (first on ties) is g e_1 up to a scalar, and g[:, p] =
    phi(E_p1) w.  Raises NotAutomorphism when a g fails the invertibility floor."""
    first = x[:, 0, 0]
    col = np.argmax(np.sum(np.abs(first) ** 2, axis=1), axis=1)
    w = np.take_along_axis(first, col[:, None, None], axis=2)  # (E, k, 1)
    g = (x[:, :, 0] @ w[:, None])[..., 0].transpose(0, 2, 1)
    if not tol.passes("conjugator_invertible", singular_ratio(g)).all():
        raise NotAutomorphism("could not invert the recovered conjugator")
    return g


def azumaya_extract(a: TwistedBundle, tol: Tolerance = DEFAULT_TOL):
    """From a bundle of matrix algebras (edge maps = algebra automorphisms of
    M_k, k^2 = rank) recover a twisted bundle E with END(E) isomorphic to the
    input: each edge map is conjugation by a matrix read off its unit images,
    normalized to det = 1 with the principal k-th root (the root choice is
    recorded), and the twist is the scalar defect (g_ij g_jk) g_ik^{-1}.

    The sorted edges are worked as stacks, in blocks of at most BLOCK_BYTES
    of edge maps; the first edge in sorted order that fails a check raises
    NotAutomorphism.  Returns (bundle, report).
    """
    k = int(round(np.sqrt(a.rank)))
    if k * k != a.rank:
        raise ShapeMismatch(f"rank {a.rank} is not a square; not an algebra bundle "
                            "of matrix type")
    keys = sorted(a.g)
    auto_res, conj_res = np.zeros(len(keys)), np.zeros(len(keys))
    g = np.empty((len(keys), k, k), dtype=complex)
    for block in blocks(len(keys), 16 * k ** 4):
        # x[e, p, q] = phi_e(E_pq), contiguous so `@` takes BLAS (a view rounds g otherwise)
        x = np.array([a.g[key].T for key in keys[block]], order="C").reshape(-1, k, k, k, k)
        phi = x.reshape(-1, k * k, k * k).transpose(0, 2, 1)
        res = _automorphism_residual(x)
        bad = np.flatnonzero(~tol.passes("edge_automorphism", res))
        stop = bad[0] if bad.size else len(res)
        raw = _conjugator(x[:stop], tol)
        if bad.size:
            raise NotAutomorphism(f"edge {keys[block][stop]}: automorphism residual "
                                  f"{res[stop]:.3e}")
        det = np.linalg.det(raw)
        root = np.exp(np.log(det) / k)  # principal branch of det^(1/k)
        g[block] = _fix_unit_root(raw / root[:, None, None], k)
        auto_res[block], conj_res[block] = res, _conjugation_residual(phi, g[block])
    bundle = TwistedBundle(a.nerve, k, dict(zip(keys, g)))
    report = CheckReport()
    for key, res, conj in zip(keys, auto_res.tolist(), conj_res.tolist()):
        report.check("edge_automorphism", res, tol, location=f"edge {key}")
        report.check("conjugation_recovered", conj, tol, location=f"edge {key}",
                     detail=f"det = 1 via principal {k}-th root; residual unit-root "
                            "phase fixed on the leading entry")
    for tri, res in zip(a.nerve.triangles, bundle.twist_residuals.tolist()):
        report.check("twist_scalar_defect", res, tol, location=f"triangle {tri}",
                     detail=f"lambda={bundle.twists[tuple(tri)]:.6g}")
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


def _conjugation_residual(phi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """max |phi - kron(g, g^{-T})| per edge of stacks phi (E, k^2, k^2) and g
    (E, k, k): X -> g X g^{-1} on row-major vec(X)."""
    num, k = g.shape[:2]
    ginv_t = np.linalg.inv(g).transpose(0, 2, 1)
    kron = (g.reshape(num, k, 1, k, 1) * ginv_t.reshape(num, 1, k, 1, k)).reshape(phi.shape)
    return np.max(np.abs(phi - kron), axis=(1, 2))


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
    for t in out.nerve.triangles:
        lam = out.twist_of(*t)
        if not tol.passes("psi_ordinary", abs(lam - 1.0)):
            raise InputError(f"psi output is not ordinary on triangle {t}: "
                             f"twist {lam:.6g}")
    return out


def random_twisted_bundle(nerve: Nerve, rank: int, seed: int = 0,
                          scalars=None) -> TwistedBundle:
    """Generic gauge-trivial fixture: g_ij = s_ij u_i u_j^{-1} for random
    invertible u_i and scalars s_ij (given or random), so the twist on a
    triangle is s_ij s_jk / s_ik."""
    rng = np.random.default_rng(seed)
    u = {}
    for cid in nerve.chart_order:
        while True:
            m = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            if np.linalg.cond(m) < 50:
                u[cid] = m
                break
    g = {}
    for (i, j) in nerve.edges:
        if scalars is not None and (i, j) in scalars:
            s = complex(scalars[(i, j)])
        else:
            s = complex(np.exp(2j * np.pi * rng.uniform()))
        g[(i, j)] = s * u[i] @ np.linalg.inv(u[j])
    return TwistedBundle(nerve, rank, g)
