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
conjugation by g[:, p] = x[p, 0] x[0, 0] v (Skolem-Noether, v random), i.e.
phi = kron(g, g^{-T}) on row-major vec.  Normalizing det g = 1 and the phase
of its leading entry turns a bundle of matrix algebras into a twisted bundle
E with END(E) isomorphic to the input.
"""

import numpy as np

from dataclasses import dataclass

from .errors import (
    InputError,
    NoWitnessFound,
    NotAutomorphism,
    ShapeMismatch,
)
from .family import Nerve
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance


class TwistedBundle:
    """Cocycle data (nerve, rank, transitions, twists).

    `transitions` maps ordered edges (i, j) to invertible matrices; the
    reverse orientation is derived as the inverse when not stored.  `twists`
    maps the nerve's triangles to nonzero scalars; when omitted they are
    computed from the transitions (the triangle products must then be scalar
    multiples of each other).
    """

    def __init__(self, nerve: Nerve, rank: int, transitions: dict, twists: dict | None = None):
        self.nerve = nerve
        self.rank = int(rank)
        if self.rank < 1:
            raise ShapeMismatch("rank must be >= 1")
        self.g = {}
        for key, m in transitions.items():
            m = np.asarray(m, dtype=complex)
            if m.shape != (self.rank, self.rank):
                raise ShapeMismatch(f"transition {key} has shape {m.shape}, "
                                    f"expected ({self.rank},{self.rank})")
            i, j = key
            if i not in nerve.charts or j not in nerve.charts:
                raise InputError(f"transition {key} names unknown charts")
            self.g[(i, j)] = m
        for (a, b) in nerve.edges:
            if (a, b) not in self.g and (b, a) not in self.g:
                raise InputError(f"no transition data for edge {(a, b)}")
        if twists is None:
            self.twists = {}
            for tri in nerve.triangles:
                lam, _ = self._scalar_defect(*tri)
                self.twists[tuple(tri)] = lam
        else:
            self.twists = {tuple(k): complex(v) for k, v in twists.items()}
            for tri in nerve.triangles:
                if tuple(tri) not in self.twists:
                    raise InputError(f"no twist value for triangle {tri}")
            if 0 in self.twists.values():
                raise InputError("twist values must be nonzero")

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
        lam, _ = self._scalar_defect(i, j, k)
        return lam

    def _scalar_defect(self, i, j, k):
        """(lambda, residual) with g_ij g_jk = lambda g_ik + residual."""
        prod = self.transition(i, j) @ self.transition(j, k) @ np.linalg.inv(self.transition(i, k))
        lam = complex(np.trace(prod) / self.rank)
        res = float(np.max(np.abs(prod - lam * np.eye(self.rank))))
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
    report.add("transition_inverses", worst <= tol.eps_structural * 10, worst)

    inv_ok = True
    for (i, j) in sorted(e.g):
        sv = np.linalg.svd(e.g[(i, j)], compute_uv=False)
        if not (sv[0] > 0 and sv[-1] / sv[0] > tol.eps_rank):
            inv_ok = False
            report.add("transition_invertible", False, float(sv[-1]),
                       location=f"edge {(i, j)}")
    if inv_ok:
        report.add("transition_invertible", True, 0.0)

    for tri in e.nerve.triangles:
        lam = e.twist_of(*tri)
        i, j, k = tri
        res = float(np.max(np.abs(e.transition(i, j) @ e.transition(j, k)
                                  - lam * e.transition(i, k))))
        scale = 1.0 + abs(lam)
        report.add("triangle_relation", res <= tol.eps_structural * scale * 100, res,
                   location=f"triangle {tri}")
        report.add("twist_nonzero", abs(lam) > tol.eps_rank, abs(lam),
                   location=f"triangle {tri}")
    for quad in e.nerve.quadruples:
        i, j, k, l = quad
        val = (e.twist_of(j, k, l) / e.twist_of(i, k, l)
               * e.twist_of(i, j, l) / e.twist_of(i, j, k))
        res = abs(val - 1.0)
        report.add("twist_2cocycle", res <= tol.eps_structural * 100, res,
                   location=f"quadruple {quad}")
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
    """Per-chart invertible matrices u_i with f_ij = u_i g_ij u_j^{-1}."""

    u: dict


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
    scale = 1.0 + max(float(np.max(np.abs(m))) for m in e.g.values())
    report.add("witness_conjugation", worst <= tol.eps_structural * scale * 100, worst)
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
        if abs(tw_e[t] - tw_f[t]) > tol.eps_structural * (1 + abs(tw_e[t])) * 100:
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
    witness = IsoWitness(u)
    report = verify_iso(e, f, witness, tol)
    if not report.passed:
        raise NoWitnessFound(f"non-tree edge check failed "
                             f"(residual {report.max_residual:.3e})")
    return witness


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
        if res > tol.eps_structural * (1 + abs(s)) * 100:
            raise InputError(f"transitions on edge {key} differ by a non-scalar "
                             f"(residual {res:.3e})")
        values[key] = s
    return scalar_line(e.nerve, values)


# -- Azumaya / conjugation cocycles ----------------------------------------


def _automorphism_residual(x: np.ndarray) -> float:
    """How far phi is from an algebra automorphism of M_k, given its images
    x[p, q] = phi(E_pq): max of |sum_p x[p, p] - 1| and
    |x[p, q] x[r, s] - delta_qr x[p, s]|."""
    k = x.shape[0]
    prod = x[:, :, None, None] @ x  # prod[p, q, r, s] = x[p, q] @ x[r, s]
    diag = np.arange(k)
    prod[:, diag, diag] -= x[:, None]
    return float(max(np.max(np.abs(np.trace(x) - np.eye(k))), np.max(np.abs(prod))))


def _conjugator(x: np.ndarray, rng) -> np.ndarray:
    """Skolem-Noether, constructively: columns p of g are phi(E_{p1}) w for
    w = phi(E_{11}) v with v random; then g X g^{-1} = phi(X)."""
    k = x.shape[0]
    for _ in range(8):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = (x[:, 0] @ (x[0, 0] @ v)).T
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[0] > 0 and sv[-1] / sv[0] > 1e-10:
            return g
    raise NotAutomorphism("could not invert the recovered conjugator")


def azumaya_extract(a: TwistedBundle, tol: Tolerance = DEFAULT_TOL,
                    seed: int = 0):
    """From a bundle of matrix algebras (edge maps = algebra automorphisms of
    M_k, k^2 = rank) recover a twisted bundle E with END(E) isomorphic to the
    input: each edge map is conjugation by a matrix, normalized to det = 1
    with the principal k-th root (the root choice is recorded), and the twist
    is the scalar defect (g_ij g_jk) g_ik^{-1}.

    Returns (bundle, report).
    """
    k = int(round(np.sqrt(a.rank)))
    if k * k != a.rank:
        raise ShapeMismatch(f"rank {a.rank} is not a square; not an algebra bundle "
                            "of matrix type")
    rng = np.random.default_rng(seed)
    report = CheckReport()
    g = {}
    for key in sorted(a.g):
        phi = a.g[key]
        # x[p, q] = phi(E_pq), contiguous so `@` takes BLAS (a view rounds g otherwise)
        x = np.ascontiguousarray(phi.T).reshape(k, k, k, k)
        res = _automorphism_residual(x)
        if res > tol.eps_structural * 1000:
            raise NotAutomorphism(f"edge {key}: automorphism residual {res:.3e}")
        report.add("edge_automorphism", True, res, location=f"edge {key}")
        raw = _conjugator(x, rng)
        det = np.linalg.det(raw)
        root = np.exp(np.log(det) / k)  # principal branch of det^(1/k)
        gij = _fix_unit_root(raw / root, k)
        conj_res = _conjugation_residual(phi, gij)
        report.add("conjugation_recovered", conj_res <= tol.eps_structural * 1000,
                   conj_res, location=f"edge {key}",
                   detail=f"det = 1 via principal {k}-th root; residual unit-root "
                          "phase fixed on the leading entry")
        g[key] = gij
    bundle = TwistedBundle(a.nerve, k, g)
    for tri in a.nerve.triangles:
        lam, res = bundle._scalar_defect(*tri)
        report.add("twist_scalar_defect", res <= tol.eps_structural * 1000, res,
                   location=f"triangle {tri}", detail=f"lambda={lam:.6g}")
    return bundle, report


def _fix_unit_root(g: np.ndarray, k: int) -> np.ndarray:
    """det(g) = 1 leaves a k-th root of unity free; choose the one putting
    the argument of the leading entry (first row-major entry of near-maximal
    modulus) in (-pi/k, pi/k]: the unique integer m with
    arg(lead) + 2 pi m / k in that interval is floor(1/2 - k arg(lead) / 2 pi)."""
    modulus = np.abs(g.reshape(-1))
    lead = g.reshape(-1)[np.argmax(modulus >= 0.5 * np.max(modulus))]
    m = int(np.floor(0.5 - k * np.angle(lead) / (2 * np.pi))) % k
    return np.exp(2j * np.pi * m / k) * g


def _conjugation_residual(phi: np.ndarray, g: np.ndarray) -> float:
    """max |phi - kron(g, g^{-T})|: X -> g X g^{-1} on row-major vec(X)."""
    return float(np.max(np.abs(phi - np.kron(g, np.linalg.inv(g).T))))


# -- twisted Picard group ----------------------------------------------------


def tpic_mul(l: TwistedBundle, k: TwistedBundle) -> TwistedBundle:
    """Product of twisted line classes: tensor."""
    if l.rank != 1 or k.rank != 1:
        raise ShapeMismatch("twisted Picard classes are rank-1 bundles")
    return tensor(l, k)


def tpic_inv(l: TwistedBundle) -> TwistedBundle:
    """Inverse class: dual(L) (x) dual(L (x) dual(L)); the second factor is
    the ordinary line L (x) L^*."""
    if l.rank != 1:
        raise ShapeMismatch("twisted Picard classes are rank-1 bundles")
    ordinary = tensor(l, dual(l))
    return tensor(dual(l), dual(ordinary))


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
        if abs(lam - 1.0) > tol.eps_structural * 100:
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
