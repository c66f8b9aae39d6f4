"""Families of Frobenius algebras over a finite chart nerve.

The "manifold" is discretized: a nerve of charts, each with an ordered list
of sample points; edges and triangles record which charts overlap (they must
share sample points exactly).  A polynomial potential induces an algebra on
every sample point via its third derivatives and a constant flat metric; the
associativity of that product is the WDVV condition and is checked pointwise.

When every pointwise algebra is semisimple, the idempotents form n sheets
over each chart.  Tracking them by nearest-neighbour matching (with a safety
margin) yields per-chart frames, cross-chart transition permutations, and
loop monodromy: the finite shadow of the spectral cover of the family.
"""

import numpy as np

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .errors import (
    AmbiguousMatching,
    AmbiguousTracking,
    Degenerate,
    InputError,
    NonUnit,
    NotSemisimple,
    NotSemisimpleAtPoint,
    WDVVViolation,
)
from .frobenius import FrobeniusAlgebra
from .poly import Polynomial
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance, singular_ratio

# second-nearest neighbour must be at least this factor away for a match
_MATCH_MARGIN = 2.0


@dataclass(frozen=True)
class Chart:
    id: str
    samples: tuple  # tuple of sample points, each a tuple of complex coords

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           tuple(tuple(complex(x) for x in p) for p in self.samples))


class Nerve:
    """Charts with ordered samples, plus edges / triangles / quadruples.

    Overlaps are identified by exact sample-point equality: an edge (a, b)
    must have at least one point present in both charts, a triangle a point
    present in all three.
    """

    def __init__(self, charts, edges=(), triangles=(), quadruples=()):
        self.charts = {c.id: c for c in charts}
        if len(self.charts) != len(charts):
            raise InputError("duplicate chart ids")
        self.chart_order = [c.id for c in charts]
        self.edges = [tuple(e) for e in edges]
        self.triangles = [tuple(t) for t in triangles]
        self.quadruples = [tuple(q) for q in quadruples]
        for e in self.edges:
            if len(e) != 2 or not all(x in self.charts for x in e):
                raise InputError(f"bad edge {e}")
            if not self.shared_points(*e):
                raise InputError(f"edge {e} has no shared sample point")
        for t in self.triangles:
            if len(t) != 3 or not all(x in self.charts for x in t):
                raise InputError(f"bad triangle {t}")
            if not self.common_points(t):
                raise InputError(f"triangle {t} has no common sample point")
        for q in self.quadruples:
            if len(q) != 4 or not all(x in self.charts for x in q):
                raise InputError(f"bad quadruple {q}")

    def shared_points(self, a, b):
        sb = set(self.charts[b].samples)
        return [p for p in self.charts[a].samples if p in sb]

    def common_points(self, ids):
        common = set(self.charts[ids[0]].samples)
        for x in ids[1:]:
            common &= set(self.charts[x].samples)
        # deterministic order: as listed in the first chart
        return [p for p in self.charts[ids[0]].samples if p in common]

    def edge_set(self):
        return {tuple(e) for e in self.edges}


@dataclass(frozen=True)
class PotentialFamily:
    """Polynomial potential + constant flat metric + choice of unit direction."""

    n: int
    potential: Polynomial
    flat_metric: np.ndarray
    unit_direction: int

    def __post_init__(self):
        g = np.asarray(self.flat_metric, dtype=complex)
        if g.shape != (self.n, self.n):
            raise InputError(f"metric must be {self.n}x{self.n}")
        object.__setattr__(self, "flat_metric", g)
        if self.potential.nvars != self.n:
            raise InputError("potential variable count != n")
        if not (0 <= self.unit_direction < self.n):
            raise InputError("unit_direction out of range")


@dataclass
class AlgebraFamily:
    nerve: Nerve
    # (chart_id, sample_index) -> FrobeniusAlgebra, all in the shared flat basis
    algebras: dict

    @property
    def n(self) -> int:
        return next(iter(self.algebras.values())).dim


def algebra_from_three_point(c3, metric, unit_direction,
                             tol: Tolerance = DEFAULT_TOL) -> FrobeniusAlgebra:
    """Raise an index of the symmetric 3-tensor with the inverse metric:
    c_ab^k = sum_l c3_abl g^{lk}; trace theta(x) = g(e, x)."""
    c3 = np.asarray(c3, dtype=complex)
    g = np.asarray(metric, dtype=complex)
    n = g.shape[0]
    if not tol.passes("flat_metric_nondegenerate", singular_ratio(g)):
        raise Degenerate("flat metric is singular")
    ginv = np.linalg.inv(g)
    c = np.einsum("abl,lk->abk", c3, ginv)
    unit = np.zeros(n, dtype=complex)
    unit[unit_direction] = 1.0
    return FrobeniusAlgebra(c, unit, g[unit_direction])


def from_potential(p: PotentialFamily, nerve: Nerve,
                   tol: Tolerance = DEFAULT_TOL) -> AlgebraFamily:
    """Algebra at each sample point from the third derivatives of the
    potential.  Raises NonUnit if the declared unit direction is not a unit,
    WDVVViolation listing every sample point where associativity fails, and
    InputError if the flat metric is not symmetric."""
    n, g = p.n, p.flat_metric
    asym = np.max(np.abs(g - g.T))
    if not tol.passes("flat_metric_symmetric", asym, 1 + np.max(np.abs(g))):
        raise InputError("metric must be symmetric")
    derivs = {(i, j, k): p.potential.diff(i).diff(j).diff(k)
              for i, j, k in combinations_with_replacement(range(n), 3)}

    algebras = {}
    bad_points = []
    for cid in nerve.chart_order:
        chart = nerve.charts[cid]
        for idx, point in enumerate(chart.samples):
            c3 = np.zeros((n, n, n), dtype=complex)
            for ijk, d in derivs.items():
                val = d(point)
                for perm in set(permutations(ijk)):
                    c3[perm] = val
            alg = algebra_from_three_point(c3, g, p.unit_direction, tol)
            unit_res = float(np.max(np.abs(alg.mult_operator(alg.unit) - np.eye(n))))
            scale = max(1.0, float(np.max(np.abs(alg.c))))
            if not tol.passes("unit_direction", unit_res, scale):
                raise NonUnit(f"unit direction {p.unit_direction} is not a unit at "
                              f"{cid}[{idx}] (residual {unit_res:.3e})")
            left = np.einsum("ijm,mkl->ijkl", alg.c, alg.c)
            right = np.einsum("jkm,iml->ijkl", alg.c, alg.c)
            assoc = float(np.max(np.abs(left - right)))
            scale = max(1.0, float(np.max(np.abs(left))))
            if not tol.passes("wdvv_associativity", assoc, scale):
                bad_points.append((cid, idx, assoc, scale))
            algebras[(cid, idx)] = alg
    if bad_points:
        raise WDVVViolation(bad_points)
    return AlgebraFamily(nerve, algebras)


def family_from_function(nerve: Nerve, builder) -> AlgebraFamily:
    """Family with the algebra at each sample supplied by a callable
    point -> FrobeniusAlgebra (test fixtures, hand-built families)."""
    algebras = {}
    for cid in nerve.chart_order:
        for idx, point in enumerate(nerve.charts[cid].samples):
            algebras[(cid, idx)] = builder(point)
    return AlgebraFamily(nerve, algebras)


@dataclass
class ChartFrames:
    """Per chart: idempotent coordinates and weights along each sheet track.

    frames[cid][s] is an (n, n) array whose row i is the coordinate vector of
    sheet i's idempotent at sample s; weights[cid][s][i] is theta(e_i) there.
    """

    frames: dict
    weights: dict

    @property
    def n(self) -> int:
        first = next(iter(self.frames.values()))
        return first[0].shape[0]


def idempotent_frames(family: AlgebraFamily, tol: Tolerance = DEFAULT_TOL,
                      seed: int = 0) -> ChartFrames:
    """Continuous idempotent tracks per chart.

    The first sample of a chart uses the canonical ordering; each later
    sample is matched to its predecessor by nearest coordinates, rejecting
    the match when the second-nearest candidate is within the safety margin.
    """
    frames = {}
    weights = {}
    for cid in family.nerve.chart_order:
        chart = family.nerve.charts[cid]
        track_frames = []
        track_weights = []
        prev = None
        for idx in range(len(chart.samples)):
            alg = family.algebras[(cid, idx)]
            try:
                basis = alg.idempotent_basis(tol, seed)
            except NotSemisimple as exc:
                raise NotSemisimpleAtPoint((cid, idx), str(exc)) from exc
            idem, w = basis.idempotents, basis.weights
            if prev is not None:
                order = _match_rows(prev, idem, f"{cid}[{idx}]", AmbiguousTracking)
                idem, w = idem[order], w[order]
            track_frames.append(idem)
            track_weights.append(w)
            prev = idem
        frames[cid] = track_frames
        weights[cid] = track_weights
    return ChartFrames(frames, weights)


@dataclass
class SpectralCoverGraph:
    """Sheet tracks per chart plus the transition permutation on each edge:
    sheet i of chart a is sheet u[i] of chart b, for u = transitions[(a, b)]."""

    n: int
    nerve: Nerve
    frames: ChartFrames
    transitions: dict  # (a, b) -> tuple u with e_i^a = e_{u(i)}^b

    def permutation(self, a, b):
        """Transition along (a, b), inverting a stored (b, a) if needed."""
        if (a, b) in self.transitions:
            return self.transitions[(a, b)]
        if (b, a) in self.transitions:
            return invert_perm(self.transitions[(b, a)])
        raise InputError(f"no edge between charts {a} and {b}")


def invert_perm(u):
    inv = [0] * len(u)
    for i, j in enumerate(u):
        inv[j] = i
    return tuple(inv)


def compose_perms(u, v):
    """First u, then v: (v o u)[i] = v[u[i]]."""
    return tuple(v[u[i]] for i in range(len(u)))


def perm_cycles(u) -> str:
    """Cycle notation on 1-based sheet indices; identity prints as '()'."""
    seen = [False] * len(u)
    cycles = []
    for i in range(len(u)):
        if seen[i] or u[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = u[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = u[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def transition_permutations(frames: ChartFrames, nerve: Nerve) -> SpectralCoverGraph:
    """Match sheet frames across every edge on its shared sample points."""
    transitions = {}
    for (a, b) in nerve.edges:
        shared = nerve.shared_points(a, b)
        perm = None
        for point in shared:
            ia = nerve.charts[a].samples.index(point)
            ib = nerve.charts[b].samples.index(point)
            fa = frames.frames[a][ia]
            fb = frames.frames[b][ib]
            u = tuple(_match_rows(fa, fb, f"edge {(a, b)} at {point}",
                                  AmbiguousMatching))
            if perm is None:
                perm = u
            elif perm != u:
                raise AmbiguousMatching(
                    f"edge {(a, b)}: sheet matching differs between shared points")
        transitions[(a, b)] = perm
    return SpectralCoverGraph(frames.n, nerve, frames, transitions)


def _match_rows(ref, cur, where, exc_type):
    """Row order of `cur` that aligns it with `ref`, by nearest coordinates.

    Rejects the assignment when some row's second-best match is closer than
    _MATCH_MARGIN times its best, or when two rows claim the same target.
    """
    n = ref.shape[0]
    dist = np.max(np.abs(ref[:, None] - cur[None]), axis=2)  # max_k |ref[i, k] - cur[j, k]|
    order = []
    for i in range(n):
        row = dist[i]
        j = int(np.argmin(row))
        if n > 1:
            second = float(np.partition(row, 1)[1])
            if second < _MATCH_MARGIN * row[j]:
                raise exc_type(f"{where}: ambiguous match for sheet {i} "
                               f"(best {row[j]:.3e}, second {second:.3e})")
        order.append(j)
    if len(set(order)) != n:
        raise exc_type(f"{where}: matching is not a bijection")
    return order


def check_cocycle(cover: SpectralCoverGraph) -> CheckReport:
    """Triangle law: u_bg o u_ab = u_ag for every triangle of the nerve."""
    report = CheckReport()
    for (a, b, g) in cover.nerve.triangles:
        u_ab = cover.permutation(a, b)
        u_bg = cover.permutation(b, g)
        u_ag = cover.permutation(a, g)
        composed = compose_perms(u_ab, u_bg)
        report.add("cocycle_triangle", composed == u_ag,
                   0.0 if composed == u_ag else 1.0,
                   location=f"triangle {(a, b, g)}",
                   detail=f"u_ab={u_ab} u_bg={u_bg} u_ag={u_ag}")
    if not cover.nerve.triangles:
        report.add("cocycle_triangle", True, 0.0, detail="no triangles; vacuous")
    return report


def monodromy(cover: SpectralCoverGraph, loop) -> tuple:
    """Ordered composition of edge permutations around a closed chart loop."""
    loop = list(loop)
    if len(loop) < 2 or loop[0] != loop[-1]:
        raise InputError("loop must be closed (first chart == last chart)")
    perm = tuple(range(cover.n))
    for a, b in zip(loop[:-1], loop[1:]):
        perm = compose_perms(perm, cover.permutation(a, b))
    return perm

