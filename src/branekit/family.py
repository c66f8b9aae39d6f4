"""Families of Frobenius algebras over a finite chart nerve.

The "manifold" is discretized: a nerve of charts, each holding its ordered
sample points (at least one) as one (k, coords) complex array, with one
coordinate count per nerve; edges and triangles record which charts overlap
(they must share sample points exactly).  The nerve gives every distinct
point one integer id (`Nerve.point_ids`, one per sample), finds the shared
points of each edge and triangle once, as rows of sample indices, and stacks
every sample into one cached (N, coords) array with chart offsets; the point
gather, tracking and transitions read those.
A polynomial potential induces an algebra on every point via its third
derivatives and a constant flat metric (the WDVV condition is its
associativity).  The algebra depends on the point, not on the charts that
list it: a family holds one algebra per distinct point, as one (M, n, n, n)
stack in point-id order, and every step from potential to idempotents works
on that stack; per-sample values are gathered from it by point id.

When every pointwise algebra is semisimple, the idempotents form n sheets
over each chart.  Tracking them by nearest-neighbour matching (with a safety
margin) yields sheet frames, one (N, n, n) stack in sample order, cross-chart
transition permutations, and loop monodromy: the finite shadow of the spectral
cover of the family.  Tracking matches all consecutive raw samples in one
(P, n, n) distance stack and composes the per-step permutations into track
order; the transitions match every (edge, shared point) pair of
`Nerve.shared` in the frame stack as well.  Edge data (cover permutations,
BDR edges, twisted transitions) is keyed by ordered chart pairs and read
through one `EdgeIndex`; each holder inverts a pair stored reversed its own way.
"""

import numpy as np

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, permutations, repeat

from .errors import (
    AmbiguousMatching,
    AmbiguousTracking,
    Degenerate,
    DegenerateWeight,
    InputError,
    NonUnit,
    NotSemisimple,
    NotSemisimpleAtPoint,
    WDVVViolation,
)
from .frobenius import FrobeniusAlgebra, canonical_order, idempotent_stack, law_residuals
from .poly import Polynomial
from .report import CheckReport
from .tolerances import DEFAULT_TOL, MATCH_MARGIN, Tolerance, singular_ratio

# Stacked temporaries are built in blocks of at most this many bytes, the
# largest temporary of the per-edge loops they replace (the (k,) * 6 product
# of one k = 4 edge map).  A freed array above glibc's mmap threshold (128 KiB
# at start) raises that threshold, and the heap left behind then shows in
# the peak RSS of later jobs.
BLOCK_BYTES = 1 << 16


def blocks(count: int, item_bytes: int) -> list:
    """Slices covering range(count), each spanning at most BLOCK_BYTES of
    items of `item_bytes` (one item at least)."""
    size = max(1, BLOCK_BYTES // item_bytes)
    return [slice(i, i + size) for i in range(0, count, size)]


@dataclass(frozen=True, eq=False)
class Chart:
    id: str
    samples: np.ndarray  # (k, coords) complex: row j is sample point j

    def __post_init__(self):
        try:
            samples = np.asarray(self.samples, dtype=complex)  # no copy of a complex array
        except (TypeError, ValueError) as exc:  # ragged rows, or an entry that is no number
            raise InputError(f"chart {self.id}: samples must be a nonempty (k, coords) "
                             f"array of numbers") from exc
        if samples.ndim != 2 or not len(samples):
            raise InputError(f"chart {self.id}: samples must be a nonempty (k, coords) "
                             f"array, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)


class Nerve:
    """Charts with ordered samples, plus edges / triangles / quadruples.

    A nerve has at least one chart, and every sample of a nerve has the same
    number of coordinates; the first chart that differs raises.  Overlaps are
    identified by exact sample-point equality: an edge (a, b) must have at
    least one point present in both charts, a triangle a point present in all
    three.  `shared` maps every edge and triangle to its shared points, found
    once: one row per sample of the first chart (in its order) that every
    other chart lists too, holding that point's first index in each chart of
    the simplex.  `point_ids` gives each sample the integer id of its point.
    """

    def __init__(self, charts, edges=(), triangles=(), quadruples=()):
        self.charts = {c.id: c for c in charts}
        if len(self.charts) != len(charts):
            raise InputError("duplicate chart ids")
        if not charts:
            raise InputError("a nerve needs at least one chart")
        width = charts[0].samples.shape[1]
        for c in charts:
            if c.samples.shape[1] != width:
                raise InputError(f"chart {c.id} has {c.samples.shape[1]} coordinates per "
                                 f"sample, chart {charts[0].id} has {width}")
        self.chart_order = [c.id for c in charts]
        self.edges = [tuple(e) for e in edges]
        self.triangles = [tuple(t) for t in triangles]
        self.quadruples = [tuple(q) for q in quadruples]
        self.shared = self._check_simplices()

    @classmethod
    def _checked(cls, charts, edges, triangles, quadruples, shared) -> "Nerve":
        """A nerve from parts its caller knows to pass the constructor's
        checks, with `shared` holding the rows of each edge and triangle."""
        nerve = object.__new__(cls)
        nerve.charts = {c.id: c for c in charts}
        nerve.chart_order = [c.id for c in charts]
        nerve.edges, nerve.triangles, nerve.quadruples = edges, triangles, quadruples
        nerve.shared = shared
        return nerve

    def _check_simplices(self) -> dict:
        """Raise InputError at the first bad simplex (edges, then triangles,
        then quadruples, each in order), else return the shared rows, found
        by `point_ids`."""
        pids = self.point_ids.tolist()
        point_ids, first = {}, {}
        for cid, start, stop in zip(self.chart_order, self.offsets, self.offsets[1:]):
            point_ids[cid] = chart = pids[start:stop]
            first[cid] = dict(zip(reversed(chart), range(len(chart) - 1, -1, -1)))
        shared = {}
        for kind, simplices, size, overlap in (("edge", self.edges, 2, "shared"),
                                               ("triangle", self.triangles, 3, "common"),
                                               ("quadruple", self.quadruples, 4, None)):
            for s in simplices:
                if len(s) != size or not all(map(self.charts.__contains__, s)):
                    raise InputError(f"bad {kind} {s}")
                if overlap and s not in shared:
                    firsts = [first[x] for x in s]
                    common = firsts[1].keys()
                    for f in firsts[2:]:
                        common &= f.keys()
                    shared[s] = tuple([tuple([f[p] for f in firsts])
                                       for p in point_ids[s[0]] if p in common])
                    if not shared[s]:
                        raise InputError(f"{kind} {s} has no {overlap} sample point")
        return shared

    @cached_property
    def point_ids(self) -> np.ndarray:
        """(N,) intp: the id of each sample's point, in chart order, with ids
        numbered in order of first occurrence.  One dict keyed by the point's
        tuple of Python complex gives them, so equality is exact: 0.0 == -0.0,
        and a NaN equals nothing."""
        ids = {}
        return np.array([ids.setdefault(p, len(ids)) for p in map(tuple, self.points.tolist())],
                        dtype=np.intp)

    @cached_property
    def point_first(self) -> np.ndarray:
        """(M,) intp: the first sample of each point id, ascending; a sample is
        its point's first exactly where the running maximum of the ids grows."""
        return np.flatnonzero(np.diff(np.maximum.accumulate(self.point_ids), prepend=-1))

    @cached_property
    def offsets(self) -> list:
        """Index of each chart's first sample in chart order, then the total."""
        return list(accumulate((len(self.charts[cid].samples) for cid in self.chart_order),
                               initial=0))

    @cached_property
    def points(self) -> np.ndarray:
        """Every sample in chart order as one (N, coords) array; chart k's
        rows run from offsets[k] to offsets[k + 1]."""
        points = np.concatenate([self.charts[cid].samples for cid in self.chart_order])
        points.flags.writeable = False  # cached: every caller gets this one array
        return points

    def sample_key(self, k) -> tuple:
        """(chart_id, sample_index) of sample k in chart order."""
        chart = bisect_right(self.offsets, k) - 1
        return self.chart_order[chart], int(k) - self.offsets[chart]

    @cached_property
    def chart_row(self) -> dict:  # chart id -> its position in chart order
        return {cid: k for k, cid in enumerate(self.chart_order)}

    @cached_property
    def triangle_row(self) -> dict:  # triangle -> its (last) row in triangle order
        return {tri: t for t, tri in enumerate(self.triangles)}


class EdgeIndex:
    """Rows of a holder's data on a nerve, row e on the chart pair keys[e].
    The first bad key in input order raises: a row the holder refuses
    (`refused[e]`, as `refusal(key)`), a key not naming two charts, a key
    given twice; then the first nerve edge held in neither orientation."""

    def __init__(self, nerve: Nerve, keys, noun: str, refused=None, refusal=None):
        self._codes = codes = {}  # 2 e at the key of row e, 2 e + 1 at its unstored reverse
        for e, (key, bad) in enumerate(zip(keys, refused or repeat(False))):
            if bad:
                raise refusal(key)
            if len(key) != 2 or not all(map(nerve.charts.__contains__, key)):
                raise InputError(f"{noun} {key} names unknown charts")
            if codes.get(key, 1) % 2 == 0:
                raise InputError(f"{noun} {key} is given twice")
            codes[key] = 2 * e
            codes.setdefault(key[::-1], 2 * e + 1)
        for edge in nerve.edges:
            if edge not in codes:
                raise InputError(f"no {noun} data for edge {edge}")

    def rows(self, pairs) -> tuple:
        """(rows, flipped) over ordered pairs (a, b), as (N,) arrays: the row
        of a stored (a, b), else (flipped) of a stored (b, a), else -1."""
        codes = np.fromiter(map(self._codes.get, pairs, repeat(-2)), np.intp, len(pairs))
        return codes >> 1, (codes & 1).astype(bool)


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
    """The algebras at the nerve's distinct points (shared flat basis), row m
    at the point of id m (`Nerve.point_ids`); the algebra at sample k is row
    nerve.point_ids[k]."""

    nerve: Nerve
    c: np.ndarray      # (M, n, n, n) structure constants
    unit: np.ndarray   # (M, n)
    trace: np.ndarray  # (M, n)


def raise_index(c3, metric, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """c_ab^k = sum_l c3_abl g^{lk} for a stack of 3-tensors (..., n, n, n); the
    metric is checked (symmetry, conditioning) and inverted once per stack."""
    g = np.asarray(metric, dtype=complex)
    if not tol.passes("flat_metric_symmetric", np.max(np.abs(g - g.T)), 1 + np.max(np.abs(g))):
        raise InputError("metric must be symmetric")
    if not tol.passes("flat_metric_nondegenerate", singular_ratio(g)):
        raise Degenerate("flat metric is singular")
    return np.einsum("...abl,lk->...abk", np.asarray(c3, dtype=complex), np.linalg.inv(g))


def algebra_from_three_point(c3, metric, unit_direction,
                             tol: Tolerance = DEFAULT_TOL) -> FrobeniusAlgebra:
    """One algebra from a symmetric 3-tensor: `raise_index`, unit
    e = b_{unit_direction} and trace theta(x) = g(e, x)."""
    return FrobeniusAlgebra(raise_index(c3, metric, tol), np.eye(len(metric))[unit_direction],
                            np.asarray(metric)[unit_direction])


def from_potential(p: PotentialFamily, nerve: Nerve,
                   tol: Tolerance = DEFAULT_TOL) -> AlgebraFamily:
    """Algebra at each distinct point of the nerve from the third derivatives
    of the potential, each evaluated once over those points.  Raises
    InputError (flat metric not symmetric), NonUnit at the first sample in
    chart order whose unit direction is not a unit, else WDVVViolation
    listing every sample, in chart order, whose point fails associativity."""
    n, g = p.n, p.flat_metric
    first = nerve.point_first
    points = nerve.points[first]
    c3 = np.zeros((len(first), n, n, n), dtype=complex)
    for ijk in combinations_with_replacement(range(n), 3):
        val = p.potential.diff(ijk[0]).diff(ijk[1]).diff(ijk[2])(points)
        for perm in set(permutations(ijk)):
            c3[(slice(None),) + perm] = val
    c = raise_index(c3, g, tol)
    unit = np.broadcast_to(np.eye(n, dtype=complex)[p.unit_direction], (len(first), n))
    trace = np.broadcast_to(g[p.unit_direction], (len(first), n))
    unit_res, left, _, assoc, _ = law_residuals(c, unit)
    bad = ~(np.all(np.isfinite(c), axis=(1, 2, 3)) & tol.passes(
        "unit_direction", unit_res, np.maximum(1.0, np.max(np.abs(c), axis=(1, 2, 3)))))
    if bad.any():  # ids run in first-occurrence order: the first bad id's first sample
        m = int(np.argmax(bad))
        FrobeniusAlgebra(c[m], unit[m], trace[m])  # ShapeMismatch if c[m] is not finite
        cid, idx = nerve.sample_key(first[m])
        raise NonUnit(f"unit direction {p.unit_direction} is not a unit at "
                      f"{cid}[{idx}] (residual {unit_res[m]:.3e})")
    scale = np.maximum(1.0, left)
    wdvv = ~tol.passes("wdvv_associativity", assoc, scale)
    if wdvv.any():
        failing = np.flatnonzero(wdvv[nerve.point_ids])  # every sample of a failing point
        raise WDVVViolation([nerve.sample_key(k) + (float(assoc[m]), float(scale[m]))
                             for k, m in zip(failing, nerve.point_ids[failing])])
    return AlgebraFamily(nerve, c, unit, trace)


def family_from_function(nerve: Nerve, builder) -> AlgebraFamily:
    """Family with the algebra at each distinct point from a callable taking
    the point's row of `nerve.points` (its first sample's) to a
    FrobeniusAlgebra, called once per point."""
    algs = [builder(point) for point in nerve.points[nerve.point_first]]
    return AlgebraFamily(nerve, *(np.stack([getattr(a, name) for a in algs])
                                  for name in ("c", "unit", "trace")))


@dataclass
class ChartFrames:
    """Idempotent coordinates and weights along each sheet track, at every
    sample in chart order.

    frames[k] is an (n, n) array whose row i is the coordinate vector of sheet
    i's idempotent at sample k; weights[k, i] is theta(e_i) there.  Chart k of
    the nerve owns rows offsets[k]:offsets[k + 1] of both (`Nerve.offsets`).
    """

    frames: np.ndarray   # (N, n, n)
    weights: np.ndarray  # (N, n)


def idempotent_frames(family: AlgebraFamily, tol: Tolerance = DEFAULT_TOL,
                      seed: int = 0) -> ChartFrames:
    """Continuous idempotent tracks per chart, from one `idempotent_stack`
    call over the family's distinct points, gathered by point id into one
    stack in sample order.

    The first sample of a chart uses the canonical ordering; each later
    sample is matched to its predecessor by nearest coordinates, rejecting
    the match when the second-nearest candidate is within the safety margin.
    Every pair of consecutive raw samples is matched in one stack, and the
    steps compose into track order: order[s][i] = step[s][order[s - 1][i]].
    The first failing sample in chart order raises: NotSemisimpleAtPoint (with
    the single algebra's diagnostics), DegenerateWeight (with the sample's
    point) or AmbiguousTracking (naming the sheet by its track index)."""
    idem, weights, failed = idempotent_stack(family.c, family.unit, family.trace, tol, seed)
    nerve = family.nerve
    pids = nerve.point_ids
    offsets = np.array(nerve.offsets)
    starts, sizes = offsets[:-1], np.diff(offsets)
    first = np.repeat(starts, sizes)  # first sample of each sample's chart
    samples = np.arange(len(first))
    later = np.flatnonzero(samples > first)
    # step[k - 1]: rows of raw sample k nearest to the rows of raw sample k - 1
    step, ranked, ambiguous, ok = _match_rows(idem, pids[:-1], pids[1:])
    order = np.empty((len(pids), weights.shape[1]), dtype=np.intp)
    order[later] = step[later - 1]
    for k in starts:
        order[k] = canonical_order(idem[pids[k]], weights[pids[k]])
    span = 1  # order[k] composes the steps of the `span` samples up to k
    while (joined := np.flatnonzero(samples - span >= first)).size:
        order[joined] = np.take_along_axis(order[joined], order[joined - span], axis=1)
        span *= 2
    # a failed point fails first at its first sample
    stops = set(nerve.point_first[list(failed)].tolist()) | set(later[~ok[later - 1]].tolist())
    if stops:
        k = min(stops)
        where = nerve.sample_key(k)
        exc = failed.get(pids[k])
        if isinstance(exc, NotSemisimple):
            raise NotSemisimpleAtPoint(where, str(exc)) from exc
        if isinstance(exc, DegenerateWeight):
            raise DegenerateWeight(str(exc), exc.weight, where) from exc
        if exc is not None:
            raise exc
        raise _match_failure(AmbiguousTracking, "%s[%s]" % where, ranked[k - 1],
                             ambiguous[k - 1], order[k - 1])
    rows = pids[:, None], order  # sample k's track i is row order[k, i] of its point
    return ChartFrames(idem[rows], weights[rows])


class SpectralCoverGraph:
    """Sheet tracks per chart plus the transition permutation on each edge:
    sheet i of chart a is sheet u[i] of chart b, for (a, b) = keys[e] and u
    row e of the (E, n) integer stack `transitions`."""

    def __init__(self, nerve: Nerve, frames: ChartFrames, keys, transitions):
        self.nerve, self.frames = nerve, frames
        self.keys = [tuple(key) for key in keys]
        self.index = EdgeIndex(nerve, self.keys, "permutation")
        self.transitions = np.asarray(transitions, dtype=np.intp)
        self.n = self.transitions.shape[1]

    def perms(self, pairs) -> np.ndarray:
        """The transition along each ordered pair, as one (N, n) stack: the stored
        row, else the argsort of the stored reverse; InputError at any other."""
        rows, flipped = self.index.rows(pairs)
        if (rows < 0).any():
            a, b = pairs[int(np.argmin(rows))]
            raise InputError(f"no edge between charts {a} and {b}")
        out = self.transitions[rows]
        out[flipped] = np.argsort(out[flipped], axis=1)
        return out


def perm_cycles(u) -> str:
    """Cycle notation on 1-based sheet indices; identity prints as '()'."""
    seen, cycles = set(), []
    for i in range(len(u)):
        cyc = []
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = u[i]
        if len(cyc) > 1:
            cycles.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) or "()"


def transition_permutations(frames: ChartFrames, nerve: Nerve) -> SpectralCoverGraph:
    """Match sheet frames across every edge on its shared sample points
    (`Nerve.shared`), in one stack over every (edge, shared point) pair; a
    repeated edge is matched once.  The first failing pair in (edge, point)
    order raises AmbiguousMatching."""
    keys = list(dict.fromkeys(nerve.edges))
    offsets, row = nerve.offsets, nerve.chart_row
    pairs = [(e, offsets[row[a]] + i, offsets[row[b]] + j) for e, (a, b) in enumerate(keys)
             for i, j in nerve.shared[(a, b)]]
    edge, ia, ib = np.array(pairs, dtype=np.intp).reshape(-1, 3).T
    order, ranked, ambiguous, ok = _match_rows(frames.frames, ia, ib)
    head = np.searchsorted(edge, np.arange(len(keys)))  # each edge's first pair
    same = np.all(order == order[head[edge]], axis=1)
    bad = np.flatnonzero(~(ok & same))
    if bad.size:
        p = bad[0]
        a, b = keys[edge[p]]
        if not ok[p]:
            point = tuple(nerve.points[ia[p]].tolist())
            raise _match_failure(AmbiguousMatching, f"edge {(a, b)} at {point}",
                                 ranked[p], ambiguous[p], np.arange(order.shape[1]))
        raise AmbiguousMatching(f"edge {(a, b)}: sheet matching differs between shared points")
    return SpectralCoverGraph(nerve, frames, keys, order[head])


def _match_rows(frames, ref, cur):
    """Nearest-coordinate row matching of frames[ref[p]] against frames[cur[p]]
    for every p, with `frames` a (N, n, n) stack and `ref`, `cur` index arrays.

    order[p, i] is the row of frames[cur[p]] nearest (max-norm) to row i of
    frames[ref[p]]; ranked[p, i] holds the distances of that row to every
    candidate, ascending.  A row is ambiguous when its second-best match is
    closer than MATCH_MARGIN times its best; ok[p] is False when some row is
    ambiguous or two rows claim the same target.  The distances are taken in
    blocks of at most BLOCK_BYTES of complex differences.
    """
    num, n = len(ref), frames.shape[1]
    dist = np.empty((num, n, n))
    for block in blocks(num, 16 * n ** 3):  # max_k |ref[p, i, k] - cur[p, j, k]|
        diff = frames[ref[block], :, None] - frames[cur[block], None]
        dist[block] = np.max(np.abs(diff), axis=3)
    order = np.argmin(dist, axis=2)
    ranked = np.sort(dist, axis=2)  # best, second best, ... match of each row
    ambiguous = np.any(ranked[..., 1:2] < MATCH_MARGIN * ranked[..., :1], axis=2)
    bijective = np.all(np.sort(order, axis=1) == np.arange(n), axis=1)
    return order, ranked, ambiguous, bijective & ~np.any(ambiguous, axis=1)


def _match_failure(exc_type, where, ranked, ambiguous, rows):
    """The exception of one failed match: the first ambiguous row in `rows`
    order (row i of the message is row rows[i] of `ranked`), else the
    non-bijection."""
    hits = np.flatnonzero(ambiguous[rows])
    if hits.size:
        i = hits[0]
        r = rows[i]
        return exc_type(f"{where}: ambiguous match for sheet {i} "
                        f"(best {ranked[r, 0]:.3e}, second {ranked[r, 1]:.3e})")
    return exc_type(f"{where}: matching is not a bijection")


def check_cocycle(cover: SpectralCoverGraph) -> CheckReport:
    """Triangle law: u_bg o u_ab = u_ag for every triangle of the nerve."""
    report = CheckReport()
    triangles = cover.nerve.triangles
    sides = cover.perms([(t[x], t[y]) for t in triangles for x, y in ((0, 1), (1, 2), (0, 2))])
    u_ab, u_bg, u_ag = sides.reshape(len(triangles), 3, cover.n).transpose(1, 0, 2)
    agree = np.all(np.take_along_axis(u_bg, u_ab, axis=1) == u_ag, axis=1).tolist()
    for tri, ok, ab, bg, ag in zip(triangles, agree, u_ab.tolist(), u_bg.tolist(), u_ag.tolist()):
        report.add("cocycle_triangle", ok, 0.0 if ok else 1.0, location=f"triangle {tri}",
                   detail=f"u_ab={tuple(ab)} u_bg={tuple(bg)} u_ag={tuple(ag)}")
    if not triangles:
        report.add("cocycle_triangle", True, 0.0, detail="no triangles; vacuous")
    return report


def monodromy(cover: SpectralCoverGraph, loop) -> tuple:
    """Ordered composition of edge permutations around a closed chart loop."""
    loop = list(loop)
    if len(loop) < 2 or loop[0] != loop[-1]:
        raise InputError("loop must be closed (first chart == last chart)")
    perm = np.arange(cover.n)
    for step in cover.perms(list(zip(loop[:-1], loop[1:]))):
        perm = step[perm]  # first perm, then step
    return tuple(perm.tolist())
