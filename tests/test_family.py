import copy
import glob
import json
import os

import numpy as np
import pytest

from branekit.errors import (
    AmbiguousMatching,
    AmbiguousTracking,
    BranekitError,
    DegenerateWeight,
    InputError,
    NonUnit,
    NotSemisimple,
    NotSemisimpleAtPoint,
    WDVVViolation,
)
from branekit.bdr import BDRCocycle
from branekit.family import (
    AlgebraFamily,
    Chart,
    ChartFrames,
    EdgeIndex,
    Nerve,
    PotentialFamily,
    SpectralCoverGraph,
    algebra_from_three_point,
    check_cocycle,
    family_from_function,
    from_potential,
    idempotent_frames,
    monodromy,
    perm_cycles,
    transition_permutations,
)
from branekit.frobenius import (
    FrobeniusAlgebra,
    canonical_order,
    diagonal_algebra,
    idempotent_stack,
    nilpotent_example,
)
from branekit.jsonio import parse_nerve
from branekit.poly import Polynomial
from branekit.spectral import sheet_nerve
from branekit.twisted import TwistedBundle

from conftest import (
    ANTIDIAG,
    circle_loop,
    circle_nerve,
    disk_nerve,
    perfbench_workloads,
    quadratic_potential,
)


def line_nerve(points):
    return Nerve([Chart("c0", tuple(points))])


def sample_keys(nerve):
    """(chart_id, sample_index) of every sample, in chart order."""
    return [(cid, idx) for cid in nerve.chart_order
            for idx in range(len(nerve.charts[cid].samples))]


def family_algebras(family):
    """The algebra at every sample, in chart order: the family's row of the
    sample's point id."""
    pids = family.nerve.point_ids
    return [FrobeniusAlgebra(c, unit, trace)
            for c, unit, trace in zip(family.c[pids], family.unit[pids], family.trace[pids])]


def first_row(nerve, cid):
    """Row of chart `cid`'s first sample in the family's sample stacks."""
    return nerve.offsets[nerve.chart_order.index(cid)]


def point_tuples(nerve, cid):
    """Chart `cid`'s samples as tuples of Python complex, which sets and
    `list.index` compare exactly (0.0 == -0.0)."""
    return list(map(tuple, nerve.charts[cid].samples.tolist()))


def common_points(nerve, ids):
    """Reference: the points of chart ids[0], in its order, that every chart
    of `ids` lists (set intersection of the sample tuples)."""
    common = set(point_tuples(nerve, ids[0]))
    for x in ids[1:]:
        common &= set(point_tuples(nerve, x))
    return [p for p in point_tuples(nerve, ids[0]) if p in common]


def test_polynomial_exact_derivatives():
    phi = Polynomial(2, {(2, 1): 0.5, (0, 4): 1.0 / 24.0})
    d111 = phi.diff(1).diff(1).diff(1)
    assert d111.terms == {(0, 1): 1.0}
    assert abs(phi((2.0, 3.0)) - (0.5 * 4 * 3 + 81 / 24)) < 1e-14


def test_from_potential_one_dimensional():
    phi = Polynomial(1, {(3,): 1.0 / 6.0})
    fam = PotentialFamily(1, phi, [[1.0]], 0)
    nerve = line_nerve([(0.1,), (0.2,), (0.5,)])
    family = from_potential(fam, nerve)
    for alg in family_algebras(family):
        assert alg.dim == 1
        assert abs(alg.c[0, 0, 0] - 1.0) < 1e-14
        assert abs(alg.trace[0] - 1.0) < 1e-14
        assert alg.validate().passed


def test_from_potential_two_dimensional_associative(circle_family):
    family, _ = circle_family
    for alg in family_algebras(family):
        assert alg.validate().passed


def test_random_two_dimensional_potentials_pass():
    rng = np.random.default_rng(0)
    nerve = line_nerve([(0.3, 1.0 + 0.2j), (0.1, 0.8)])
    for _ in range(20):
        terms = {(2, 1): 0.5}
        for e in range(3, 7):
            terms[(0, e)] = complex(rng.standard_normal(), rng.standard_normal())
        phi = Polynomial(2, terms)
        fam = PotentialFamily(2, phi, ANTIDIAG, 0)
        from_potential(fam, nerve)  # no WDVVViolation, no NonUnit


def test_from_potential_non_unit():
    phi = Polynomial(2, {(3, 0): 1.0 / 6.0})
    fam = PotentialFamily(2, phi, ANTIDIAG, 0)
    with pytest.raises(NonUnit):
        from_potential(fam, line_nerve([(1.0, 1.0)]))


def random_unital_three_point(rng, g):
    """Random symmetric 3-tensor whose unit-direction slice matches g."""
    n = g.shape[0]
    c3 = np.zeros((n, n, n), dtype=complex)
    vals = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if i == 0:
                    v = g[j, k]
                else:
                    v = complex(rng.standard_normal(), rng.standard_normal())
                vals[(i, j, k)] = v
    for (i, j, k), v in vals.items():
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            c3[p] = v
    return c3


def einsum_associativity(c):
    """|(b_i b_j) b_k - b_i (b_j b_k)| over all (i, j, k, l), from the full
    (n,n,n,n) tensors."""
    return np.abs(np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c))


def test_random_three_dim_tensor_fails_associativity():
    rng = np.random.default_rng(1)
    g = np.eye(3)
    failures = 0
    for _ in range(50):
        alg = algebra_from_three_point(random_unital_three_point(rng, g), g, 0)
        report = alg.validate()
        by_name = {r.name: r for r in report.records}
        assert by_name["unit"].passed
        assert by_name["commutativity"].passed
        assoc = by_name["associativity"]
        ref = einsum_associativity(alg.c)
        assert abs(assoc.residual - ref.max()) <= 1e-14
        if not assoc.passed:
            failures += 1
            # entries tied in exact arithmetic (commutativity makes several)
            # may order either way under rounding, so any reference argmax counts
            argmaxes = {f"(b_i b_j) b_k at {tuple(int(x) for x in at)}"
                        for at in np.argwhere(ref >= ref.max() - 1e-14)}
            assert assoc.location in argmaxes
    assert failures >= 48


def test_idempotent_frames_constant_family():
    nerve = line_nerve([(0.0,), (1.0,), (2.0,)])
    family = family_from_function(nerve, lambda p: diagonal_algebra([2.0, 3.0]))
    frames = idempotent_frames(family)
    tracks = frames.frames  # the one chart's track
    for s in range(1, 3):
        assert np.max(np.abs(tracks[s] - tracks[0])) < 1e-12


def test_idempotent_frames_quarter_arc_closed_form(circle_family):
    family, nerve = circle_family
    frames = idempotent_frames(family)
    # chart c0 covers theta in [0, pi/4]; tracks are (1 +- x/sqrt(t))/2
    chart = nerve.charts["c0"]
    for s, point in enumerate(chart.samples):
        t = point[1]
        expected = {
            (0.5, 0.5 / np.sqrt(t)),
            (0.5, -0.5 / np.sqrt(t)),
        }
        got = frames.frames[first_row(nerve, "c0") + s]
        for row in got:
            best = min(max(abs(row[0] - e[0]), abs(row[1] - e[1])) for e in expected)
            assert best < 1e-9


def test_frames_fail_at_degenerate_point():
    phi = quadratic_potential()
    nerve = line_nerve([(0.0, 1.0), (0.0, 0.0)])
    family = from_potential(phi, nerve)
    with pytest.raises(NotSemisimpleAtPoint):
        idempotent_frames(family)


def test_transitions_identity_for_identical_frames():
    center = (0.5,)
    nerve = Nerve(
        [Chart("a", ((0.2,), center)), Chart("b", ((0.9,), center))],
        edges=[("a", "b")],
    )
    family = family_from_function(nerve, lambda p: diagonal_algebra([2.0, 5.0]))
    cover = transition_permutations(idempotent_frames(family), nerve)
    assert cover.keys == [("a", "b")] and cover.transitions.tolist() == [[0, 1]]


def test_single_chart_no_transitions(circle_family):
    family, _ = circle_family
    nerve1 = Nerve([Chart("only", (((0.0, 1.0)),))])
    fam1 = family_from_function(nerve1, lambda p: diagonal_algebra([1.0, 2.0]))
    cover = transition_permutations(idempotent_frames(fam1), nerve1)
    assert cover.keys == [] and cover.transitions.shape == (0, 2)


def test_circle_monodromy_is_transposition(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    loop = circle_loop()
    assert monodromy(cover, loop) == (1, 0)
    assert perm_cycles(monodromy(cover, loop)) == "(1 2)"
    # doubled loop is the identity
    doubled = loop + loop[1:]
    assert monodromy(cover, doubled) == (0, 1)
    # trivial loop
    assert monodromy(cover, ["c0", "c1", "c0"]) == (0, 1)


def test_monodromy_stable_under_refinement():
    for m in (4, 8):
        nerve = circle_nerve(samples_per_chart=m)
        family = from_potential(quadratic_potential(), nerve)
        cover = transition_permutations(idempotent_frames(family), nerve)
        assert monodromy(cover, circle_loop()) == (1, 0)


def test_monodromy_requires_closed_loop(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    with pytest.raises(InputError):
        monodromy(cover, ["c0", "c1"])


def test_check_cocycle_on_disk():
    nerve = disk_nerve()
    family = from_potential(quadratic_potential(), nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    report = check_cocycle(cover)
    assert report.passed, str(report)


def test_edge_index_resolves_stored_reversed_and_absent_pairs():
    nerve = Nerve([Chart(c, ((0.0,),)) for c in "abc"], [("a", "b"), ("b", "c")])
    index = EdgeIndex(nerve, [("c", "b"), ("a", "b"), ("b", "a")], "edge")
    rows, flipped = index.rows([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"),
                                ("c", "c")])
    assert rows.tolist() == [1, 2, 0, 0, -1, -1]
    assert flipped.tolist() == [False, False, True, False, False, False]
    assert [a.tolist() for a in index.rows([])] == [[], []]


# each holder of edge data from its keys: (build, noun of its messages)
HOLDERS = {
    "twisted": (lambda nerve, keys: TwistedBundle(nerve, 1, keys, np.ones((len(keys), 1, 1))),
                "transition"),
    "bdr": (lambda nerve, keys: BDRCocycle(nerve, keys, np.ones((len(keys), 1, 1)),
                                           np.zeros((len(keys), 1, 1, 0))), "edge"),
    "cover": (lambda nerve, keys: SpectralCoverGraph(nerve, None, keys, [[0]] * len(keys)),
              "permutation"),
}


@pytest.mark.parametrize("holder", sorted(HOLDERS))
@pytest.mark.parametrize("keys,message", [
    ([("a", "b"), ("b", "x"), ("a", "b")], "{} ('b', 'x') names unknown charts"),
    ([("a", "b"), ("a", "b"), ("b", "x")], "{} ('a', 'b') is given twice"),
    ([("a", "b"), ("b", "a")], "no {} data for edge ('b', 'c')"),
])
def test_edge_holders_refuse_bad_keys_through_one_index(holder, keys, message):
    build, noun = HOLDERS[holder]
    nerve = Nerve([Chart(c, ((0.0,),)) for c in "abc"], [("a", "b"), ("b", "c")])
    with pytest.raises(InputError) as exc:
        build(nerve, keys)
    assert str(exc.value) == message.format(noun)
    assert exc.traceback[-1].name == "__init__"
    assert exc.traceback[-1].frame.f_locals["self"].__class__ is EdgeIndex
    # a nerve edge held in the other orientation is covered
    assert isinstance(build(nerve, [("a", "b"), ("c", "b")]).index, EdgeIndex)


def test_check_cocycle_detects_corruption():
    nerve = disk_nerve()
    family = from_potential(quadratic_potential(), nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    e = cover.keys.index(("p0", "p1"))
    cover.transitions[e] = cover.transitions[e][::-1]
    report = check_cocycle(cover)
    assert not report.passed
    assert any("triangle" in (r.location or "") for r in report.failures())


def test_sheet_measure_constant_family():
    nerve = line_nerve([(0.0,), (1.0,)])
    family = family_from_function(nerve, lambda p: diagonal_algebra([2.0, 3.0]))
    cover = transition_permutations(idempotent_frames(family), nerve)
    values = cover.frames.weights  # the one chart's track
    assert np.allclose(sorted(np.real(values[0])), [2.0, 3.0])
    assert np.allclose(values[0], values[1])


def test_sheet_measure_sums_to_unit_trace(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    assert len(cover.frames.weights) == len(sample_keys(nerve))
    for k, weights in enumerate(cover.frames.weights):
        m = nerve.point_ids[k]
        assert abs(weights.sum() - family.trace[m] @ family.unit[m]) < 1e-9


def test_sheet_measure_permutes_along_edges(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    values = cover.frames.weights
    for (a, b), u in zip(cover.keys, cover.transitions):
        point = common_points(nerve, (a, b))[0]
        ia = first_row(nerve, a) + point_tuples(nerve, a).index(point)
        ib = first_row(nerve, b) + point_tuples(nerve, b).index(point)
        for i in range(cover.n):
            assert abs(values[ia][i] - values[ib][u[i]]) < 1e-9


def test_cocycle_passes_for_random_smooth_families():
    # perturbed quadratic potentials over a triangulated disk
    rng = np.random.default_rng(23)
    nerve = disk_nerve()
    passed = 0
    for _ in range(50):
        terms = {(2, 1): 0.5, (0, 2): 1.0}
        for e in range(3, 6):
            terms[(0, e)] = 0.3 * complex(rng.standard_normal(), rng.standard_normal())
        fam = PotentialFamily(2, Polynomial(2, terms), ANTIDIAG, 0)
        family = from_potential(fam, nerve)
        cover = transition_permutations(idempotent_frames(family), nerve)
        if check_cocycle(cover).passed:
            passed += 1
    assert passed == 50


def test_nerve_validation_errors():
    def message(charts, *simplices):
        with pytest.raises(InputError) as exc:
            Nerve(charts, *simplices)
        return str(exc.value)

    a, b, c = (Chart(cid, ((0.0,), (float(k),))) for k, cid in enumerate("abc", 1))
    apart = Chart("d", ((9.0,),))
    assert message([a, Chart("a", ((1.0,),))], [("a", "x")]) == "duplicate chart ids"
    assert message([a, b], [("a", "b"), ("a",)]) == "bad edge ('a',)"
    assert message([a, b], [("a", "x")]) == "bad edge ('a', 'x')"
    assert message([a, b, c], [("a", "b")], [("a", "b", "x")]) == "bad triangle ('a', 'b', 'x')"
    assert message([a, b, c], [], [], [("a", "b", "c")]) == "bad quadruple ('a', 'b', 'c')"
    # an edge's overlap is checked before the next edge's shape, and every
    # edge before any triangle
    assert message([a, apart], [("a", "d"), ("a",)], [("x",)]) == \
        "edge ('a', 'd') has no shared sample point"
    assert message([a, b, c, apart], [("a", "b")], [("a", "b", "d"), ("x",)]) == \
        "triangle ('a', 'b', 'd') has no common sample point"
    # quadruples need no common point
    assert Nerve([a, b, c, apart], [], [], [("a", "b", "c", "d")]).shared == {}


def shared_points(nerve, simplex):
    """The points `nerve.shared[simplex]` names, after checking that each
    row holds its point's first index in every chart of the simplex."""
    points = []
    for row in nerve.shared[simplex]:
        point = point_tuples(nerve, simplex[0])[row[0]]
        assert [point_tuples(nerve, cid).index(point) for cid in simplex] == list(row)
        points.append(point)
    return points


def fixture_and_generator_nerves():
    """Every nerve of the fixtures, parsed as the CLI parses it, and the
    c8x4d2 and c16x8d4 nerves of the `cover_pipeline` generator."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    nerves = []
    for path in sorted(glob.glob(os.path.join(root, "fixtures", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj = obj.get("family", obj)
        if "nerve" in obj:  # a family's `n` is its sample dimension, a cocycle's its rank
            coords = obj["n"] if "potential" in obj else None
            nerves.append(parse_nerve(obj["nerve"], coords=coords))
    workloads = perfbench_workloads()
    for job in ("c8x4d2", "c16x8d4"):
        payload = json.loads(workloads.dumps(workloads.cover_pipeline(1).job(job).payload))
        nerves.append(parse_nerve(payload["family"]["nerve"], coords=2))
    return nerves


def test_shared_rows_are_the_set_intersection():
    nerves = fixture_and_generator_nerves()
    assert len(nerves) == 14
    for nerve in nerves + [circle_nerve(), disk_nerve()]:
        assert set(nerve.shared) == set(nerve.edges) | set(nerve.triangles)
        for simplex in nerve.edges + nerve.triangles:
            assert shared_points(nerve, simplex) == common_points(nerve, simplex)


def test_signed_zero_and_repeated_points_are_shared():
    # 0.0 == -0.0, in either part of a coordinate; a repeated point keeps its
    # first index in every chart and is listed once per repetition
    a = Chart("a", ((0.0, 1.0), (2.0, 0.0), (0.0, 1.0), (2.0, 3.0)))
    b = Chart("b", ((5.0, 5.0), (-0.0, complex(1.0, -0.0)), (2.0, 3.0), (0.0, 1.0)))
    nerve = Nerve([a, b], [("a", "b"), ("b", "a")])
    assert nerve.shared == {("a", "b"): ((0, 1), (0, 1), (3, 2)),
                            ("b", "a"): ((1, 0), (2, 3), (1, 0))}
    for edge in nerve.edges:
        assert shared_points(nerve, edge) == common_points(nerve, edge)
    assert nerve.offsets == [0, 4, 8]
    assert nerve.points.tolist() == a.samples.tolist() + b.samples.tolist()


def test_ambiguous_matching_raised():
    # two idempotents get swapped abruptly between charts whose shared point
    # carries frames from different branches -> distances tie
    center = (0.5,)
    nerve = Nerve(
        [Chart("a", (center,)), Chart("b", (center,))],
        edges=[("a", "b")],
    )

    class Flip:
        def __init__(self):
            self.calls = 0

        def __call__(self, p):
            self.calls += 1
            return diagonal_algebra([1.0, 1.0])

    family = family_from_function(nerve, Flip())
    frames = idempotent_frames(family)
    # make the frames artificially ambiguous: both sheets equidistant
    frames.frames[first_row(nerve, "b")] = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(AmbiguousMatching):
        transition_permutations(frames, nerve)


def scalar_match_rows(ref, cur, where, exc_type):
    """Reference: the match rule for one pair of (n, n) frames.  Row order of
    `cur` aligning it with `ref` by nearest coordinates (max-norm), rejected
    when some row's second-best match is closer than 2 times its best or two
    rows claim the same target."""
    n = ref.shape[0]
    dist = np.max(np.abs(ref[:, None] - cur[None]), axis=2)
    order = np.argmin(dist, axis=1).tolist()
    ranked = np.sort(dist, axis=1)
    ambiguous = np.flatnonzero(ranked[:, 1:2] < 2.0 * ranked[:, :1])
    if ambiguous.size:
        i = ambiguous[0]
        raise exc_type(f"{where}: ambiguous match for sheet {i} "
                       f"(best {ranked[i, 0]:.3e}, second {ranked[i, 1]:.3e})")
    if len(set(order)) != n:
        raise exc_type(f"{where}: matching is not a bijection")
    return order


def per_sample_frames(family, seed=0):
    """Reference: the per-sample loop that the batched `idempotent_frames`
    replaced, one `idempotent_basis` per sample and each later sample matched
    to its predecessor in its chart."""
    frames, weights, prev = [], [], None
    for (cid, idx), alg in zip(sample_keys(family.nerve), family_algebras(family)):
        try:
            basis = alg.idempotent_basis(seed=seed)
        except NotSemisimple as exc:
            raise NotSemisimpleAtPoint((cid, idx), str(exc)) from exc
        idem, w = basis.idempotents, basis.weights
        if idx:
            order = scalar_match_rows(prev, idem, f"{cid}[{idx}]", AmbiguousTracking)
            idem, w = idem[order], w[order]
        frames.append(idem)
        weights.append(w)
        prev = idem
    return ChartFrames(np.array(frames), np.array(weights))


def frames_outcome(fn, family, seed=0):
    """Every frame and weight as raw bytes, or the exception's type and message."""
    try:
        frames = fn(family, seed=seed)
    except BranekitError as exc:
        return type(exc), str(exc)
    return [(key, f.tobytes(), w.tobytes())
            for key, f, w in zip(sample_keys(family.nerve), frames.frames, frames.weights)]


def per_edge_transitions(frames, nerve):
    """Reference: each edge's shared points in turn, looked up with
    `list.index` on the sample tuples, matched one pair at a time."""
    transitions = {}
    for (a, b) in nerve.edges:
        perm = None
        for point in common_points(nerve, (a, b)):
            fa = frames.frames[first_row(nerve, a) + point_tuples(nerve, a).index(point)]
            fb = frames.frames[first_row(nerve, b) + point_tuples(nerve, b).index(point)]
            u = tuple(scalar_match_rows(fa, fb, f"edge {(a, b)} at {point}", AmbiguousMatching))
            if perm is None:
                perm = u
            elif perm != u:
                raise AmbiguousMatching(
                    f"edge {(a, b)}: sheet matching differs between shared points")
        transitions[(a, b)] = perm
    return transitions


def transitions_outcome(fn, frames, nerve):
    """The transitions in order, or the exception's type and message."""
    try:
        out = fn(frames, nerve)
    except BranekitError as exc:
        return type(exc), str(exc)
    if isinstance(out, dict):
        return list(out.items())
    return list(zip(out.keys, map(tuple, out.transitions.tolist())))


def test_batched_frames_equal_the_per_sample_loop(circle_family):
    family, _ = circle_family
    for seed in (0, 7):
        assert frames_outcome(idempotent_frames, family, seed) == \
            frames_outcome(per_sample_frames, family, seed)
    # random smooth A_2 families: Phi = 1/2 t0^2 t1 + sum_e a_e t1^e on a circle
    rng = np.random.default_rng(2)
    tracked = 0
    for _ in range(6):
        terms = {(2, 1): 0.5}
        for e in range(3, 7):
            terms[(0, e)] = complex(rng.standard_normal(), rng.standard_normal()) / 4
        fam = PotentialFamily(2, Polynomial(2, terms), ANTIDIAG, 0)
        family = from_potential(fam, circle_nerve(num_charts=6, samples_per_chart=8,
                                                  radius=rng.uniform(0.3, 1.5)))
        got = frames_outcome(idempotent_frames, family)
        assert got == frames_outcome(per_sample_frames, family)
        if isinstance(got, list):
            tracked += 1
            frames = idempotent_frames(family)
            assert transitions_outcome(transition_permutations, frames, family.nerve) == \
                transitions_outcome(per_edge_transitions, frames, family.nerve)
    assert tracked >= 3


def with_idempotents(rows, weights):
    """C^n in a basis where the idempotents have coordinates `rows` (one per
    row) and theta(e_i) = weights[i]: with M = rows^{-1}, b_a = sum_i M_ai e_i,
    so c_ab^k = sum_i M_ai M_bi rows_ik."""
    e = np.asarray(rows, dtype=complex)
    m = np.linalg.inv(e)
    return FrobeniusAlgebra(np.einsum("ai,bi,ik->abk", m, m, e), e.sum(axis=0),
                            m @ np.asarray(weights, dtype=complex))


def line_family(algebras, points=None):
    """One chart whose sample k (the point (k,) unless `points` is given)
    carries algebras[k]."""
    points = points or [(float(k),) for k in range(len(algebras))]
    return family_from_function(line_nerve(points),
                                lambda p: algebras[int(p[0].real)])


def assert_frames_match_reference(family):
    got = frames_outcome(idempotent_frames, family)
    assert got == frames_outcome(per_sample_frames, family)
    return got


# weight 5 on the second raw idempotent: the canonical track order is [1, 0]
HEAVY_SECOND = [1.0, 5.0]
STEADY = with_idempotents(np.eye(2), HEAVY_SECOND)
# raw row 0 (track sheet 1) is 0.9 from (1, 0.9) and 1.0 from (0.2, 1): ambiguous
AMBIGUOUS = with_idempotents([[1.0, 0.9], [0.2, 1.0]], HEAVY_SECOND)
# both rows of the identity are nearest to (0.6, 0.5), each well inside the margin
NOT_BIJECTIVE = with_idempotents([[0.6, 0.5], [3.0, -3.0]], HEAVY_SECOND)


def test_mid_chart_ambiguity_names_the_sheet_by_track_index():
    family = line_family([STEADY, STEADY, STEADY, AMBIGUOUS, STEADY])
    idem, weights, _ = idempotent_stack(family.c, family.unit, family.trace)
    assert canonical_order(idem[0], weights[0]) == [1, 0]  # track order != raw order
    got = assert_frames_match_reference(family)
    assert got[0] is AmbiguousTracking
    assert got[1].startswith("c0[3]: ambiguous match for sheet 1 ")


def test_non_bijective_match_matches_reference():
    got = assert_frames_match_reference(line_family([STEADY, STEADY, NOT_BIJECTIVE]))
    assert got == (AmbiguousTracking, "c0[2]: matching is not a bijection")


def test_not_semisimple_sample_before_and_after_a_tracking_failure():
    nilpotent = nilpotent_example()
    got = assert_frames_match_reference(line_family([STEADY, nilpotent, AMBIGUOUS, STEADY]))
    assert got[0] is NotSemisimpleAtPoint
    got = assert_frames_match_reference(line_family([STEADY, AMBIGUOUS, nilpotent, STEADY]))
    assert got[0] is AmbiguousTracking and got[1].startswith("c0[1]:")


def test_track_order_composes_steps_of_three_sheets(monkeypatch):
    # raw rows are a slowly moving 3-sheet track under a fresh random
    # permutation at every sample, so the steps do not commute
    rng = np.random.default_rng(5)
    num = 12
    base = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]) + 0.3j
    track = np.array([base + 0.004 * s * rng.standard_normal((3, 3)) for s in range(num)])
    raw_order = np.array([rng.permutation(3) for _ in range(num)])
    idem = np.take_along_axis(track, raw_order[:, :, None], axis=1)
    weights = np.take_along_axis(np.tile([2.0, 3.0, 4.0], (num, 1)), raw_order, axis=1)
    monkeypatch.setattr("branekit.family.idempotent_stack",
                        lambda *args: (idem, weights.astype(complex), {}))
    family = line_family([diagonal_algebra([2.0, 3.0, 4.0])] * num)
    frames = idempotent_frames(family)
    start = raw_order[0][canonical_order(idem[0], weights[0])]  # true sheet of each track
    for s in range(num):
        assert frames.frames[s].tobytes() == track[s][start].tobytes()
        assert frames.weights[s].tolist() == (np.array([2.0, 3.0, 4.0])[start]).tolist()
        if s:
            assert scalar_match_rows(frames.frames[s - 1], idem[s], "", AmbiguousTracking) \
                == raw_order[s].argsort()[start].tolist()


def two_chart_cover(points_a, points_b, swap=None, replace=None):
    """C^2 with weights [1, 5] on charts a and b; the frame of chart c at
    sample i, for `swap` = (c, i), has its rows swapped; b's frame at sample
    `replace` is set to an ambiguous frame (both rows equidistant from each
    row of a's frame)."""
    nerve = Nerve([Chart("a", tuple(points_a)), Chart("b", tuple(points_b))],
                  edges=[("a", "b")])
    frames = idempotent_frames(family_from_function(nerve, lambda p: STEADY))
    if swap is not None:
        k = first_row(nerve, swap[0]) + swap[1]
        frames.frames[k] = frames.frames[k][::-1].copy()
    if replace is not None:
        frames.frames[first_row(nerve, "b") + replace] = np.array([[0.5, 0.5], [0.5, 0.5]])
    return frames, nerve


def test_ambiguity_at_an_edges_second_shared_point():
    frames, nerve = two_chart_cover([(0.0,), (1.0,), (2.0,)], [(5.0,), (1.0,), (2.0,)],
                                    replace=2)
    got = transitions_outcome(transition_permutations, frames, nerve)
    assert got == transitions_outcome(per_edge_transitions, frames, nerve)
    assert got[0] is AmbiguousMatching and "at ((2+0j),): ambiguous match" in got[1]


def test_edge_whose_common_points_disagree():
    frames, nerve = two_chart_cover([(0.0,), (1.0,), (2.0,)], [(1.0,), (2.0,)], swap=("b", 1))
    got = transitions_outcome(transition_permutations, frames, nerve)
    assert got == transitions_outcome(per_edge_transitions, frames, nerve)
    assert got == (AmbiguousMatching,
                   "edge ('a', 'b'): sheet matching differs between shared points")


def test_one_sample_charts_edgeless_nerves_and_repeated_points():
    # one-sample charts glued along their one point
    frames, nerve = two_chart_cover([(1.0,)], [(1.0,)])
    got = transitions_outcome(transition_permutations, frames, nerve)
    assert got == transitions_outcome(per_edge_transitions, frames, nerve) == \
        [(("a", "b"), (0, 1))]
    # an edgeless nerve of one-sample charts
    nerve = Nerve([Chart("x", ((0.0,),)), Chart("y", ((3.0,),))])
    family = family_from_function(nerve, lambda p: STEADY)
    assert isinstance(assert_frames_match_reference(family), list)
    frames = idempotent_frames(family)
    assert transitions_outcome(transition_permutations, frames, nerve) == []
    # chart a lists the shared point 1.0 twice, the second time with its rows
    # swapped; both listings match at the point's first index in either chart
    frames, nerve = two_chart_cover([(1.0,), (0.0,), (1.0,)], [(1.0,), (4.0,), (1.0,)],
                                    swap=("a", 2))
    family = family_from_function(nerve, lambda p: STEADY)
    assert isinstance(assert_frames_match_reference(family), list)
    got = transitions_outcome(transition_permutations, frames, nerve)
    assert got == transitions_outcome(per_edge_transitions, frames, nerve) == \
        [(("a", "b"), (0, 1))]


def test_first_failing_sample_in_chart_order_raises():
    def family(bad):
        """Seven samples of C^2; `bad` maps a sample index to another algebra."""
        nerve = line_nerve([(float(k),) for k in range(7)])
        return family_from_function(
            nerve, lambda p: bad.get(int(p[0].real), diagonal_algebra([2.0, 3.0])))

    nilpotent, zero_weight = nilpotent_example(), diagonal_algebra([1.0, 0.0])
    with pytest.raises(NotSemisimpleAtPoint) as exc:
        idempotent_frames(family({3: nilpotent, 5: zero_weight}))
    with pytest.raises(NotSemisimple) as alone:
        nilpotent.idempotent_basis()
    diagnostics = alone.value.args[0]
    assert exc.value.point == ("c0", 3)
    assert str(exc.value) == f"not semisimple at sample point ('c0', 3): {diagnostics}"
    assert exc.value.__cause__.args[0] == diagnostics
    with pytest.raises(DegenerateWeight, match="idempotent weight 0.000e"):
        idempotent_frames(family({5: zero_weight, 6: nilpotent}))


def test_first_non_unit_sample_wins_over_earlier_wdvv_failures():
    # eta_02 = eta_11 = 1; 1/2 t0^2 t2 + 1/2 t0 t1^2 makes b_0 the unit, t1^3 t2
    # breaks WDVV, and t0 t2^3 spoils the unit wherever t2 != 0
    g = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    terms = {(2, 0, 1): 0.5, (1, 2, 0): 0.5, (0, 3, 1): 1.0}
    wdvv_only = [(0.0, 1.0, 0.0), (0.0, 2.0, 0.0)]
    fam = PotentialFamily(3, Polynomial(3, terms), g, 0)
    with pytest.raises(WDVVViolation) as exc:
        from_potential(fam, line_nerve(wdvv_only))
    assert [p[:2] for p in exc.value.points] == [("c0", 0), ("c0", 1)]
    fam = PotentialFamily(3, Polynomial(3, {**terms, (1, 0, 3): 1.0}), g, 0)
    with pytest.raises(NonUnit, match=r"not a unit at c0\[2\]"):
        from_potential(fam, line_nerve(wdvv_only + [(0.0, 1.0, 0.5), (0.0, 1.0, 0.25)]))


def shared_point_nerve():
    """Arc points (0, z_k) in the t1 plane, listed by several charts: z_2 by a
    and b, z_4 by b, c (as its -0.0 twin) and the one-sample chart d, z_1
    twice by a, and z_6 = 1 by c and (as 1 - 0j) by e."""
    z = [0.8 * np.exp(0.12j * k) for k in range(6)] + [1.0, 1.1]
    point = [(0.0, w) for w in z]
    charts = [Chart("a", (point[0], point[1], point[2], point[1])),
              Chart("b", (point[2], point[3], point[4])),
              Chart("c", ((-0.0, z[4]), point[5], point[6])),
              Chart("d", (point[4],)),
              Chart("e", ((0.0, complex(1.0, -0.0)), point[7]))]
    return Nerve(charts, [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("c", "e")],
                 triangles=[("b", "c", "d")])


def reference_point_ids(nerve):
    """Each sample's index among the nerve's distinct sample tuples, in order
    of first occurrence."""
    points = list(map(tuple, nerve.points.tolist()))
    distinct = list(dict.fromkeys(points))
    return [distinct.index(p) for p in points]


def per_sample_family(family):
    """The family with one row per sample (the algebra of the sample's
    point) on a copy of its nerve that gives every sample its own id."""
    nerve, pids = copy.copy(family.nerve), family.nerve.point_ids
    nerve.point_ids = nerve.point_first = np.arange(len(pids))
    return AlgebraFamily(nerve, family.c[pids], family.unit[pids], family.trace[pids])


def test_nerve_numbers_points_in_first_occurrence_order():
    nerve = shared_point_nerve()
    assert nerve.point_ids.tolist() == [0, 1, 2, 1, 2, 3, 4, 4, 5, 6, 4, 6, 7]
    assert nerve.point_ids.dtype == np.intp
    assert nerve.point_first.tolist() == [0, 1, 2, 5, 6, 8, 9, 12]
    assert nerve.point_ids.tolist() == reference_point_ids(nerve)
    # a NaN equals nothing, not even the same NaN listed again
    nan = Nerve([Chart("a", ((np.nan,), (1.0,), (np.nan,), (1.0,)))])
    assert nan.point_ids.tolist() == [0, 1, 2, 1]
    # a sheet nerve numbers its points only when asked, from its own samples
    cover = transition_permutations(idempotent_frames(
        family_from_function(nerve, lambda p: STEADY)), nerve)
    sheets = sheet_nerve(cover)
    assert "point_ids" not in vars(sheets)
    assert sheets.point_ids.tolist() == reference_point_ids(sheets)
    assert len(sheets.point_first) == len(nerve.point_first)


def test_one_algebra_per_point_equals_the_per_sample_stack():
    nerve = shared_point_nerve()
    distinct = len(set(map(tuple, nerve.points.tolist())))
    assert distinct == 8 < len(nerve.points)
    rng = np.random.default_rng(11)
    tracked = 0
    for _ in range(8):
        terms = {(2, 1): 0.5}
        for e in range(3, 7):
            terms[(0, e)] = complex(rng.standard_normal(), rng.standard_normal()) / 4
        family = from_potential(PotentialFamily(2, Polynomial(2, terms), ANTIDIAG, 0), nerve)
        assert len(family.c) == len(family.unit) == len(family.trace) == distinct
        reference = per_sample_family(family)
        for seed in (0, 3):
            got = frames_outcome(idempotent_frames, family, seed)
            assert got == frames_outcome(idempotent_frames, reference, seed)
            assert got == frames_outcome(per_sample_frames, family, seed)
        tracked += isinstance(got, list)
    assert tracked >= 4


def test_failures_at_a_shared_point_name_its_first_sample_in_chart_order():
    # the point (3,), of id 2, is sample a[3] and b[0]; b[0] comes later in
    # chart order
    nerve = Nerve([Chart("a", ((0.0,), (1.0,), (0.0,), (3.0,))),
                   Chart("b", ((3.0,), (4.0,), (-0.0,)))], [("a", "b")])

    def family(bad):
        return family_from_function(nerve, lambda p: bad if p[0] == 3.0 else STEADY)

    with pytest.raises(NotSemisimpleAtPoint) as exc:
        idempotent_frames(family(nilpotent_example()))
    assert exc.value.point == ("a", 3)
    with pytest.raises(DegenerateWeight) as exc:
        idempotent_frames(family(diagonal_algebra([1.0, 0.0])))
    assert exc.value.point == ("a", 3)
    # a point, of id 2, that fails the unit law at a[3] and b[0]; another at b[1]
    g = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    terms = {(2, 0, 1): 0.5, (1, 2, 0): 0.5, (1, 0, 3): 1.0}
    fam = PotentialFamily(3, Polynomial(3, terms), g, 0)
    good, other, bad, worse = (0.0, 1.0, 0.0), (0.0, 2.0, 0.0), (0.0, 1.0, 0.5), (0.0, 1.0, 0.75)
    nerve = Nerve([Chart("a", (good, other, good, bad)), Chart("b", (bad, worse))],
                  [("a", "b")])
    with pytest.raises(NonUnit, match=r"not a unit at a\[3\]"):
        from_potential(fam, nerve)
    # t1^3 t2 breaks WDVV wherever t1 != 0: every sample of the point is listed
    terms = {(2, 0, 1): 0.5, (1, 2, 0): 0.5, (0, 3, 1): 1.0}
    fam = PotentialFamily(3, Polynomial(3, terms), g, 0)
    origin, off = (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    nerve = Nerve([Chart("a", (origin, off)), Chart("b", (off, (-0.0, 0.0, 0.0), off))],
                  [("a", "b")])
    with pytest.raises(WDVVViolation) as exc:
        from_potential(fam, nerve)
    points = exc.value.points
    assert [p[:2] for p in points] == [("a", 1), ("b", 0), ("b", 2)]
    assert len({p[2:] for p in points}) == 1


def test_family_from_function_calls_the_builder_once_per_point():
    nerve = shared_point_nerve()
    calls = []
    family = family_from_function(nerve, lambda p: calls.append(p.tolist()) or STEADY)
    assert calls == nerve.points[nerve.point_first].tolist()
    assert len(calls) == len(family.c) == 8
    # the -0.0 twin of z_4 in chart c is not the row the builder gets
    assert not np.signbit(calls[4][0].real)


def test_nerve_without_samples_is_an_input_error():
    for samples in ((), np.zeros((0, 2)), [1.0, 2.0]):
        with pytest.raises(InputError, match=r"chart a: samples must be a nonempty \(k, coords\)"):
            Chart("a", samples)
    with pytest.raises(InputError, match="at least one chart"):
        Nerve([])


def test_ragged_chart_is_an_input_error():
    for samples in ([[1], [1, 2]], [[1.0, 2.0], [3.0]], [[1.0, "x"]]):
        with pytest.raises(InputError, match=r"chart a: samples must be a nonempty \(k, coords\) "
                                             r"array of numbers"):
            Chart("a", samples)


def test_mixed_width_nerve_is_an_input_error():
    with pytest.raises(InputError, match="chart b has 2 coordinates per sample, chart a has 1"):
        Nerve([Chart("a", [[1]]), Chart("b", [[1, 2]])], [("a", "b")])


def test_polynomial_evaluates_rows_of_points_like_single_points():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    terms = {tuple(rng.integers(0, 5, 3)): complex(*rng.standard_normal(2)) for _ in range(8)}
    for poly in (Polynomial(3, terms), Polynomial(3), Polynomial(3, {(0, 0, 0): 2.5 - 1j})):
        values = poly(points)
        assert values.shape == (50,) and values.dtype == complex
        singles = [poly(pt) for pt in points]
        assert all(isinstance(z, complex) for z in singles)
        assert values.tobytes() == np.array(singles).tobytes()
        expected = [sum(c * np.prod(pt ** np.array(e)) for e, c in poly.terms.items())
                    for pt in points]
        assert np.allclose(values, expected, rtol=1e-13, atol=0)
    assert Polynomial(3)(points).tobytes() == np.zeros(50, dtype=complex).tobytes()
    assert poly(points).tobytes() == np.full(50, 2.5 - 1j).tobytes()
