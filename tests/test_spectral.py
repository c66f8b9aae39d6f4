import itertools

import numpy as np
import pytest

from branekit.errors import InconsistentDims, InputError
from branekit.family import (
    Chart,
    Nerve,
    SpectralCoverGraph,
    from_potential,
    idempotent_frames,
    monodromy,
    transition_permutations,
)
from branekit.spectral import (
    brane_to_twisted_components,
    brane_to_twisted,
    component_nerve,
    lift_label,
    phi_classify,
    sheet_chart_id,
    sheet_nerve,
)
from branekit.twisted import (
    TwistedBundle,
    azumaya_extract,
    end,
    random_twisted_bundle,
    same_nerve,
    solve_iso,
    validate,
    verify_iso,
)

from conftest import circle_loop, circle_nerve, quadratic_potential


def circle_cover(samples_per_chart=4):
    nerve = circle_nerve(samples_per_chart=samples_per_chart)
    family = from_potential(quadratic_potential(), nerve)
    return transition_permutations(idempotent_frames(family), nerve)


def identity_cover():
    """Two disjoint sheets: a cover with identity transitions everywhere."""
    nerve = circle_nerve(samples_per_chart=2)
    family = from_potential(quadratic_potential(), nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    cover.transitions[:] = np.arange(cover.n)
    return cover


def test_lift_label_identity_cover_components():
    cover = identity_cover()
    dims = {cid: (2, 3) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    assert not lifted.connected
    assert sorted(rank for _, rank in lifted.components) == [2, 3]


def test_lift_label_connected_cover_constant_rank():
    cover = circle_cover()
    assert monodromy(cover, circle_loop()) == (1, 0)
    dims = {cid: (3, 3) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    assert lifted.connected
    assert lifted.constant_rank == 3


def test_lift_label_rejects_unequal_dims_on_connected_cover():
    cover = circle_cover()
    dims = {cid: (2, 3) for cid in cover.nerve.chart_order}
    with pytest.raises(InconsistentDims):
        lift_label(dims, cover)


def test_lift_rank_constant_on_monodromy_orbits():
    cover = circle_cover()
    dims = {cid: (1, 1) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    perm = monodromy(cover, circle_loop())
    first = cover.nerve.chart_order[0]
    for i in range(cover.n):
        assert lifted.ranks[(first, i)] == lifted.ranks[(first, perm[i])]


def test_sheet_nerve_structure():
    cover = circle_cover(samples_per_chart=2)
    nerve_s = sheet_nerve(cover)
    assert len(nerve_s.charts) == 2 * len(cover.nerve.charts)
    assert len(nerve_s.edges) == 2 * len(cover.nerve.edges)
    # a connected double cover of the circle is a single longer circle
    adjacency = {}
    for (a, b) in nerve_s.edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen = set()
    stack = [next(iter(adjacency))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(adjacency[cur])
    assert len(seen) == len(nerve_s.charts)


def test_sheet_nerve_lifts_simplices_along_permutations():
    # four charts over one shared point, three sheets, no two transitions
    # alike; (d, b) is stored reversed so the triangle (b, c, d) reads its inverse
    charts = [Chart(cid, ((0.0,),)) for cid in "abcd"]
    transitions = {("a", "b"): (1, 2, 0), ("b", "c"): (2, 0, 1), ("a", "c"): (0, 2, 1),
                   ("a", "d"): (2, 1, 0), ("d", "b"): (1, 0, 2)}
    nerve = Nerve(charts, list(transitions), [("a", "b", "c"), ("b", "c", "d")],
                  [("a", "b", "c", "d")])
    lifted = sheet_nerve(SpectralCoverGraph(nerve, None, list(transitions),
                                            list(transitions.values())))
    assert lifted.chart_order == [f"{c}#{i}" for c in "abcd" for i in range(3)]
    assert lifted.edges == [
        ("a#0", "b#1"), ("a#1", "b#2"), ("a#2", "b#0"),
        ("b#0", "c#2"), ("b#1", "c#0"), ("b#2", "c#1"),
        ("a#0", "c#0"), ("a#1", "c#2"), ("a#2", "c#1"),
        ("a#0", "d#2"), ("a#1", "d#1"), ("a#2", "d#0"),
        ("d#0", "b#1"), ("d#1", "b#0"), ("d#2", "b#2"),
    ]
    assert lifted.triangles == [
        ("a#0", "b#1", "c#0"), ("a#1", "b#2", "c#2"), ("a#2", "b#0", "c#1"),
        ("b#0", "c#2", "d#1"), ("b#1", "c#0", "d#0"), ("b#2", "c#1", "d#2"),
    ]
    assert lifted.quadruples == [
        ("a#0", "b#1", "c#0", "d#2"), ("a#1", "b#2", "c#2", "d#1"),
        ("a#2", "b#0", "c#1", "d#0"),
    ]


def constructed_sheet_nerve(cover):
    """Reference: the sheet nerve built through the public constructors,
    which convert every sample and check every simplex again; each
    permutation is read per pair, inverting a stored reverse by sorting."""
    base = cover.nerve
    stored = dict(zip(cover.keys, map(tuple, cover.transitions.tolist())))

    def along(a, x):
        if (a, x) in stored:
            return stored[a, x]
        u = stored[x, a]
        return tuple(sorted(range(len(u)), key=u.__getitem__))
    charts = [Chart(sheet_chart_id(cid, i), base.charts[cid].samples)
              for cid in base.chart_order for i in range(cover.n)]

    def lift(simplices):
        out = []
        for a, *rest in simplices:
            perms = [along(a, x) for x in rest]
            out.extend((sheet_chart_id(a, i),) + tuple(sheet_chart_id(x, u[i])
                                                        for x, u in zip(rest, perms))
                       for i in range(cover.n))
        return out

    return Nerve(charts, lift(cover.keys), lift(base.triangles), lift(base.quadruples))


def assert_same_nerve(got, want):
    assert got.chart_order == want.chart_order
    assert (got.edges, got.triangles, got.quadruples) == \
        (want.edges, want.triangles, want.quadruples)
    for cid in want.chart_order:
        assert got.charts[cid].id == cid
        assert got.charts[cid].samples.tolist() == want.charts[cid].samples.tolist()
    assert got.shared == want.shared


def test_sheet_nerve_equals_the_constructed_nerve():
    # charts of different lengths around one common point 0.0 (written -0.0
    # in c), each pair sharing one more point, some listed twice
    charts = [Chart("a", ((0.0,), (1.0,), (2.0,), (1.0,))),
              Chart("b", ((1.0,), (3.0,), (0.0,))),
              Chart("c", ((3.0,), (-0.0,), (2.0,), (4.0,), (5.0,))),
              Chart("d", ((4.0,), (0.0,), (1.0,), (5.0,)))]
    transitions = {("a", "b"): (1, 2, 0), ("b", "c"): (2, 0, 1), ("a", "c"): (0, 2, 1),
                   ("a", "d"): (2, 1, 0), ("d", "b"): (1, 0, 2), ("c", "d"): (0, 1, 2)}
    nerve = Nerve(charts, list(transitions), [("a", "b", "c"), ("b", "c", "d")],
                  [("a", "b", "c", "d")])
    cover = SpectralCoverGraph(nerve, None, list(transitions), list(transitions.values()))
    lifted, want = sheet_nerve(cover), constructed_sheet_nerve(cover)
    assert_same_nerve(lifted, want)
    assert lifted.shared[("a#0", "b#1")] == ((0, 2), (1, 0), (1, 0))
    assert lifted.charts["c#2"].samples is nerve.charts["c"].samples
    # a component: the charts it names, the simplices inside them
    component = frozenset((cid, i) for cid in "abcd" for i in range(3) if (i + ord(cid)) % 3)
    keep = {sheet_chart_id(cid, i) for cid, i in component}
    inside = ([s for s in kind if keep.issuperset(s)]
              for kind in (want.edges, want.triangles, want.quadruples))
    assert_same_nerve(component_nerve(lifted, component),
                      Nerve([want.charts[cid] for cid in want.chart_order if cid in keep],
                            *inside))
    # the circle cover, whose transitions come from the tracking
    cover = circle_cover()
    assert_same_nerve(sheet_nerve(cover), constructed_sheet_nerve(cover))


def test_brane_to_twisted_trivial_conjugation():
    cover = circle_cover(samples_per_chart=2)
    dims = {cid: (2, 2) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    bundle, report = brane_to_twisted(lifted)
    assert report.passed, str(report)
    assert bundle.rank == 2
    assert validate(bundle).passed
    assert np.max(np.abs(bundle.g - np.eye(2))) < 1e-10


def test_brane_to_twisted_round_trip():
    # the extraction brane_to_twisted runs on a connected cover, fed a
    # nontrivial conjugation cocycle on the sheet nerve
    cover = circle_cover(samples_per_chart=2)
    nerve_s = sheet_nerve(cover)
    source = random_twisted_bundle(nerve_s, 2, seed=3)
    bundle, report = azumaya_extract(TwistedBundle(nerve_s, 4, source.keys, end(source).g))
    assert report.passed, str(report)
    a = end(bundle)
    b = end(source)
    w = solve_iso(a, b)
    assert verify_iso(a, b, w).passed
    assert validate(bundle).passed


def test_components_share_one_sheet_nerve(monkeypatch):
    from branekit import spectral
    built = []

    def counted(cover):
        built.append(sheet_nerve(cover))
        return built[-1]
    monkeypatch.setattr(spectral, "sheet_nerve", counted)
    cover = identity_cover()
    lifted = lift_label({cid: (2, 2) for cid in cover.nerve.chart_order}, cover)
    assert len(brane_to_twisted_components(lifted)) == 2
    assert len(built) == 1
    # a component that covers every sheet chart is the sheet nerve itself
    circle = circle_cover(samples_per_chart=2)
    connected = lift_label({cid: (2, 2) for cid in circle.nerve.chart_order}, circle)
    full = sheet_nerve(connected.cover)
    assert spectral.component_nerve(full, connected.components[0][0]) is full
    half = spectral.component_nerve(built[0], lifted.components[0][0])
    assert len(half.charts) == len(built[0].charts) // 2


def test_brane_to_twisted_requires_connected():
    cover = identity_cover()
    dims = {cid: (2, 2) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    with pytest.raises(InputError):
        brane_to_twisted(lifted)


def test_phi_classify_separates_distinct_dims():
    cover = identity_cover()
    labels, bundles = [], []
    for d in (1, 2):
        dims = {cid: (d, d) for cid in cover.nerve.chart_order}
        lifted = lift_label(dims, cover)
        labels.append(lifted)
        bundles.append([b for b, _ in brane_to_twisted_components(lifted)])
    report = phi_classify(labels, bundles)
    assert report.checks.passed, str(report.checks)
    assert len(report.groups) == 2


def test_phi_classify_line_twist_same_class():
    cover = circle_cover(samples_per_chart=2)
    nerve_s = sheet_nerve(cover)
    dims = {cid: (2, 2) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    base = random_twisted_bundle(nerve_s, 2, seed=5)
    from branekit.twisted import scalar_line, tensor
    rng = np.random.default_rng(0)
    line = scalar_line(nerve_s, {tuple(k): np.exp(2j * np.pi * rng.uniform())
                                 for k in nerve_s.edges})
    twisted_by_line = tensor(base, line)
    report = phi_classify([lifted, lifted], [base, twisted_by_line])
    assert report.checks.passed, str(report.checks)
    assert len(report.groups) == 1


def test_phi_classify_exhaustive_small_instances():
    cover = identity_cover()  # n = 2 sheets, two disjoint components
    labels, bundles = [], []
    for d1, d2 in itertools.product((0, 1, 2), repeat=2):
        dims = {cid: (d1, d2) for cid in cover.nerve.chart_order}
        lifted = lift_label(dims, cover)
        labels.append(lifted)
        bundles.append([b for b, _ in brane_to_twisted_components(lifted)])
    report = phi_classify(labels, bundles)
    named = {tuple(g["label_class"]): g for g in report.groups}
    assert set(named) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert report.checks.passed, str(report.checks)
    # (1,2) and (2,1) land in the same class
    assert len(named[(1, 2)]["members"]) == 2


def test_phi_classify_nerves_differing_only_in_triangles():
    # Same charts and edges, but only one nerve carries the triangle: the
    # bundles live on different nerves and are compared by rank alone.
    charts = [Chart(c, ((0.0,),)) for c in ("0", "1", "2")]
    edges = [("0", "1"), ("0", "2"), ("1", "2")]
    e = random_twisted_bundle(Nerve(charts, edges, triangles=[("0", "1", "2")]), 2, seed=1)
    f = random_twisted_bundle(Nerve(charts, edges), 2, seed=2)
    assert not same_nerve(e, f)
    cover = identity_cover()
    lifted = lift_label({cid: (1, 1) for cid in cover.nerve.chart_order}, cover)
    report = phi_classify([lifted, lifted], [e, f])
    assert report.checks.passed, str(report.checks)
    assert len(report.groups) == 1
