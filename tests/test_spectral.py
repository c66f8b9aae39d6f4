import itertools

import numpy as np
import pytest

from branekit.errors import InconsistentDims, InputError
from branekit.family import (
    Chart,
    Nerve,
    from_potential,
    idempotent_frames,
    monodromy,
    transition_permutations,
)
from branekit.spectral import (
    brane_to_twisted_components,
    brane_to_twisted,
    identity_conjugation,
    lift_label,
    phi_classify,
    sheet_nerve,
)
from branekit.twisted import (
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
    cover.transitions = {k: tuple(range(cover.n)) for k in cover.transitions}
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


def test_brane_to_twisted_trivial_conjugation():
    cover = circle_cover(samples_per_chart=2)
    dims = {cid: (2, 2) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    bundle, report = brane_to_twisted(lifted)
    assert report.passed, str(report)
    assert bundle.rank == 2
    assert validate(bundle).passed
    for key in bundle.g:
        assert np.max(np.abs(bundle.g[key] - np.eye(2))) < 1e-10


def test_brane_to_twisted_round_trip():
    cover = circle_cover(samples_per_chart=2)
    dims = {cid: (2, 2) for cid in cover.nerve.chart_order}
    lifted = lift_label(dims, cover)
    nerve_s = sheet_nerve(cover)
    source = random_twisted_bundle(nerve_s, 2, seed=3)
    conj = {key: end(source).g[key] for key in end(source).g}
    bundle, report = brane_to_twisted(lifted, conj=conj)
    assert report.passed, str(report)
    a = end(bundle)
    b = end(source)
    w = solve_iso(a, b)
    assert verify_iso(a, b, w).passed
    assert validate(bundle).passed


def test_brane_to_twisted_rejects_conjugation_off_the_cover():
    cover = circle_cover(samples_per_chart=2)
    lifted = lift_label({cid: (2, 2) for cid in cover.nerve.chart_order}, cover)
    conj = identity_conjugation(sheet_nerve(cover), 2)
    conj[("nowhere#0", "nowhere#1")] = np.eye(4)
    with pytest.raises(InputError):
        brane_to_twisted(lifted, conj=conj)
    with pytest.raises(InputError):
        brane_to_twisted_components(lifted, conj=conj)


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
