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
from branekit.family import (
    Chart,
    ChartFrames,
    Nerve,
    PotentialFamily,
    _match_rows,
    algebra_from_three_point,
    check_cocycle,
    compose_perms,
    family_from_function,
    from_potential,
    idempotent_frames,
    invert_perm,
    monodromy,
    perm_cycles,
    transition_permutations,
)
from branekit.frobenius import diagonal_algebra, nilpotent_example
from branekit.poly import Polynomial

from conftest import (
    ANTIDIAG,
    circle_loop,
    circle_nerve,
    disk_nerve,
    quadratic_potential,
)


def line_nerve(points):
    return Nerve([Chart("c0", tuple(points))])


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
    for alg in family.algebras.values():
        assert alg.dim == 1
        assert abs(alg.c[0, 0, 0] - 1.0) < 1e-14
        assert abs(alg.trace[0] - 1.0) < 1e-14
        assert alg.validate().passed


def test_from_potential_two_dimensional_associative(circle_family):
    family, _ = circle_family
    for alg in family.algebras.values():
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
    tracks = frames.frames["c0"]
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
        got = frames.frames["c0"][s]
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
    assert cover.transitions[("a", "b")] == (0, 1)


def test_single_chart_no_transitions(circle_family):
    family, _ = circle_family
    nerve1 = Nerve([Chart("only", (((0.0, 1.0)),))])
    fam1 = family_from_function(nerve1, lambda p: diagonal_algebra([1.0, 2.0]))
    cover = transition_permutations(idempotent_frames(fam1), nerve1)
    assert cover.transitions == {}


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


def test_check_cocycle_detects_corruption():
    nerve = disk_nerve()
    family = from_potential(quadratic_potential(), nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    bad = dict(cover.transitions)
    key = ("p0", "p1")
    bad[key] = invert_perm(compose_perms(bad[key], (1, 0)))
    cover.transitions = bad
    report = check_cocycle(cover)
    assert not report.passed
    assert any("triangle" in (r.location or "") for r in report.failures())


def test_sheet_measure_constant_family():
    nerve = line_nerve([(0.0,), (1.0,)])
    family = family_from_function(nerve, lambda p: diagonal_algebra([2.0, 3.0]))
    cover = transition_permutations(idempotent_frames(family), nerve)
    values = cover.frames.weights["c0"]
    assert np.allclose(sorted(np.real(values[0])), [2.0, 3.0])
    assert np.allclose(values[0], values[1])


def test_sheet_measure_sums_to_unit_trace(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    for cid, track in cover.frames.weights.items():
        for s, weights in enumerate(track):
            alg = family.algebras[(cid, s)]
            total = weights.sum()
            assert abs(total - alg.theta(alg.unit)) < 1e-9


def test_sheet_measure_permutes_along_edges(circle_family):
    family, nerve = circle_family
    cover = transition_permutations(idempotent_frames(family), nerve)
    values = cover.frames.weights
    for (a, b), u in cover.transitions.items():
        point = nerve.shared_points(a, b)[0]
        ia = nerve.charts[a].samples.index(point)
        ib = nerve.charts[b].samples.index(point)
        for i in range(cover.n):
            assert abs(values[a][ia][i] - values[b][ib][u[i]]) < 1e-9


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
    with pytest.raises(InputError):
        Nerve([Chart("a", ((0.0,),)), Chart("b", ((1.0,),))], edges=[("a", "b")])
    with pytest.raises(InputError):
        Nerve([Chart("a", ((0.0,),)), Chart("a", ((1.0,),))])


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
    frames.frames["b"][0] = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(AmbiguousMatching):
        transition_permutations(frames, nerve)


def per_sample_frames(family, seed=0):
    """Reference: the per-sample loop that the batched `idempotent_frames`
    replaced, one `idempotent_basis` per sample and each later sample matched
    to its predecessor."""
    frames, weights = {}, {}
    algebras = family.algebras
    for cid in family.nerve.chart_order:
        frames[cid], weights[cid] = [], []
        prev = None
        for idx in range(len(family.nerve.charts[cid].samples)):
            try:
                basis = algebras[(cid, idx)].idempotent_basis(seed=seed)
            except NotSemisimple as exc:
                raise NotSemisimpleAtPoint((cid, idx), str(exc)) from exc
            idem, w = basis.idempotents, basis.weights
            if prev is not None:
                order = _match_rows(prev, idem, f"{cid}[{idx}]", AmbiguousTracking)
                idem, w = idem[order], w[order]
            frames[cid].append(idem)
            weights[cid].append(w)
            prev = idem
    return ChartFrames(frames, weights)


def frames_outcome(fn, family, seed=0):
    """Every frame and weight as raw bytes, or the exception's type and message."""
    try:
        frames = fn(family, seed=seed)
    except BranekitError as exc:
        return type(exc), str(exc)
    return [(cid, [f.tobytes() for f in frames.frames[cid]],
             [w.tobytes() for w in frames.weights[cid]]) for cid in family.nerve.chart_order]


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
        tracked += isinstance(got, list)
    assert tracked >= 3


def test_first_failing_sample_in_chart_order_raises():
    def family(bad):
        """Seven samples of C^2; `bad` maps a sample index to another algebra."""
        nerve = line_nerve([(float(k),) for k in range(7)])
        return family_from_function(
            nerve, lambda p: bad.get(int(p[0].real), diagonal_algebra([2.0, 3.0])))

    nilpotent, zero_weight = nilpotent_example(), diagonal_algebra([1.0, 0.0])
    with pytest.raises(NotSemisimpleAtPoint) as exc:
        idempotent_frames(family({3: nilpotent, 5: zero_weight}))
    ok, diagnostics = nilpotent.is_semisimple()
    assert not ok and exc.value.point == ("c0", 3)
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


def test_nerve_without_samples_is_an_input_error():
    with pytest.raises(InputError, match="no sample point"):
        from_potential(quadratic_potential(), Nerve([Chart("a", ())]))


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
