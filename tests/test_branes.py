import numpy as np
import pytest

from branekit import branes
from branekit.branes import (
    embed_endomorphism,
    BraneLabel,
    ClosedSector,
    ClosedState,
    basis_state,
    check_adjoint,
    check_cardy,
    check_centrality,
    check_sewing,
    compose,
    direct_sum_label,
    endomorphism_algebra,
    generator_labels,
    hom_dimension,
    identity_hom,
    iota_a,
    iota_upper_a,
    matrix_unit_basis,
    pi_basis,
    pi_formula,
    random_hom,
    split_endomorphism,
    split_idempotent,
    tensor_label,
    theta_a,
    unit_state,
    zero_hom,
    zero_label,
    HomSpace,
)
from branekit.errors import (
    DegenerateWeight,
    LabelMismatch,
    NotEndomorphism,
    NotIdempotent,
)
from branekit.frobenius import conjugate, diagonal_algebra
from branekit.tolerances import DEFAULT_TOL, Tolerance


def random_sector(rng, n):
    w = (rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
    return ClosedSector(w)


def random_label(rng, n, max_dim=4):
    return BraneLabel(tuple(int(d) for d in rng.integers(0, max_dim + 1, n)))


def test_sector_rejects_zero_weight():
    with pytest.raises(DegenerateWeight):
        ClosedSector([1.0, 0.0])


def test_sector_from_algebra():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sec = ClosedSector.from_algebra(conjugate(diagonal_algebra([4.0, 9.0]), p))
    assert sorted(np.round(np.real(sec.weights)).tolist()) == [4, 9]


def test_compose_identity_and_single_block():
    rng = np.random.default_rng(1)
    a = BraneLabel((2,))
    sigma = random_hom(rng, a, a)
    assert compose(identity_hom(a), sigma).sub(sigma).norm() < 1e-15
    # single-block composition is a plain matrix product
    tau = random_hom(rng, a, a)
    assert np.allclose(compose(sigma, tau).blocks[0], tau.blocks[0] @ sigma.blocks[0])


def test_compose_associativity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a, b, c, d = (random_label(rng, n, 3) for _ in range(4))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        h = random_hom(rng, c, d)
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        assert lhs.sub(rhs).norm() < 1e-12


def test_compose_label_mismatch():
    f = zero_hom(BraneLabel((1, 1)), BraneLabel((2, 0)))
    g = zero_hom(BraneLabel((1, 1)), BraneLabel((1, 1)))
    with pytest.raises(LabelMismatch):
        compose(f, g)


def test_theta_examples():
    sec = ClosedSector([1.0, 1.0])
    a = BraneLabel((1, 1))
    assert abs(theta_a(sec, identity_hom(a)) - 2.0) < 1e-14
    assert theta_a(sec, zero_hom(a, a)) == 0.0

    sec2 = ClosedSector([4.0, 9.0], roots=[2.0, 3.0])
    b = BraneLabel((2, 1))
    assert abs(theta_a(sec2, identity_hom(b)) - 7.0) < 1e-14


def test_theta_requires_endomorphism():
    sec = ClosedSector([1.0])
    with pytest.raises(NotEndomorphism):
        theta_a(sec, zero_hom(BraneLabel((1,)), BraneLabel((2,))))


def test_iota_examples():
    sec = ClosedSector([1.0, 1.0])
    a = BraneLabel((2, 3))
    assert iota_a(sec, a, unit_state(2)).sub(identity_hom(a)).norm() < 1e-15
    e1 = iota_a(sec, a, basis_state(2, 0))
    assert np.allclose(e1.blocks[0], np.eye(2))
    assert np.allclose(e1.blocks[1], np.zeros((3, 3)))


def test_iota_multiplicative():
    rng = np.random.default_rng(3)
    sec = random_sector(rng, 3)
    a = BraneLabel((2, 1, 3))
    for _ in range(10):
        x = ClosedState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        y = ClosedState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        lhs = iota_a(sec, a, x * y)
        rhs = compose(iota_a(sec, a, x), iota_a(sec, a, y))
        assert lhs.sub(rhs).norm() < 1e-12


def test_iota_upper_on_idempotent_image():
    sec = ClosedSector([1.0, 1.0], roots=[1.0, 1.0])
    a = BraneLabel((3, 2))
    sigma = iota_a(sec, a, basis_state(2, 0))
    x = iota_upper_a(sec, sigma)
    assert np.allclose(x.coords, [3.0, 0.0])  # trace of Id_3 over root 1


def test_pi_formula_examples():
    rng = np.random.default_rng(4)
    sec = random_sector(rng, 2)
    a = BraneLabel((2, 1))
    sigma = random_hom(rng, a, a)
    z = zero_label(2)
    assert pi_formula(sec, a, z, sigma).norm() == 0.0

    sec1 = ClosedSector([1.0])
    a1 = BraneLabel((1,))
    s = HomSpace(a1, a1, [np.array([[0.7 + 0.2j]])])
    assert abs(pi_formula(sec1, a1, a1, s).blocks[0][0, 0] - (0.7 + 0.2j)) < 1e-14


def test_pi_basis_matches_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sec = random_sector(rng, n)
        a = random_label(rng, n, 3)
        b = random_label(rng, n, 3)
        sigma = random_hom(rng, a, a)
        lhs = pi_basis(sec, a, b, sigma)
        rhs = pi_formula(sec, a, b, sigma)
        assert lhs.sub(rhs).norm() < 1e-10


def test_pi_basis_disjoint_supports_zero():
    sec = ClosedSector([1.0, 2.0])
    a = BraneLabel((2, 0))
    b = BraneLabel((0, 3))
    sigma = identity_hom(a)
    assert pi_basis(sec, a, b, sigma).norm() == 0.0


def test_pi_basis_invariance_under_basis_change():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        sec = random_sector(rng, n)
        a = random_label(rng, n, 3)
        b = random_label(rng, n, 3)
        units = matrix_unit_basis(a, b)
        if not units:
            continue
        m = len(units)
        sigma = random_hom(rng, a, a)
        out = []
        for _ in range(2):
            cmat = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            while np.linalg.cond(cmat) > 100:
                cmat = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            basis = []
            for nu in range(m):
                h = zero_hom(a, b)
                for k in range(m):
                    h = h.add(units[k].scale(cmat[nu, k]))
                basis.append(h)
            out.append(pi_basis(sec, a, b, sigma, basis_ab=basis))
        assert out[0].sub(out[1]).norm() < 1e-10


def test_check_cardy_cases():
    sec = ClosedSector([1.0, 4.0], roots=[1.0, 2.0])
    a = BraneLabel((2, 1))
    b = BraneLabel((1, 3))
    assert check_cardy(sec, [(a, b)]).passed
    assert check_cardy(sec, [(a, zero_label(2))]).passed
    assert check_cardy(sec, [(BraneLabel((8, 8)), BraneLabel((8, 3)))]).passed


def per_unit_cardy_residual(sec, a, b):
    """max over the matrix units sigma of E_aa of
    || sum_nu psi_nu sigma psi^nu - iota_b(iota^a(sigma)) ||, one einsum per
    sigma and block, with the duals from branes.dual_basis."""
    basis_ab = matrix_unit_basis(a, b)
    duals = branes.dual_basis(sec, basis_ab, matrix_unit_basis(b, a))
    worst = 0.0
    for sigma in matrix_unit_basis(a, a):
        lhs = HomSpace(b, b, [np.einsum("nxy,yz,nzw->xw",
                                        np.stack([h.blocks[i] for h in basis_ab]), s,
                                        np.stack([h.blocks[i] for h in duals]))
                              for i, s in enumerate(sigma.blocks)])
        worst = max(worst, lhs.sub(pi_formula(sec, a, b, sigma)).norm())
    return worst


def test_cardy_operator_form_detects_perturbed_duals(monkeypatch):
    # the residual 1e-6 / |lambda_i| peaks in block 1, so every block must be read
    sec = ClosedSector([2.0 + 1.0j, 0.5j, 1.5])
    a = BraneLabel((2, 1, 0))
    b = BraneLabel((1, 3, 2))
    exact = branes._dual_coefficients  # the inverse behind the duals of check_cardy and dual_basis
    monkeypatch.setattr(branes, "_dual_coefficients", lambda grams: exact(grams) * (1 + 1e-6))
    report = check_cardy(sec, [(a, b)])
    assert not report.passed
    assert abs(report.max_residual - per_unit_cardy_residual(sec, a, b)) <= 1e-15


def test_flip_root_keeps_validated_weights():
    # a weight accepted at a finer rank tolerance than the default
    sec = ClosedSector([1.0, 1e-10], tol=Tolerance(eps_rank=1e-12))
    flipped = sec.flip_root(0)
    assert np.array_equal(flipped.weights, sec.weights)
    assert np.array_equal(flipped.roots, [-1.0, 1e-5])
    assert np.array_equal(sec.roots, [1.0, 1e-5])


# -- batched trials against the per-trial loops they replaced ----------------
# Scalar references, one trial at a time, as the checks computed them before
# they were batched: the draws of a per-block `random_hom`, and theta_a,
# iota_a, iota^a and theta as Python sums and products of one trial's blocks.

def ref_random_hom(rng, a, b):
    return HomSpace(a, b, [rng.standard_normal((db, da)) + 1j * rng.standard_normal((db, da))
                           for da, db in zip(a.dims, b.dims)])


def ref_theta(sec, sigma):
    return complex(sum(r * np.trace(m) for r, m in zip(sec.roots, sigma.blocks)))


def ref_iota(a, x):
    return HomSpace(a, a, [x[i] * np.eye(d, dtype=complex) for i, d in enumerate(a.dims)])


def ref_closed_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def loop_sewing(sec, a, b, seed):
    """(per-trial draws, worst residual, scale) of the sewing loop."""
    rng = np.random.default_rng(seed)
    draws, worst, scale = [], 0.0, 1.0
    for _ in range(branes._TRIALS):
        phi = ref_random_hom(rng, a, b)
        psi = ref_random_hom(rng, b, a)
        lhs = ref_theta(sec, compose(phi, psi))
        rhs = ref_theta(sec, compose(psi, phi))
        draws.append(phi.blocks + psi.blocks)
        worst, scale = max(worst, abs(lhs - rhs)), max(scale, abs(lhs), abs(rhs))
    return draws, worst, scale


def loop_centrality(sec, a, b, seed):
    rng = np.random.default_rng(seed)
    draws, worst = [], 0.0
    for _ in range(branes._TRIALS):
        x = ref_closed_state(rng, sec.n)
        sigma = ref_random_hom(rng, a, b)
        lhs = compose(ref_iota(a, x), sigma)
        rhs = compose(sigma, ref_iota(b, x))
        draws.append([x] + sigma.blocks)
        worst = max(worst, max((float(np.max(np.abs(l - r)))
                                for l, r in zip(lhs.blocks, rhs.blocks) if l.size), default=0.0))
    return draws, worst, 1.0


def loop_adjoint(sec, a, seed):
    rng = np.random.default_rng(seed)
    draws, worst, scale = [], 0.0, 1.0
    for _ in range(branes._TRIALS):
        sigma = ref_random_hom(rng, a, a)
        x = ref_closed_state(rng, sec.n)
        up = np.array([np.trace(m) / r for r, m in zip(sec.roots, sigma.blocks)], dtype=complex)
        lhs = complex(np.dot(up * x, sec.weights))
        rhs = ref_theta(sec, compose(ref_iota(a, x), sigma))
        draws.append(sigma.blocks + [x])
        worst, scale = max(worst, abs(lhs - rhs)), max(scale, abs(lhs), abs(rhs))
    return draws, worst, scale


ORACLE_CHECKS = [
    ("sewing_symmetry", lambda s, a, b, seed: check_sewing(s, [(a, b)], seed=seed), loop_sewing),
    ("centrality", lambda s, a, b, seed: check_centrality(s, [(a, b)], seed=seed),
     loop_centrality),
    ("adjoint", lambda s, a, b, seed: check_adjoint(s, [a], seed=seed),
     lambda s, a, b, seed: loop_adjoint(s, a, seed)),
]


@pytest.mark.parametrize("weights, roots, flip, a, b", [
    ([1.0, 4.0], [1.0, 2.0], None, (0, 0), (2, 1)),                  # the zero label
    ([1.0, 4.0], [1.0, 2.0], None, (2, 1), (0, 0)),
    ([2 + 1j, 0.5j, 1.5], None, None, (2, 0, 1), (0, 3, 2)),          # zero indices
    ([2 + 1j, 0.5j, 1.5], None, None, (1, 2, 0), (1, 2, 0)),          # a duplicate label
    ([0.7 - 0.3j], None, None, (3,), (2,)),                           # one index
    ([1.2 - 0.4j, -0.6j, 0.9 + 0.9j, -1.7], None, None, (6, 6, 6, 6), (6, 3, 1, 5)),
    ([1.0, 4.0, -9.0], [1.0, -2.0, 3j], 1, (2, 1, 2), (1, 3, 1)),    # explicit roots, flipped
])
def test_batched_checks_match_per_trial_loops(monkeypatch, weights, roots, flip, a, b):
    sec = ClosedSector(weights, roots=roots)
    sec = sec if flip is None else sec.flip_root(flip)
    a, b = BraneLabel(a), BraneLabel(b)
    drawn = []  # (offset in a trial's row, (1, trials, *shape) stack) of each gather
    draw = branes._draws
    monkeypatch.setattr(branes, "_draws", lambda z, widths, offsets, *rest: drawn.append(
        (int(offsets[0]), draw(z, widths, offsets, *rest))) or drawn[-1][1])
    for seed in (0, 3):
        for name, batched, loop in ORACLE_CHECKS:
            drawn.clear()
            (record,) = [r for r in batched(sec, a, b, seed).records if r.name == name]
            draws, worst, scale = loop(sec, a, b, seed)
            sizes = [block.size for block in draws[0]]
            starts = (2 * (np.cumsum(sizes) - sizes)).tolist()
            # every block that has entries is read, once
            stacks = dict(drawn)
            assert len(stacks) == len(drawn), name
            assert sorted(stacks) == [k for k, size in zip(starts, sizes) if size], name
            for t, trial in enumerate(draws):
                for k, block in zip(starts, trial, strict=True):
                    if block.size:
                        assert np.array_equal(stacks[k][0, t], block), (name, seed, t)
            ulps = 4 * np.finfo(float).eps
            assert abs(record.residual - worst) <= ulps * scale, name
            assert abs(record.bound - DEFAULT_TOL.bound(name, scale)) <= ulps * record.bound
            assert record.passed == DEFAULT_TOL.passes(name, worst, scale)


def test_one_trial_maps_match_scalar_references():
    # bitwise: numpy's array complex product and abs round differently from
    # the scalar ones, which the reports of the per-trial loop used
    sec = ClosedSector([2 + 1j, -0.5 + 0.5j, 1.5 - 2j]).flip_root(0)
    a = BraneLabel((2, 0, 3))
    for seed in range(20):
        sigma = random_hom(np.random.default_rng(seed), a, a)
        for m, r in zip(sigma.blocks, ref_random_hom(np.random.default_rng(seed), a, a).blocks):
            assert np.array_equal(m, r)
        x = ref_closed_state(np.random.default_rng(seed + 100), sec.n)
        assert theta_a(sec, sigma) == ref_theta(sec, sigma)
        for m, r in zip(iota_a(sec, a, ClosedState(x)).blocks, ref_iota(a, x).blocks):
            assert np.array_equal(m, r)
        assert np.array_equal(iota_upper_a(sec, sigma).coords,
                              [np.trace(m) / r for r, m in zip(sec.roots, sigma.blocks)])
    rng = np.random.default_rng(0)
    for _ in range(50):
        lhs, rhs = ref_closed_state(rng, 1), ref_closed_state(rng, 1)
        l, r = complex(lhs[0]), complex(rhs[0])
        assert branes._scalar_residual(lhs, rhs) == (abs(l - r), max(1.0, abs(l), abs(r)))


@pytest.mark.parametrize("check", [check_cardy, check_sewing, check_centrality])
@pytest.mark.parametrize("a, b", [((1, 2), (1, 2, 0)), ((0, 0, 0), (0, 0))])
def test_checks_reject_labels_over_different_sectors(check, a, b):
    sec = ClosedSector([1.0, 4.0])
    with pytest.raises(LabelMismatch):
        check(sec, [(BraneLabel(a), BraneLabel(b))])


def test_cardy_gauge_invariance():
    rng = np.random.default_rng(7)
    sec = random_sector(rng, 3)
    a = BraneLabel((2, 1, 2))
    b = BraneLabel((1, 2, 1))
    r1 = check_cardy(sec, [(a, b)]).max_residual
    r2 = check_cardy(sec.flip_root(1), [(a, b)]).max_residual
    assert abs(r1 - r2) < 1e-12


def test_check_sewing_cases():
    sec1 = ClosedSector([1.0])
    a1 = BraneLabel((1,))
    assert check_sewing(sec1, [(a1, a1)]).passed

    sec = ClosedSector([1.0, 2.0])
    assert check_sewing(sec, [(BraneLabel((2, 0)), BraneLabel((0, 1)))]).passed  # vacuous

    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        s = random_sector(rng, n)
        rep = check_sewing(s, [(random_label(rng, n), random_label(rng, n))])
        assert rep.passed, str(rep)


def test_check_centrality_cases():
    rng = np.random.default_rng(9)
    sec = random_sector(rng, 3)
    a = random_label(rng, 3)
    b = random_label(rng, 3)
    assert check_centrality(sec, [(a, b)]).passed

    # X = e_i restricts sigma to block i on both sides
    sigma = random_hom(rng, a, b)
    x = basis_state(3, 1)
    lhs = compose(iota_a(sec, a, x), sigma)
    rhs = compose(sigma, iota_a(sec, b, x))
    assert lhs.sub(rhs).norm() < 1e-13
    assert np.allclose(lhs.blocks[1], sigma.blocks[1])


def test_check_adjoint_cases():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        sec = random_sector(rng, n)
        assert check_adjoint(sec, [random_label(rng, n)]).passed


def test_direct_sum_label_and_additivity():
    sec = ClosedSector([1.0, 2.0])
    a = BraneLabel((1, 0))
    b = BraneLabel((0, 2))
    assert direct_sum_label(a, zero_label(2)) == a
    assert direct_sum_label(a, b) == BraneLabel((1, 2))

    rng = np.random.default_rng(11)
    n = 3
    s = random_sector(rng, n)
    a, b, c = (random_label(rng, n, 3) for _ in range(3))
    ab = direct_sum_label(a, b)
    sigma = random_hom(rng, ab, ab)
    s11, _, _, s22 = split_endomorphism(a, b, sigma)
    lhs = pi_basis(s, ab, c, sigma)
    rhs = pi_basis(s, a, c, s11).add(pi_basis(s, b, c, s22))
    assert lhs.sub(rhs).norm() < 1e-12

    # theta and iota^ are additive on the diagonal corners
    assert abs(theta_a(s, sigma) - theta_a(s, s11) - theta_a(s, s22)) < 1e-12
    lhs_up = iota_upper_a(s, sigma).coords
    rhs_up = iota_upper_a(s, s11).coords + iota_upper_a(s, s22).coords
    assert np.max(np.abs(lhs_up - rhs_up)) < 1e-12

    # iota on the sum is block-diagonal
    x = ClosedState(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert iota_a(s, ab, x).sub(
        embed_endomorphism(a, b, iota_a(s, a, x), iota_a(s, b, x))).norm() < 1e-13


def test_tensor_label():
    a = BraneLabel((1, 2))
    assert tensor_label(1, a) == a
    assert tensor_label(0, a) == zero_label(2)
    b3 = tensor_label(3, a)
    assert b3 == BraneLabel((3, 6))
    b = BraneLabel((2, 1))
    assert hom_dimension(b3, b) == 3 * hom_dimension(a, b)
    assert tensor_label([2, 5], a) == BraneLabel((2, 10))


def test_split_idempotent():
    sec = ClosedSector([1.0, 2.0])
    a = BraneLabel((2, 1))
    k, i = split_idempotent(sec, a, identity_hom(a))
    assert k == zero_label(2) and i == a
    k, i = split_idempotent(sec, a, zero_hom(a, a))
    assert k == a and i == zero_label(2)

    sigma = HomSpace(a, a, [np.diag([1.0, 0.0]), np.zeros((1, 1))])
    k, i = split_idempotent(sec, a, sigma)
    assert i == BraneLabel((1, 0)) and k == BraneLabel((1, 1))
    assert direct_sum_label(k, i) == a

    with pytest.raises(NotIdempotent):
        split_idempotent(sec, a, identity_hom(a).scale(0.5))


@pytest.mark.parametrize("blocks", [[[[1.0]], [[np.nan]]], [[[np.nan]], [[1.0]]]],
                         ids=["nan_last", "nan_first"])
def test_a_nan_block_is_kept_by_norm_and_fails_the_idempotent_law(blocks):
    sec = ClosedSector([1.0, 2.0])
    a = BraneLabel((1, 1))
    sigma = HomSpace(a, a, blocks)
    assert np.isnan(sigma.norm())
    with pytest.raises(NotIdempotent, match="nan"):
        split_idempotent(sec, a, sigma)
    assert HomSpace(a, a, [[[1.0]], [[-3j]]]).norm() == 3.0
    assert zero_hom(zero_label(2), zero_label(2)).norm() == 0.0


def test_generator_labels_and_decomposition():
    sec = ClosedSector([1.0, 2.0])
    gens = generator_labels(sec)
    assert [g.dims for g in gens] == [(1, 0), (0, 1)]

    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        s = random_sector(rng, n)
        gens = generator_labels(s)
        a = random_label(rng, n)
        b = random_label(rng, n)
        total = sum(hom_dimension(a, xi) * hom_dimension(xi, b) for xi in gens)
        assert total == hom_dimension(a, b)
        for i, xi in enumerate(gens):
            assert b.dims[i] == hom_dimension(xi, b)


def test_hom_dimension_formula():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = random_label(rng, n)
        b = random_label(rng, n)
        assert hom_dimension(a, b) == len(matrix_unit_basis(a, b))


def test_endomorphism_algebra_multiplicity_one():
    sec = ClosedSector([2.0, 3.0, 5.0])
    a = BraneLabel((1, 0, 1))
    alg = endomorphism_algebra(sec, a)
    assert alg.validate().passed
    basis = alg.idempotent_basis()
    # theta_a restricted to the surviving idempotents gives the roots
    assert sorted(np.round(np.real(basis.weights ** 2)).tolist()) == [2, 5]


def test_endomorphism_algebra_center_dimension():
    sec = ClosedSector([1.0, 2.0, 3.0])
    a = BraneLabel((2, 0, 3))
    alg = endomorphism_algebra(sec, a)
    # center of (+) M_d: solve z*u = u*z over the basis; dim = #{i: d_i > 0}
    m = alg.dim
    rows = []
    for nu in range(m):
        u = np.zeros(m)
        u[nu] = 1.0
        lu = alg.mult_operator(u)
        ru = np.einsum("i,jik->kj", u, alg.c)  # right multiplication by u
        rows.append(lu - ru)
    system = np.vstack(rows)
    sv = np.linalg.svd(system, compute_uv=False)
    center_dim = int(np.sum(sv <= 1e-10 * max(1.0, sv[0])))
    assert center_dim == 2


def test_iota_images_commute_blockwise():
    rng = np.random.default_rng(14)
    sec = random_sector(rng, 2)
    a = BraneLabel((3, 2))
    x = ClosedState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    ix = iota_a(sec, a, x)
    sigma = random_hom(rng, a, a)
    assert compose(ix, sigma).sub(compose(sigma, ix)).norm() < 1e-12
