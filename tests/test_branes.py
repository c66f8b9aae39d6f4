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
    assert check_cardy(sec, a, b).passed
    assert check_cardy(sec, a, zero_label(2)).passed
    assert check_cardy(sec, BraneLabel((8, 8)), BraneLabel((8, 3))).passed


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
    exact = branes.dual_basis
    monkeypatch.setattr(branes, "dual_basis", lambda *args, **kwargs: [
        d.scale(1 + 1e-6) for d in exact(*args, **kwargs)])
    report = check_cardy(sec, a, b)
    assert not report.passed
    assert abs(report.max_residual - per_unit_cardy_residual(sec, a, b)) <= 1e-15


def test_cardy_gauge_invariance():
    rng = np.random.default_rng(7)
    sec = random_sector(rng, 3)
    a = BraneLabel((2, 1, 2))
    b = BraneLabel((1, 2, 1))
    r1 = check_cardy(sec, a, b).max_residual
    r2 = check_cardy(sec.flip_root(1), a, b).max_residual
    assert abs(r1 - r2) < 1e-12


def test_check_sewing_cases():
    sec1 = ClosedSector([1.0])
    a1 = BraneLabel((1,))
    assert check_sewing(sec1, a1, a1).passed

    sec = ClosedSector([1.0, 2.0])
    assert check_sewing(sec, BraneLabel((2, 0)), BraneLabel((0, 1))).passed  # vacuous

    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        s = random_sector(rng, n)
        rep = check_sewing(s, random_label(rng, n), random_label(rng, n))
        assert rep.passed, str(rep)


def test_check_centrality_cases():
    rng = np.random.default_rng(9)
    sec = random_sector(rng, 3)
    a = random_label(rng, 3)
    b = random_label(rng, 3)
    assert check_centrality(sec, a, b).passed

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
        assert check_adjoint(sec, random_label(rng, n)).passed


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
    ok, basis = alg.is_semisimple()
    assert ok
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
