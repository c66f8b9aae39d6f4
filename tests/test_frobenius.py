import numpy as np
import pytest

from branekit.errors import (
    BranekitError,
    DegenerateWeight,
    NotSemisimple,
    ShapeMismatch,
)
from branekit.family import algebra_from_three_point
from branekit.frobenius import (
    FrobeniusAlgebra,
    IdempotentBasis,
    associativity_certificate,
    canonical_order,
    change_basis,
    conjugate,
    diagonal_algebra,
    direct_sum,
    law_residuals,
    nilpotent_example,
    quadratic_extension,
)
from branekit.tolerances import DEFAULT_TOL, Tolerance
from conftest import perfbench_workloads
from test_family import einsum_associativity, random_unital_three_point


def random_invertible(rng, n, cond_cap=50.0):
    while True:
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(p) < cond_cap:
            return p


def test_validate_componentwise_product_passes():
    a = diagonal_algebra([1.0, 1.0])
    report = a.validate()
    assert report.passed, str(report)


def test_validate_flags_commutativity_violation():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 0.5  # breaks c[0][1][k] == c[1][0][k]
    a = FrobeniusAlgebra(c, [1.0, 0.0], [0.0, 1.0])
    report = a.validate()
    failed = {r.name for r in report.failures()}
    assert "commutativity" in failed


def test_validate_nilpotent_but_frobenius():
    # Gram of C[x]/(x^2) with theta=(0,1) is the swap matrix: nondegenerate.
    a = nilpotent_example()
    report = a.validate()
    assert report.passed, str(report)
    assert np.allclose(a.metric(), [[0, 1], [1, 0]])


def test_validate_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        FrobeniusAlgebra(np.zeros((2, 2, 3)), [1, 0], [0, 1])
    with pytest.raises(ShapeMismatch):
        FrobeniusAlgebra(np.zeros((2, 2, 2)), [1, 0, 0], [0, 1])
    with pytest.raises(ShapeMismatch):
        FrobeniusAlgebra(np.full((1, 1, 1), np.nan), [1], [1])


def test_metric_examples():
    assert np.allclose(diagonal_algebra([1, 1]).metric(), np.eye(2))
    # (a+bx)(c+dx) = ac + (ad+bc)x in C[x]/(x^2), theta picks the x part
    assert np.allclose(nilpotent_example().metric(), [[0, 1], [1, 0]])
    # x*x = 1 and theta(x) = 0 gives the identity Gram
    assert np.allclose(quadratic_extension(1.0).metric(), np.eye(2))


def test_frobenius_iso_examples():
    # the Frobenius isomorphism A -> A*, x |-> theta(x . -), is the metric
    for a in (diagonal_algebra([1, 1]), nilpotent_example()):
        phi = a.metric()
        n = a.dim
        for i in range(n):
            x = np.eye(n)[i]
            functional = [a.trace @ a.multiply(x, np.eye(n)[j]) for j in range(n)]
            assert np.allclose(phi @ x, functional)
        assert abs(np.linalg.det(phi)) > 0.5


def test_three_point_examples():
    one = FrobeniusAlgebra(np.ones((1, 1, 1)), [1.0], [2.5])
    assert np.allclose(one.three_point(), [[[2.5]]])

    a = diagonal_algebra([1.0, 1.0])
    c3 = a.three_point()
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 1.0
    assert np.allclose(c3, expected)


def test_three_point_symmetry_random_algebra():
    rng = np.random.default_rng(7)
    base = diagonal_algebra(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    a = conjugate(base, random_invertible(rng, 4))
    c3 = a.three_point()
    for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        assert np.max(np.abs(c3 - c3.transpose(perm))) < 1e-9


def test_metric_module_law_and_trace_recovery():
    rng = np.random.default_rng(11)
    base = diagonal_algebra(rng.standard_normal(3) + 2.0)
    a = conjugate(base, random_invertible(rng, 3))
    phi = a.metric()
    n = a.dim
    # Phi(z x) = z . Phi(x), i.e. g(z b_i, b_j) = g(b_i, z b_j), on basis pairs
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lz = a.mult_operator(z)
    assert np.max(np.abs(lz.T @ phi - phi @ lz)) < 1e-10
    # theta(x) = <Phi(x), e>
    for i in range(n):
        x = np.zeros(n)
        x[i] = 1.0
        assert abs((phi @ x) @ a.unit - a.trace[i]) < 1e-10


def test_is_semisimple_componentwise_true():
    witness = diagonal_algebra([1.0, 2.0, 3.0]).idempotent_basis()
    assert witness.idempotents.shape == (3, 3)


def test_is_semisimple_nilpotent_false():
    with pytest.raises(NotSemisimple) as exc:
        nilpotent_example().idempotent_basis()
    assert exc.value.args[0]["attempts"] == 8


def test_quadratic_extension_idempotents():
    a = quadratic_extension(1.0)
    basis = a.idempotent_basis()
    got = sorted(basis.idempotents.tolist(), key=lambda v: v[1].real)
    assert np.allclose(got, [[0.5, -0.5], [0.5, 0.5]], atol=1e-10)
    assert np.allclose(basis.weights, [0.5, 0.5])


def test_idempotent_basis_single_dim():
    a = FrobeniusAlgebra(np.ones((1, 1, 1)), [1.0], [3.0])
    basis = a.idempotent_basis()
    assert np.allclose(basis.idempotents, [[1.0]])
    assert np.allclose(basis.weights, [3.0])


def well_conditioned(rng, n, cond=3.0):
    """U diag(s) W with unitary U, W and singular values s in [1, cond]."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.uniform(1.0, cond, n)
    s[0], s[-1] = 1.0, cond
    return (u * s) @ w


def test_idempotent_recovery_under_conjugation():
    rng = np.random.default_rng(3)
    # large n: a well-conditioned P (condition 3) and a random P (condition < 50)
    cases = [(n, random_invertible) for n in (2, 4, 6)]
    cases += [(48, well_conditioned), (32, random_invertible)]
    for n, make_p in cases:
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 2.0
        p = make_p(rng, n)
        a = conjugate(diagonal_algebra(weights), p)
        basis = a.idempotent_basis(seed=5)
        # idempotents of the conjugated algebra are the columns of P
        expected = p.T.copy()
        err = _match_up_to_permutation(basis.idempotents, expected)
        assert err < 1e-9


def test_idempotent_basis_seed_independence():
    rng = np.random.default_rng(21)
    a = conjugate(diagonal_algebra([2.0, 1.0 + 1j, -3.0]), random_invertible(rng, 3))
    b1 = a.idempotent_basis(seed=0)
    b2 = a.idempotent_basis(seed=12345)
    assert np.max(np.abs(b1.idempotents - b2.idempotents)) < 1e-10
    assert np.max(np.abs(b1.weights - b2.weights)) < 1e-10


def test_idempotent_rank_one_components():
    rng = np.random.default_rng(2)
    a = conjugate(diagonal_algebra([1.0, 2.0, 3.0, 4.0]), random_invertible(rng, 4))
    basis = a.idempotent_basis()
    for e in basis.idempotents:
        sv = np.linalg.svd(a.mult_operator(e), compute_uv=False)
        assert np.sum(sv > 1e-8 * sv[0]) == 1


def test_theta_equals_metric_against_unit():
    rng = np.random.default_rng(17)
    a = conjugate(diagonal_algebra([1.0, 2.0 + 1j]), random_invertible(rng, 2))
    g = a.metric()
    assert np.max(np.abs(g @ a.unit - a.trace)) < 1e-10


def test_direct_sum_examples():
    s = direct_sum(
        FrobeniusAlgebra(np.ones((1, 1, 1)), [1.0], [2.0]),
        FrobeniusAlgebra(np.ones((1, 1, 1)), [1.0], [3.0]),
    )
    assert s.dim == 2
    basis = s.idempotent_basis()
    assert sorted(np.real(basis.weights).tolist()) == [2.0, 3.0]

    semi = direct_sum(diagonal_algebra([1.0, 2.0]), diagonal_algebra([3.0]))
    assert semi.validate().passed
    assert semi.idempotent_basis().idempotents.shape == (3, 3)

    mixed = direct_sum(FrobeniusAlgebra(np.ones((1, 1, 1)), [1.0], [1.0]),
                       nilpotent_example())
    assert mixed.validate().passed
    with pytest.raises(NotSemisimple):
        mixed.idempotent_basis()


def test_not_semisimple_raises():
    with pytest.raises(NotSemisimple):
        nilpotent_example().idempotent_basis()


def test_retry_budget_rescues_an_ill_conditioned_conjugate(monkeypatch):
    # a conjugate of C^8 by P with cond(P) = 1e3, built as the benchmark's algebra
    # ladder builds its rungs: the first eig attempt misses the residual bound, a
    # later one passes
    workloads = perfbench_workloads()
    rng = np.random.default_rng(3)
    w = workloads.weights(rng, 8)
    p = workloads.well_conditioned(rng, 8, 1e3)
    alg = FrobeniusAlgebra(*workloads.conjugated_diagonal(w, p))
    basis = alg.idempotent_basis()
    assert _match_up_to_permutation(basis.idempotents, p.T) < 1e-6
    monkeypatch.setattr("branekit.frobenius._RETRY_BUDGET", 1)
    with pytest.raises(NotSemisimple) as exc:
        alg.idempotent_basis()
    assert exc.value.args[0]["attempts"] == 1


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps_structural=0.0)


def _match_up_to_permutation(got, expected):
    """Greedy row matching; returns the max coordinate error."""
    n = got.shape[0]
    used = set()
    worst = 0.0
    for i in range(n):
        dists = [np.max(np.abs(got[i] - expected[j])) if j not in used else np.inf
                 for j in range(n)]
        j = int(np.argmin(dists))
        used.add(j)
        worst = max(worst, dists[j])
    return worst


def per_attempt_basis(alg, tol=DEFAULT_TOL, seed=0):
    """Reference: the single-algebra loop that `idempotent_stack` replaced,
    one eig, one solve and one residual per attempt for this algebra alone.
    The products e_a e_b come from the 2-D `change_basis`, the transport the
    stack applies to each of its algebras."""
    n = alg.dim
    rng = np.random.default_rng(seed)
    best = {"gap": 0.0, "residual": np.inf}
    for _ in range(8):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eigvals, v = np.linalg.eig(alg.mult_operator(a))
        radius = max(1.0, float(np.max(np.abs(eigvals))))
        gap = np.inf if n == 1 else float(np.min(
            np.abs(eigvals[:, None] - eigvals[None, :]) + np.diag([np.inf] * n)))
        best["gap"] = max(best["gap"], gap)
        if gap <= 1e-5 * radius:
            continue
        try:
            idem = (v * np.linalg.solve(v, alg.unit)).T
        except np.linalg.LinAlgError:
            continue
        prods = change_basis(alg.c, idem)
        prods[np.arange(n), np.arange(n)] -= idem
        residual = max(float(np.max(np.abs(prods))),
                       float(np.max(np.abs(idem.sum(axis=0) - alg.unit))))
        best["residual"] = min(best["residual"], residual)
        if tol.passes("idempotent_residual", residual, radius):
            weights = idem @ alg.trace
            if not tol.passes("idempotent_weight", np.min(np.abs(weights))):
                raise DegenerateWeight(f"idempotent weight {np.min(np.abs(weights)):.3e} "
                                       "is numerically zero")
            order = canonical_order(idem, weights)
            return IdempotentBasis(idem[order], weights[order])
    raise NotSemisimple({"attempts": 8, "best_eigenvalue_gap": best["gap"],
                         "best_idempotent_residual": best["residual"]})


def numpy_scalar_canonical_order(idem, weights):
    """Reference: the canonical order with its keys built from numpy scalars."""
    def r6(x):
        return round(float(x), 6) + 0.0

    def key(i):
        return (-r6(abs(weights[i])), tuple((r6(z.real), r6(z.imag)) for z in idem[i]))
    return sorted(range(idem.shape[0]), key=key)


def near_the_rounding_grid(rng, shape):
    """Values that round to 6 digits alike, sit next to a half-way point, or
    are signed zeros."""
    grid = rng.integers(-3, 4, shape) * 1e-6 + rng.choice([0.0, 5e-7], shape)
    return grid + rng.choice([0.0, 1e-13, -1e-13, -1e-9, -0.0], shape)


def test_canonical_order_equals_numpy_scalar_keys():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        if trial % 2:
            idem = (near_the_rounding_grid(rng, (n, n))
                    + 1j * near_the_rounding_grid(rng, (n, n)))
            weights = (0.5 + near_the_rounding_grid(rng, n)) * np.exp(2j * np.pi * rng.random(n))
            idem[rng.integers(n)] = idem[0]  # a row tie, decided by the weights or the index
            weights[rng.integers(n)] = weights[0]
        else:
            idem = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            weights = rng.standard_normal(n) + (1j * rng.standard_normal(n) if trial % 4 else 0)
        assert canonical_order(idem, weights) == numpy_scalar_canonical_order(idem, weights)


def outcome(fn, *args):
    """A basis as raw bytes, or the exception's type and message."""
    try:
        basis = fn(*args)
    except BranekitError as exc:
        return type(exc), str(exc)
    return basis.idempotents.tobytes(), basis.weights.tobytes()


def test_idempotent_basis_matches_the_per_attempt_loop():
    rng = np.random.default_rng(11)
    algebras = [conjugate(diagonal_algebra(rng.uniform(0.5, 2.0, n)), random_invertible(rng, n))
                for n in (1, 2, 3, 5, 8, 13)]
    # eigenvalues separate but the eigenvectors are no idempotents: finite best residual
    algebras.append(FrobeniusAlgebra(rng.standard_normal((3, 3, 3)), rng.standard_normal(3),
                                     rng.standard_normal(3)))
    algebras += [nilpotent_example(), diagonal_algebra([1.0, 0.0]),
                 direct_sum(nilpotent_example(), diagonal_algebra([1.0, 2.0]))]
    outcomes = set()
    for alg in algebras:
        for seed in (0, 3):
            got = outcome(alg.idempotent_basis, DEFAULT_TOL, seed)
            assert got == outcome(per_attempt_basis, alg, DEFAULT_TOL, seed)
            outcomes.add(got[0] if isinstance(got[0], type) else IdempotentBasis)
    assert outcomes == {IdempotentBasis, NotSemisimple, DegenerateWeight}


def test_law_residuals_of_a_stack_are_those_of_each_algebra():
    rng = np.random.default_rng(5)
    n = 4
    c = rng.standard_normal((6, n, n, n)) + 1j * rng.standard_normal((6, n, n, n))
    unit = rng.standard_normal((6, n)) + 0j
    stacked = law_residuals(c, unit)
    for p in range(6):
        alone = law_residuals(c[p:p + 1], unit[p:p + 1])
        for whole, single in zip(stacked, alone):
            assert np.array_equal(whole[p], single[0])
        # against the full (n,n,n,n) tensors, up to rounding in the sums
        full = np.abs(np.einsum("ijm,mkl->ijkl", c[p], c[p])
                      - np.einsum("jkm,iml->ijkl", c[p], c[p]))
        assert abs(stacked[3][p] - full.max()) <= 1e-13 * full.max()
        assert full[tuple(stacked[4][p])] >= (1 - 1e-13) * full.max()


# -- associativity in the idempotent frame ------------------------------------

def records(report):
    return [r.to_dict() for r in report.records]


def associativity_record(report):
    return next(r for r in report.records if r.name == "associativity")


def conjugated_diagonals(seed=16):
    """(algebra, P): conjugates of C^n by P with cond(P) = 3, 30 and 1e3."""
    rng = np.random.default_rng(seed)
    for n in (2, 5, 8, 16, 24):
        for cond in (3.0, 30.0, 1e3):
            w = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            p = well_conditioned(rng, n, cond)
            yield conjugate(diagonal_algebra(w), p), p


def assert_certificate_sound(alg, frame, tol=DEFAULT_TOL):
    """A formed certificate bounds the full-einsum defect, and a passing one
    means that `validate` without a frame, so by the direct check, passes."""
    cert = associativity_certificate(alg.c, frame)
    if cert is not None:
        assert cert >= einsum_associativity(alg.c).max()
        if tol.passes("associativity", cert, 2.0):
            assert alg.validate(tol).passed
    return cert


def test_change_basis_is_the_einsum_transport():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 8):
        c = rng.standard_normal((6, n, n, n)) + 1j * rng.standard_normal((6, n, n, n))
        left = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        stacked = change_basis(c, left)
        assert stacked.shape == c.shape
        for p in range(6):
            # each slice of a stack is the one-algebra transport, bit for bit
            alone = change_basis(c[p], left[p])
            assert stacked[p].tobytes() == alone.tobytes()
            expected = np.einsum("ai,bj,ijm->abm", left[p], left[p], c[p])
            assert np.max(np.abs(alone - expected)) < 1e-12 * max(1.0, np.max(np.abs(expected)))
    # a change of the output index, as the certificate and `conjugate` apply it
    n = 5
    c = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    left, right = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                   for _ in range(2))
    expected = np.einsum("ai,bj,ijm,mk->abk", left, left, c, right)
    assert np.max(np.abs(change_basis(c, left) @ right - expected)) < 1e-12


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("s", [1 / 64, 1.0, 64.0])
def test_certificate_is_attained_in_a_scaled_frame(n, s):
    # c'' = delta + R with e_0 e_0 = e_0 + eps e_1 and e_0 e_1 = eps e_1: the defect at
    # (0, 0, 1, 1) is 2 eps - eps^2, next to the linear term's bound 2 rho.  In the basis
    # b_i = e_i / s the defect is multiplied by kappa = ||Q||_inf^3 ||T||_1 = s^-2.
    eps = 2.0 ** -20
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    c[0, 0, 1] = c[0, 1, 1] = eps
    ref = einsum_associativity(c / s).max()
    assert ref == pytest.approx((2 * eps - eps * eps) / s ** 2, rel=1e-12)
    cert = associativity_certificate(c / s, s * np.eye(n))
    assert ref <= cert <= (1 + 1e-4) * ref


def test_certificate_bounds_the_defect_of_conjugates_of_cn():
    passed = 0
    for alg, p in conjugated_diagonals():
        try:
            basis = alg.idempotent_basis()
        except NotSemisimple:
            basis = None
        ok = basis is not None
        frames = [p.T] + ([basis.idempotents] if ok else [])
        for frame in frames:
            cert = assert_certificate_sound(alg, frame)
            assert cert is not None
            passed += DEFAULT_TOL.passes("associativity", cert, 2.0)
        if ok:
            record = associativity_record(alg.validate(DEFAULT_TOL, basis))
            assert record.passed
            assert (record.detail == "certified in the idempotent frame") == (
                DEFAULT_TOL.passes("associativity", associativity_certificate(
                    alg.c, basis.idempotents), 2.0))
    assert passed >= 10  # the cond 3 algebras at least, through both frames


@pytest.mark.parametrize("delta", [1e-13, 1e-11, 1e-9, 1e-6])
def test_certificate_bounds_the_defect_after_a_perturbation(delta):
    for alg, p in conjugated_diagonals(seed=17):
        n = alg.dim
        c = alg.c.copy()
        c[0, 1, n - 1] += delta
        assert_certificate_sound(FrobeniusAlgebra(c, alg.unit, alg.trace), p.T)


def test_certificate_bounds_random_three_point_tensors():
    rng = np.random.default_rng(1)
    g = np.eye(3)
    for _ in range(50):
        alg = algebra_from_three_point(random_unital_three_point(rng, g), g, 0)
        _, v = np.linalg.eig(alg.mult_operator(rng.standard_normal(3)))
        eig_frame = (v * np.linalg.solve(v, alg.unit)).T
        for frame in (eig_frame, np.eye(3), rng.standard_normal((3, 3))):
            assert assert_certificate_sound(alg, frame) is not None


def test_singular_or_non_finite_frames_fall_back_to_the_direct_check():
    rng = np.random.default_rng(8)
    alg = conjugate(diagonal_algebra([1.0, 2.0, 3.0]), well_conditioned(rng, 3))
    basis = alg.idempotent_basis()
    repeated = basis.idempotents.copy()
    repeated[2] = repeated[1]
    near = np.linalg.svd(basis.idempotents)
    near = (near[0] * [1.0, 1.0, 1e-17]) @ near[2]
    for frame in (np.zeros((3, 3)), repeated, near, 1e-310 * np.eye(3), np.full((3, 3), np.nan),
                  np.where(np.eye(3) > 0, np.inf, basis.idempotents)):
        assert associativity_certificate(alg.c, frame) is None
        report = alg.validate(DEFAULT_TOL, IdempotentBasis(frame, basis.weights))
        assert records(report) == records(alg.validate())
        assert associativity_record(report).detail == "direct check over all (i, j, k)"


def test_broken_associativity_is_located_by_the_direct_check():
    rng = np.random.default_rng(24)
    n = 24
    p = well_conditioned(rng, n)
    alg = conjugate(diagonal_algebra(rng.uniform(0.5, 2.0, n)), p)
    basis = alg.idempotent_basis()
    c = alg.c.copy()
    c[3, 5, 7] += 1e-6
    broken = FrobeniusAlgebra(c, alg.unit, alg.trace)
    assert associativity_certificate(c, basis.idempotents) > DEFAULT_TOL.bound(
        "associativity", 2.0)
    framed, plain = (broken.validate(DEFAULT_TOL, basis), broken.validate())
    assert records(framed) == records(plain)
    record = associativity_record(framed)
    assert not record.passed
    _, _, _, assoc, at = law_residuals(c[None], alg.unit[None])
    assert (record.residual, record.location) == (
        float(assoc[0]), f"(b_i b_j) b_k at {tuple(int(x) for x in at[0])}")
    assert record.detail == "direct check over all (i, j, k)"


def test_an_ill_conditioned_frame_leaves_the_verdict_to_the_direct_check():
    rng = np.random.default_rng(30)
    n = 8
    p = well_conditioned(rng, n, cond=30.0)
    alg = conjugate(diagonal_algebra(rng.uniform(0.5, 2.0, n)), p)
    basis = alg.idempotent_basis()
    cert = associativity_certificate(alg.c, basis.idempotents)
    assert cert > DEFAULT_TOL.bound("associativity", 2.0)
    framed = alg.validate(DEFAULT_TOL, basis)
    assert records(framed) == records(alg.validate())
    assert associativity_record(framed).passed
    assert associativity_record(framed).detail == "direct check over all (i, j, k)"
