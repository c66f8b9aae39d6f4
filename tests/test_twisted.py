import numpy as np
import pytest

from branekit import twisted
from branekit.errors import InputError, NoWitnessFound, NotAutomorphism, ShapeMismatch
from branekit.family import Chart, Nerve
from branekit.twisted import (
    IsoWitness,
    TwistedBundle,
    azumaya_extract,
    dual,
    end,
    hom,
    line_between,
    psi,
    random_twisted_bundle,
    scalar_line,
    solve_iso,
    tensor,
    tpic_inv,
    tpic_mul,
    trivial_line,
    twist_key,
    validate,
    verify_iso,
)

OMEGA = np.exp(2j * np.pi / 3)


def three_chart_nerve():
    pt = ((0.0,),)
    charts = [Chart(c, pt) for c in ("0", "1", "2")]
    edges = [("0", "1"), ("0", "2"), ("1", "2")]
    return Nerve(charts, edges, triangles=[("0", "1", "2")])


def four_chart_nerve():
    pt = ((0.0,),)
    ids = ["0", "1", "2", "3"]
    charts = [Chart(c, pt) for c in ids]
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    triangles = [("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")]
    quadruples = [("0", "1", "2", "3")]
    return Nerve(charts, edges, triangles, quadruples)


def omega_line(nerve=None):
    """Rank-1 bundle with constant twist omega: g_01 = g_12 = 1, g_02 = 1/omega."""
    nerve = nerve or three_chart_nerve()
    values = {("0", "1"): 1.0, ("1", "2"): 1.0, ("0", "2"): 1.0 / OMEGA}
    return scalar_line(nerve, values)


def test_ordinary_bundle_validates():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=1, scalars={k: 1.0 for k in nerve.edge_set()})
    report = validate(e)
    assert report.passed, str(report)
    assert all(abs(v - 1.0) < 1e-12 for v in e.twist_values().values())


def test_omega_twisted_line_validates():
    e = omega_line()
    assert validate(e).passed
    lam = e.twist_of("0", "1", "2")
    assert abs(lam - OMEGA) < 1e-14


def test_violated_inverse_condition_flagged():
    nerve = three_chart_nerve()
    g = {("0", "1"): [[2.0]], ("1", "0"): [[3.0]],
         ("0", "2"): [[1.0]], ("1", "2"): [[1.0]]}
    e = TwistedBundle(nerve, 1, g)
    report = validate(e)
    assert not report.passed
    assert any(r.name == "transition_inverses" for r in report.failures())


def test_tensor_twists_multiply():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=2)
    f = random_twisted_bundle(nerve, 3, seed=3)
    ef = tensor(e, f)
    assert ef.rank == 6
    assert validate(ef).passed
    for t in nerve.triangles:
        assert abs(ef.twist_of(*t) - e.twist_of(*t) * f.twist_of(*t)) < 1e-10


def test_tensor_with_trivial_line_is_isomorphic():
    nerve = three_chart_nerve()
    e = omega_line(nerve)
    et = tensor(e, trivial_line(nerve))
    w = solve_iso(e, et)
    assert verify_iso(e, et, w).passed


def test_tensor_inverse_twists_give_ordinary():
    nerve = three_chart_nerve()
    e = omega_line(nerve)
    f = dual(e)
    ef = tensor(e, f)
    for t in nerve.triangles:
        assert abs(ef.twist_of(*t) - 1.0) < 1e-12


def test_dual_properties():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=4)
    d = dual(e)
    assert d.rank == e.rank
    assert validate(d).passed
    for t in nerve.triangles:
        assert abs(d.twist_of(*t) - 1.0 / e.twist_of(*t)) < 1e-10
    dd = dual(d)
    ident = IsoWitness({c: np.eye(e.rank) for c in nerve.chart_order})
    assert verify_iso(e, dd, ident).passed


def test_hom_equal_twists_is_ordinary():
    nerve = three_chart_nerve()
    scal = {("0", "1"): 1.7, ("1", "2"): 0.4 + 0.1j, ("0", "2"): 2.0}
    e = random_twisted_bundle(nerve, 2, seed=5, scalars=scal)
    f = random_twisted_bundle(nerve, 3, seed=6, scalars=scal)
    h = hom(e, f)
    assert h.rank == 6
    for t in nerve.triangles:
        assert abs(h.twist_of(*t) - 1.0) < 1e-12
    assert validate(h).passed


def test_end_of_trivial_rank2():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=7, scalars={k: 1.0 for k in nerve.edge_set()})
    a = end(e)
    assert a.rank == 4
    assert validate(a).passed
    # conjugation cocycles compose on triangles with no twist
    for (i, j, k) in nerve.triangles:
        res = np.max(np.abs(a.transition(i, j) @ a.transition(j, k) - a.transition(i, k)))
        assert res < 1e-10


def test_verify_iso_identity_and_roundtrip():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 3, seed=8)
    ident = IsoWitness({c: np.eye(3) for c in nerve.chart_order})
    assert verify_iso(e, e, ident).passed

    rng = np.random.default_rng(9)
    u = {c: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
         for c in nerve.chart_order}
    f = TwistedBundle(nerve, 3,
                      {key: u[key[0]] @ e.g[key] @ np.linalg.inv(u[key[1]])
                       for key in e.g})
    w = solve_iso(e, f)
    assert verify_iso(e, f, w).passed


def test_verify_iso_rejects_witness_missing_chart():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=8)
    w = IsoWitness({c: np.eye(2) for c in ("0", "2")})
    with pytest.raises(InputError, match="chart 1"):
        verify_iso(e, e, w)


def test_verify_iso_rejects_witness_of_wrong_shape():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=8)
    w = IsoWitness({c: np.eye(3 if c == "2" else 2) for c in nerve.chart_order})
    with pytest.raises(InputError, match="chart 2"):
        verify_iso(e, e, w)


def test_solve_iso_rejects_different_twists():
    nerve = three_chart_nerve()
    e = omega_line(nerve)
    f = trivial_line(nerve)
    with pytest.raises(NoWitnessFound):
        solve_iso(e, f)


def test_azumaya_extract_round_trip():
    for rank in (2, 3):
        for nerve in (three_chart_nerve(), four_chart_nerve()):
            e = random_twisted_bundle(nerve, rank, seed=rank)
            a = end(e)
            recovered, report = azumaya_extract(a)
            assert report.passed, str(report)
            assert validate(recovered).passed
            # END(recovered) is isomorphic back to the input
            w = solve_iso(end(recovered), a)
            assert verify_iso(end(recovered), a, w).passed
            # recovered equals e up to the twisted line of per-edge scalars
            line = line_between(recovered, e)
            back = tensor(recovered, line)
            ident = IsoWitness({c: np.eye(rank) for c in nerve.chart_order})
            assert verify_iso(back, e, ident).passed


def test_azumaya_extract_trivial_cocycles():
    nerve = three_chart_nerve()
    a = TwistedBundle(nerve, 4, {tuple(k): np.eye(4) for k in nerve.edge_set()})
    bundle, report = azumaya_extract(a)
    assert report.passed
    assert bundle.rank == 2
    for key in bundle.g:
        assert np.max(np.abs(bundle.g[key] - np.eye(2))) < 1e-10


def test_azumaya_extract_rejects_non_automorphism():
    nerve = three_chart_nerve()
    g = {tuple(k): np.eye(4) for k in nerve.edge_set()}
    g[("0", "1")] = np.diag([1.0, 2.0, 3.0, 4.0])  # invertible, not multiplicative
    with pytest.raises(NotAutomorphism):
        azumaya_extract(TwistedBundle(nerve, 4, g))


def test_azumaya_rejects_nonsquare_rank():
    nerve = three_chart_nerve()
    with pytest.raises(ShapeMismatch):
        azumaya_extract(random_twisted_bundle(nerve, 3, seed=1))


def matrix_unit(k, p, q):
    unit = np.zeros((k, k), dtype=complex)
    unit[p, q] = 1.0
    return unit


def unit_images(phi, k):
    """x[p, q] = phi(E_pq), the array azumaya_extract hands to its helpers."""
    return np.ascontiguousarray(phi.T).reshape(k, k, k, k)


def per_unit_automorphism_residual(phi, k):
    """|phi(1) - 1| and |phi(E_pq) phi(E_rs) - delta_qr phi(E_ps)|, applying
    phi to each matrix unit and multiplying one pair at a time."""
    images = {(p, q): (phi @ matrix_unit(k, p, q).reshape(-1)).reshape(k, k)
              for p in range(k) for q in range(k)}
    res = np.max(np.abs((phi @ np.eye(k).reshape(-1)).reshape(k, k) - np.eye(k)))
    for (p, q), xpq in images.items():
        for (r, s), xrs in images.items():
            target = images[(p, s)] if q == r else np.zeros((k, k))
            res = max(res, np.max(np.abs(xpq @ xrs - target)))
    return float(res)


def per_unit_conjugation_residual(phi, g, k):
    """max over matrix units X of |phi(X) - g X g^{-1}|."""
    ginv = np.linalg.inv(g)
    return max(float(np.max(np.abs((phi @ matrix_unit(k, p, q).reshape(-1)).reshape(k, k)
                                   - g @ matrix_unit(k, p, q) @ ginv)))
               for p in range(k) for q in range(k))


def per_column_conjugator(phi, k, rng):
    """g[:, p] = phi(E_p1) phi(E_11) v, one column at a time."""
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    w = (phi @ matrix_unit(k, 0, 0).reshape(-1)).reshape(k, k) @ v
    g = np.empty((k, k), dtype=complex)
    for p in range(k):
        g[:, p] = (phi @ matrix_unit(k, p, 0).reshape(-1)).reshape(k, k) @ w
    return g


def perturbed_algebra_bundle(k):
    """END of a random rank-k bundle with the image of E_{k,k-1} on edge
    (0, 1) scaled by 1 + 1e-6: the defect sits in the last unit images."""
    a = end(random_twisted_bundle(three_chart_nerve(), k, seed=k))
    phi = a.g[("0", "1")].copy()
    phi[:, (k - 1) * k + k - 2] *= 1 + 1e-6
    a.g[("0", "1")] = phi
    return a, phi


@pytest.mark.parametrize("k", [2, 3, 4])
def test_automorphism_residual_closed_form_detects_perturbed_image(k):
    a, phi = perturbed_algebra_bundle(k)
    res = twisted._automorphism_residual(unit_images(phi, k))
    assert abs(res - per_unit_automorphism_residual(phi, k)) <= 1e-15
    with pytest.raises(NotAutomorphism):
        azumaya_extract(a)
    exact = a.g[("0", "2")]
    res = twisted._automorphism_residual(unit_images(exact, k))
    assert res < 1e-12
    assert abs(res - per_unit_automorphism_residual(exact, k)) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 4])
def test_conjugator_and_residual_closed_forms_match_per_unit_loops(k):
    a, _ = perturbed_algebra_bundle(k)
    residuals = {}
    for edge, phi in a.g.items():
        g = twisted._conjugator(unit_images(phi, k), np.random.default_rng(k))
        ref = per_column_conjugator(phi, k, np.random.default_rng(k))
        assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))
        residuals[edge] = twisted._conjugation_residual(phi, g)
        assert abs(residuals[edge] - per_unit_conjugation_residual(phi, g, k)) <= 1e-15
    # the perturbed edge is no conjugation: its residual sees the 1e-6 defect
    assert residuals[("0", "1")] > 1e-8 > max(residuals[("0", "2")], residuals[("1", "2")])


def per_root_fix_unit_root(g, k):
    """Try each k-th root of unity in turn; None when rounding puts the
    leading entry's rotated phase outside (-pi/k, pi/k] for every root."""
    flat = g.reshape(-1)
    cutoff = 0.5 * float(np.max(np.abs(flat)))
    lead = next(z for z in flat if abs(z) >= cutoff)
    for m in range(k):
        omega = np.exp(2j * np.pi * m / k)
        if -np.pi / k < np.angle(omega * lead) <= np.pi / k:
            return omega * g
    return None


def with_lead(rng, k, lead):
    """A k x k matrix whose leading entry (first of near-maximal modulus) is
    lead: entry (0, 0) stays below half of |lead|, a later one exceeds it."""
    g = 0.3 * (rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k)))
    g[0, 1] = lead
    g[k - 1, k - 1] = 1.5 * lead
    return g


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fix_unit_root_closed_form_matches_root_loop(k):
    rng = np.random.default_rng(30 + k)
    for theta in rng.uniform(-np.pi, np.pi, 500):
        g = with_lead(rng, k, rng.uniform(0.5, 2.0) * np.exp(1j * theta))
        out = twisted._fix_unit_root(g, k)
        assert np.array_equal(out, per_root_fix_unit_root(g, k))
        assert -np.pi / k - 1e-12 < np.angle(out[0, 1]) <= np.pi / k + 1e-12
    # at the ends of (-pi/k, pi/k]: +pi/k is kept, -pi/k is rotated to +pi/k
    for lead, m in ((np.exp(1j * np.pi / k), 0), (np.exp(-1j * np.pi / k), 1)):
        g = with_lead(rng, k, lead)
        out = twisted._fix_unit_root(g, k)
        assert np.array_equal(out, np.exp(2j * np.pi * m / k) * g)
        ref = per_root_fix_unit_root(g, k)
        assert ref is None or np.array_equal(out, ref)


def test_tpic_group_laws():
    nerve = three_chart_nerve()
    one = trivial_line(nerve)
    l = omega_line(nerve)

    # unit
    w = solve_iso(tpic_mul(l, one), l)
    assert w is not None

    # inverse: l * inv(l) is isomorphic to the trivial line
    prod = tpic_mul(l, tpic_inv(l))
    for t in nerve.triangles:
        assert abs(prod.twist_of(*t) - 1.0) < 1e-12
    w = solve_iso(prod, one)
    assert verify_iso(prod, one, w).passed

    # commutativity on random pairs
    rng = np.random.default_rng(10)
    for s in range(5):
        a = random_twisted_bundle(nerve, 1, seed=100 + s)
        b = random_twisted_bundle(nerve, 1, seed=200 + s)
        ab, ba = tpic_mul(a, b), tpic_mul(b, a)
        w = solve_iso(ab, ba)
        assert verify_iso(ab, ba, w).passed


def test_psi_ordinary_fixed_by_trivial_rep():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=11, scalars={k: 1.0 for k in nerve.edge_set()})
    reps = {twist_key(trivial_line(nerve)): trivial_line(nerve)}
    out = psi(e, reps)
    w = solve_iso(e, out)
    assert verify_iso(e, out, w).passed


def test_psi_kills_the_twist_and_recovers_class():
    nerve = three_chart_nerve()
    l = omega_line(nerve)
    reps = {
        twist_key(trivial_line(nerve)): trivial_line(nerve),
        twist_key(l): l,
        twist_key(dual(l)): dual(l),
    }
    e = random_twisted_bundle(nerve, 2, seed=12, scalars={k: 1.0 for k in nerve.edge_set()})
    te = tensor(e, l)
    out = psi(te, reps)  # = e (x) l (x) dual(l): ordinary
    for t in nerve.triangles:
        assert abs(out.twist_of(*t) - 1.0) < 1e-12
    # out differs from e by the ordinary line l (x) dual(l)
    line = line_between(e, out)
    for t in nerve.triangles:
        assert abs(line.twist_of(*t) - 1.0) < 1e-12


def test_psi_missing_representative():
    nerve = three_chart_nerve()
    with pytest.raises(InputError):
        psi(omega_line(nerve), {})


def test_witness_invariance_of_twists():
    # conjugating transitions chartwise never alters the twist
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=20)
    rng = np.random.default_rng(21)
    u = {c: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
         for c in nerve.chart_order}
    f = TwistedBundle(nerve, 2,
                      {key: u[key[0]] @ e.g[key] @ np.linalg.inv(u[key[1]])
                       for key in e.g})
    assert verify_iso(e, f, IsoWitness(u)).passed
    for t in nerve.triangles:
        assert abs(e.twist_of(*t) - f.twist_of(*t)) < 1e-10


def test_twist_key_distinguishes_classes():
    nerve = three_chart_nerve()
    assert twist_key(omega_line(nerve)) != twist_key(trivial_line(nerve))
    assert twist_key(omega_line(nerve), invert=True) == twist_key(dual(omega_line(nerve)))
