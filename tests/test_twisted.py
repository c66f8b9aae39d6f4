import json
import os

import numpy as np
import pytest

from branekit import jsonio, twisted
from branekit.errors import InputError, NoWitnessFound, NotAutomorphism, ShapeMismatch
from branekit.family import BLOCK_BYTES, Chart, Nerve
from branekit.report import CheckReport
from branekit.tolerances import DEFAULT_TOL, Tolerance, singular_ratio
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
    trivial_line,
    twist_key,
    validate,
    verify_iso,
)

from conftest import perfbench_workloads

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
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
    e = random_twisted_bundle(nerve, 2, seed=1, scalars={k: 1.0 for k in nerve.edges})
    report = validate(e)
    assert report.passed, str(report)
    assert np.all(np.abs(e.twists - 1.0) < 1e-12)


def test_omega_twisted_line_validates():
    e = omega_line()
    assert validate(e).passed
    assert e.twists.shape == (1,) and abs(e.twists[0] - OMEGA) < 1e-14


def test_violated_inverse_condition_flagged():
    nerve = three_chart_nerve()
    keys = [("0", "1"), ("1", "0"), ("0", "2"), ("1", "2")]
    e = TwistedBundle(nerve, 1, keys, [[[2.0]], [[3.0]], [[1.0]], [[1.0]]])
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
    assert np.max(np.abs(ef.twists - e.twists * f.twists)) < 1e-10


def test_tensor_result_with_a_perturbed_twist_fails_its_triangle():
    # validate compares each stored twist of the result with its own transitions
    nerve = four_chart_nerve()
    out = tensor(random_twisted_bundle(nerve, 2, seed=2), random_twisted_bundle(nerve, 2, seed=3))
    assert validate(out).passed
    out.twists[2] *= 1 + 1e-6
    failed = validate(out).failures()
    assert [(r.name, r.location) for r in failed if r.name == "triangle_relation"] == [
        ("triangle_relation", f"triangle {nerve.triangles[2]}")]


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
    assert np.max(np.abs(ef.twists - 1.0)) < 1e-12


def test_dual_properties():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=4)
    d = dual(e)
    assert d.rank == e.rank
    assert validate(d).passed
    assert np.max(np.abs(d.twists - 1.0 / e.twists)) < 1e-10
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
    assert np.max(np.abs(h.twists - 1.0)) < 1e-12
    assert validate(h).passed


def test_end_of_trivial_rank2():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=7, scalars={k: 1.0 for k in nerve.edges})
    a = end(e)
    assert a.rank == 4
    assert validate(a).passed
    # conjugation cocycles compose on triangles with no twist
    ij, jk, ik = (a.transitions([(t[x], t[y]) for t in nerve.triangles])
                  for x, y in ((0, 1), (1, 2), (0, 2)))
    assert np.max(np.abs(ij @ jk - ik)) < 1e-10


def test_verify_iso_identity_and_roundtrip():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 3, seed=8)
    ident = IsoWitness({c: np.eye(3) for c in nerve.chart_order})
    assert verify_iso(e, e, ident).passed

    rng = np.random.default_rng(9)
    u = {c: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
         for c in nerve.chart_order}
    f = TwistedBundle(nerve, 3, e.keys,
                      [u[i] @ m @ np.linalg.inv(u[j]) for (i, j), m in zip(e.keys, e.g)])
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
    a = TwistedBundle(nerve, 4, nerve.edges, np.broadcast_to(np.eye(4), (3, 4, 4)))
    bundle, report = azumaya_extract(a)
    assert report.passed
    assert bundle.rank == 2
    assert np.max(np.abs(bundle.g - np.eye(2))) < 1e-10


def test_azumaya_extract_rejects_non_automorphism():
    nerve = three_chart_nerve()
    g = np.array([np.eye(4)] * 3)
    g[nerve.edges.index(("0", "1"))] = np.diag([1.0, 2.0, 3.0, 4.0])  # not multiplicative
    with pytest.raises(NotAutomorphism):
        azumaya_extract(TwistedBundle(nerve, 4, nerve.edges, g))


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


def per_column_conjugator(phi, k):
    """g[:, p] = phi(E_p1) w for w the column of phi(E_11) of largest 2-norm
    (the first on ties), one column at a time."""
    first = (phi @ matrix_unit(k, 0, 0).reshape(-1)).reshape(k, k)
    w = first[:, max(range(k), key=lambda j: np.linalg.norm(first[:, j]))]
    g = np.empty((k, k), dtype=complex)
    for p in range(k):
        g[:, p] = (phi @ matrix_unit(k, p, 0).reshape(-1)).reshape(k, k) @ w
    return g


def perturbed_algebra_bundle(k, t=1e-6):
    """END of a random rank-k bundle with the image of E_{k,k-1} on edge
    (0, 1) scaled by 1 + t: the defect sits in the last unit images."""
    a = end(random_twisted_bundle(three_chart_nerve(), k, seed=k))
    phi = a.g[a.keys.index(("0", "1"))].copy()
    phi[:, (k - 1) * k + k - 2] *= 1 + t
    a.g[a.keys.index(("0", "1"))] = phi
    return a, phi


@pytest.mark.parametrize("k", [2, 3, 4])
def test_automorphism_residual_closed_form_detects_perturbed_image(k):
    a, phi = perturbed_algebra_bundle(k)
    exact = a.g[a.keys.index(("0", "2"))]
    res = twisted._automorphism_residual(np.stack([unit_images(m, k) for m in (phi, exact)]))
    assert abs(res[0] - per_unit_automorphism_residual(phi, k)) <= 1e-15
    with pytest.raises(NotAutomorphism):
        azumaya_extract(a)
    assert res[1] < 1e-12
    assert abs(res[1] - per_unit_automorphism_residual(exact, k)) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 4])
def test_conjugator_and_residual_closed_forms_match_per_unit_loops(k):
    a, _ = perturbed_algebra_bundle(k)
    edges = sorted(a.keys)
    phi = np.stack([a.g[a.keys.index(edge)] for edge in edges])
    g, invertible = twisted._conjugator(np.stack([unit_images(m, k) for m in phi]))
    assert invertible.all()
    residuals = twisted._conjugation_residual(phi, g, np.linalg.inv(g))
    for e in range(len(edges)):
        ref = per_column_conjugator(phi[e], k)
        assert np.max(np.abs(g[e] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert abs(residuals[e] - per_unit_conjugation_residual(phi[e], g[e], k)) <= 1e-15
    # the perturbed edge (0, 1) is no conjugation: its residual sees the 1e-6 defect
    assert edges[0] == ("0", "1")
    assert residuals[0] > 1e-8 > max(residuals[1:])


def conditioned(rng, k, cond):
    """A random k x k matrix with singular values logspaced from 1 to 1/cond."""
    u, v = (np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            for _ in range(2))
    return u @ np.diag(np.logspace(0, -np.log10(cond), k)) @ v


def certificates(phi):
    """`_edge_certificate` of a stack of edge maps phi (E, k^2, k^2), with g
    recovered and normalized as `azumaya_extract` does, and the mask of
    invertible conjugators."""
    k = int(round(np.sqrt(phi.shape[1])))
    x = np.stack([unit_images(m, k) for m in phi])
    raw, invertible = twisted._conjugator(x)
    raw = raw[invertible]
    g = twisted._fix_unit_root(raw / np.exp(np.log(np.linalg.det(raw)) / k)[:, None, None], k)
    g_inv = np.linalg.inv(g)
    conj = twisted._conjugation_residual(phi[invertible], g, g_inv)
    return twisted._edge_certificate(x[invertible], g, g_inv, conj), invertible


@pytest.mark.parametrize("k", [2, 3, 4])
def test_certificate_bounds_the_direct_residual(k):
    # conjugations by matrices of cond 1 to 1e4, each edge map then moved by
    # delta (1e-12 to 1e-4) times a random complex matrix
    rng = np.random.default_rng(40 + k)
    phi, scale = [], []
    for cond in np.logspace(0, 4, 5):
        for delta in np.logspace(-12, -4, 5):
            for _ in range(3):
                g = conditioned(rng, k, cond)
                noise = rng.standard_normal((k * k, k * k, 2)) @ [1.0, 1j]
                phi.append(np.kron(g, np.linalg.inv(g).T) + delta * noise)
                scale.append((cond, delta))
    phi = np.array(phi)
    cert, invertible = certificates(phi)
    direct = twisted._automorphism_residual(np.stack([unit_images(m, k)
                                                      for m in phi[invertible]]))
    finite = np.isfinite(cert)
    assert np.all(direct[finite] <= cert[finite])
    passed = DEFAULT_TOL.passes("edge_automorphism", cert)
    assert np.all(DEFAULT_TOL.passes("edge_automorphism", direct[passed]))
    # not vacuous: the well-conditioned, slightly moved maps are certified
    cond, delta = np.array(scale)[invertible].T
    assert passed[(cond == 1) & (delta <= 1e-8)].all()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_an_edge_map_just_past_the_bound_fails_with_its_direct_residual(k):
    bound = DEFAULT_TOL.bound("edge_automorphism")
    res = per_unit_automorphism_residual(perturbed_algebra_bundle(k)[1], k)
    for ratio in (1.02, 0.98):
        a, phi = perturbed_algebra_bundle(k, 1e-6 * ratio * bound / res)
        direct = per_edge_automorphism_residual(unit_images(phi, k))
        assert (direct > bound) == (ratio > 1)
        got = assert_extraction_matches_reference(a)
        if ratio > 1:
            assert got == (NotAutomorphism, f"edge ('0', '1'): automorphism residual "
                                            f"{direct:.3e}")


def test_an_ill_conditioned_conjugation_is_decided_by_the_direct_check():
    # END of g_ij = u_i u_j^{-1} with u_0 of cond 1e3: the certificate of the
    # edges at chart 0 misses the bound, the direct check passes them
    with open(os.path.join(FIXTURES, "twisted_azumaya_illcond.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    a = jsonio.parse_twisted(obj, jsonio.parse_nerve(obj["nerve"]))
    _, report = azumaya_extract(a)
    assert report.passed
    methods = {r.location: r.detail for r in report.records if r.name == "edge_automorphism"}
    assert methods == {"edge ('0', '1')": twisted._DIRECT, "edge ('0', '2')": twisted._DIRECT,
                       "edge ('1', '2')": twisted._CERTIFIED}
    assert_extraction_matches_reference(a)


def test_benchmark_edge_maps_are_all_certified(monkeypatch):
    # the azumaya jobs of the twisted_bundles workload (seed 1) never run the k^7 loop
    def refused(x):
        raise AssertionError("direct check run")
    monkeypatch.setattr(twisted, "_automorphism_residual", refused)
    workloads = perfbench_workloads()
    workload = workloads.twisted_bundles(1)
    for name in ("azumaya16r2", "azumaya64r3", "azumaya32r4"):
        obj = json.loads(workloads.dumps(workload.job(name).payload))
        a = jsonio.parse_twisted(obj, jsonio.parse_nerve(obj["nerve"]))
        _, report = azumaya_extract(a)
        assert report.passed
        assert {r.detail for r in report.records if r.name == "edge_automorphism"} == {
            twisted._CERTIFIED}


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
    g = np.stack([with_lead(rng, k, rng.uniform(0.5, 2.0) * np.exp(1j * theta))
                  for theta in rng.uniform(-np.pi, np.pi, 500)])
    out = twisted._fix_unit_root(g, k)
    for gi, oi in zip(g, out):
        assert np.array_equal(oi, per_root_fix_unit_root(gi, k))
        assert -np.pi / k - 1e-12 < np.angle(oi[0, 1]) <= np.pi / k + 1e-12
    # at the ends of (-pi/k, pi/k]: +pi/k is kept, -pi/k is rotated to +pi/k
    for lead, m in ((np.exp(1j * np.pi / k), 0), (np.exp(-1j * np.pi / k), 1)):
        g = with_lead(rng, k, lead)
        out = twisted._fix_unit_root(g[None], k)[0]
        assert np.array_equal(out, np.exp(2j * np.pi * m / k) * g)
        ref = per_root_fix_unit_root(g, k)
        assert ref is None or np.array_equal(out, ref)


def test_twisted_line_group_laws():
    nerve = three_chart_nerve()
    one = trivial_line(nerve)
    l = omega_line(nerve)

    # unit
    w = solve_iso(tensor(l, one), l)
    assert w is not None

    # inverse: l * inv(l) is isomorphic to the trivial line
    prod = tensor(l, dual(l))
    assert np.max(np.abs(prod.twists - 1.0)) < 1e-12
    w = solve_iso(prod, one)
    assert verify_iso(prod, one, w).passed

    # commutativity on random pairs
    rng = np.random.default_rng(10)
    for s in range(5):
        a = random_twisted_bundle(nerve, 1, seed=100 + s)
        b = random_twisted_bundle(nerve, 1, seed=200 + s)
        ab, ba = tensor(a, b), tensor(b, a)
        w = solve_iso(ab, ba)
        assert verify_iso(ab, ba, w).passed


def test_psi_ordinary_fixed_by_trivial_rep():
    nerve = three_chart_nerve()
    e = random_twisted_bundle(nerve, 2, seed=11, scalars={k: 1.0 for k in nerve.edges})
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
    e = random_twisted_bundle(nerve, 2, seed=12, scalars={k: 1.0 for k in nerve.edges})
    te = tensor(e, l)
    out = psi(te, reps)  # = e (x) l (x) dual(l): ordinary
    assert np.max(np.abs(out.twists - 1.0)) < 1e-12
    # out differs from e by the ordinary line l (x) dual(l)
    line = line_between(e, out)
    assert np.max(np.abs(line.twists - 1.0)) < 1e-12


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
    f = TwistedBundle(nerve, 2, e.keys,
                      [u[i] @ m @ np.linalg.inv(u[j]) for (i, j), m in zip(e.keys, e.g)])
    assert verify_iso(e, f, IsoWitness(u)).passed
    assert np.max(np.abs(e.twists - f.twists)) < 1e-10


def test_twist_key_distinguishes_classes():
    nerve = three_chart_nerve()
    assert twist_key(omega_line(nerve)) != twist_key(trivial_line(nerve))
    assert twist_key(omega_line(nerve), invert=True) == twist_key(dual(omega_line(nerve)))


# -- the stacked extraction against a per-edge reference loop ----------------


def per_edge_automorphism_residual(x):
    """|sum_p x[p, p] - 1| or, when larger, |x[p, q] x[r, s] - delta_qr x[p, s]|
    for one edge's unit images x (k, k, k, k)."""
    k = x.shape[0]
    prod = x[:, :, None, None] @ x
    diag = np.arange(k)
    prod[:, diag, diag] -= x[:, None]
    return float(max(np.max(np.abs(np.trace(x) - np.eye(k))), np.max(np.abs(prod))))


def per_edge_conjugator(x, tol):
    k = x.shape[0]
    w = x[0, 0][:, max(range(k), key=lambda j: np.linalg.norm(x[0, 0][:, j]))]
    g = (x[:, 0] @ w).T
    if not tol.passes("conjugator_invertible", singular_ratio(g)):
        raise NotAutomorphism("could not invert the recovered conjugator")
    return g


def per_edge_fix_unit_root(g, k):
    modulus = np.abs(g.reshape(-1))
    lead = g.reshape(-1)[np.argmax(modulus >= 0.5 * np.max(modulus))]
    m = int(np.floor(0.5 - k * np.angle(lead) / (2 * np.pi))) % k
    return np.exp(2j * np.pi * m / k) * g


def stored(e):
    """The transitions of `e` as a dict from key to matrix, in key order."""
    return dict(zip(e.keys, e.g))


def per_edge_transition(e, i, j):
    """One g_ij, as bundles looked it up before the batched lookup: the
    identity when i == j, else the stored matrix or the inverse of the
    stored reverse."""
    if i == j:
        return np.eye(e.rank, dtype=complex)
    g = stored(e)
    return g[(i, j)] if (i, j) in g else np.linalg.inv(g[(j, i)])


def per_triangle_defect(g, tri, rank):
    def transition(i, j):
        return g[(i, j)] if (i, j) in g else np.linalg.inv(g[(j, i)])
    i, j, k = tri
    prod = transition(i, j) @ transition(j, k) @ np.linalg.inv(transition(i, k))
    lam = complex(np.trace(prod) / rank)
    return lam, float(np.max(np.abs(prod - lam * np.eye(rank))))


def per_edge_azumaya_extract(a, tol=DEFAULT_TOL):
    """Reference: one edge at a time in sorted order, then one triangle at a
    time.  Returns (g, twists, report)."""
    k = int(round(np.sqrt(a.rank)))
    report, g, twists = CheckReport(), {}, []
    for key, phi in sorted(stored(a).items()):
        x = np.ascontiguousarray(phi.T).reshape(k, k, k, k)
        res = per_edge_automorphism_residual(x)
        if not tol.passes("edge_automorphism", res):
            raise NotAutomorphism(f"edge {key}: automorphism residual {res:.3e}")
        report.check("edge_automorphism", res, tol, location=f"edge {key}")
        raw = per_edge_conjugator(x, tol)
        root = np.exp(np.log(np.linalg.det(raw)) / k)
        g[key] = per_edge_fix_unit_root(raw / root, k)
        conj = float(np.max(np.abs(phi - np.kron(g[key], np.linalg.inv(g[key]).T))))
        report.check("conjugation_recovered", conj, tol, location=f"edge {key}",
                     detail=f"det = 1 via principal {k}-th root; residual unit-root "
                            "phase fixed on the leading entry")
    for tri in a.nerve.triangles:
        lam, res = per_triangle_defect(g, tri, k)
        twists.append(lam)
        report.check("twist_scalar_defect", res, tol, location=f"triangle {tri}",
                     detail=f"lambda={lam:.6g}")
    return g, twists, report


def extraction_outcome(a, tol=DEFAULT_TOL, reference=False):
    """Every g (raw bytes, sorted edge order), twist and record, or the
    exception's type and message."""
    try:
        if reference:
            g, twists, report = per_edge_azumaya_extract(a, tol)
        else:
            bundle, report = azumaya_extract(a, tol)
            g, twists = stored(bundle), bundle.twists
    except NotAutomorphism as exc:
        return type(exc), str(exc)
    return ([(key, g[key].tobytes()) for key in g], list(twists),
            [(r.name, r.passed, r.residual, r.bound, r.location, r.detail)
             for r in report.records])


def assert_extraction_matches_reference(a, tol=DEFAULT_TOL):
    """Equal g bytes, twists, records and exceptions, except that an
    `edge_automorphism` residual may be a certificate: at least the reference's
    direct residual, within the same bound, with the same status."""
    got, want = extraction_outcome(a, tol), extraction_outcome(a, tol, reference=True)
    if got[0] is NotAutomorphism or want[0] is NotAutomorphism:
        assert got == want
        return got
    assert got[:2] == want[:2] and len(got[2]) == len(want[2])
    for mine, ref in zip(got[2], want[2]):
        if ref[0] != "edge_automorphism":
            assert mine == ref
            continue
        name, passed, res, bound, location, detail = mine
        assert (name, passed, bound, location) == ref[:2] + ref[3:5]
        assert ref[2] <= res <= bound
        assert detail in (twisted._CERTIFIED, twisted._DIRECT)
        assert detail == twisted._CERTIFIED or res == ref[2]
    return got


def complete_nerve(num):
    """`num` charts on one point, every pair an edge, every triple a triangle."""
    ids = [str(c) for c in range(num)]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    triples = [(a, b, c) for i, a in enumerate(ids) for j, b in enumerate(ids[i + 1:], i + 1)
               for c in ids[j + 1:]]
    return Nerve([Chart(c, ((0.0,),)) for c in ids], pairs, triples)


def singular_conjugation(k):
    """An edge map whose unit images are those of M_k except x[1, 0] = 0:
    automorphism residual 1, and its conjugator's column 1, x[1, 0] w, is zero."""
    x = np.zeros((k, k, k, k), dtype=complex)
    for p in range(k):
        for q in range(k):
            x[p, q, p, q] = 1.0
    x[1, 0] = 0.0
    return x.reshape(k * k, k * k).T


def test_extraction_without_edges():
    nerve = Nerve([Chart("only", ((0.0,),))])
    got = assert_extraction_matches_reference(TwistedBundle(nerve, 4, [], np.empty((0, 4, 4))))
    assert got == ([], [], [])


def test_extraction_over_more_edges_than_one_block():
    # k = 4: 16 edges per block, so the 28 edges of K_8 take two blocks
    nerve = complete_nerve(8)
    a = end(random_twisted_bundle(nerve, 4))
    assert len(a.g) > BLOCK_BYTES // (16 * 4 ** 4)
    got = assert_extraction_matches_reference(a)
    assert len(got[0]) == 28 and len(got[1]) == 56 and len(got[2]) == 2 * 28 + 56
    # the rank-16 algebra bundle's own twists, 16 triangles per block
    again = TwistedBundle(nerve, 16, a.keys, a.g)
    for tri, lam in zip(nerve.triangles, again.twists.tolist()):
        assert lam == per_triangle_defect(stored(a), tri, 16)[0]
    assert again.twist_residuals.tolist() == [per_triangle_defect(stored(a), tri, 16)[1]
                                              for tri in nerve.triangles]


def test_first_failing_edge_wins_whichever_check_fails():
    nerve = three_chart_nerve()
    not_automorphism = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    # automorphism bound 1: the singular edge passes it, the diagonal one does not
    tol = Tolerance(eps_structural=1e-3)
    g = np.array([np.eye(4, dtype=complex)] * 3)
    first, last = nerve.edges.index(("0", "1")), nerve.edges.index(("1", "2"))
    g[first], g[last] = singular_conjugation(2), not_automorphism
    assert assert_extraction_matches_reference(TwistedBundle(nerve, 4, nerve.edges, g),
                                               tol) == (
        NotAutomorphism, "could not invert the recovered conjugator")
    g[first], g[last] = not_automorphism, singular_conjugation(2)
    got = assert_extraction_matches_reference(TwistedBundle(nerve, 4, nerve.edges, g), tol)
    assert got[0] is NotAutomorphism and got[1].startswith("edge ('0', '1'): automorphism")
    # every edge passes the direct check, and one conjugator is singular
    g[first], g[last] = singular_conjugation(2), np.eye(4)
    assert assert_extraction_matches_reference(TwistedBundle(nerve, 4, nerve.edges, g),
                                               tol) == (
        NotAutomorphism, "could not invert the recovered conjugator")


def per_triple_twist(e, tri):
    """lambda of one ordered triple: the row of its nerve triangle, else the
    scalar of its own defect."""
    if tri in e.nerve.triangles:
        return e.twists[e.nerve.triangles.index(tri)]
    return per_triangle_defect(stored(e), tri, e.rank)[0]


def per_quadruple_defect(e, quad):
    """|lambda_jkl / lambda_ikl * lambda_ijl / lambda_ijk - 1| for one
    quadruple (i, j, k, l), each face read alone; the quotient is taken on
    one-row arrays, as numpy's array arithmetic rounds it."""
    jkl, ikl, ijl, ijk = (np.array([per_triple_twist(e, quad[:n] + quad[n + 1:])])
                          for n in range(4))
    return abs((jkl / ikl * ijl / ijk).tolist()[0] - 1.0)


def per_edge_validate(e, tol=DEFAULT_TOL):
    """Reference: `validate` with one SVD per edge and one product per triangle."""
    report, g = CheckReport(), stored(e)
    worst = 0.0
    for (i, j) in g:
        if i == j:
            worst = max(worst, float(np.max(np.abs(g[(i, j)] - np.eye(e.rank)))))
        elif (j, i) in g:
            worst = max(worst, float(np.max(np.abs(g[(i, j)] @ g[(j, i)] - np.eye(e.rank)))))
    report.check("transition_inverses", worst, tol)
    inv_ok = True
    for (i, j) in sorted(g):
        sv = np.linalg.svd(g[(i, j)], compute_uv=False)
        if not tol.passes("transition_invertible", sv[-1], sv[0]):
            inv_ok = False
            report.check("transition_invertible", float(sv[-1]), tol, sv[0],
                         location=f"edge {(i, j)}")
    if inv_ok:
        report.add("transition_invertible", True, 0.0)
    for tri, lam in zip(e.nerve.triangles, e.twists.tolist()):
        i, j, k = tri
        res = float(np.max(np.abs(per_edge_transition(e, i, j) @ per_edge_transition(e, j, k)
                                  - lam * per_edge_transition(e, i, k))))
        report.check("triangle_relation", res, tol, 1.0 + abs(lam), location=f"triangle {tri}")
        report.check("twist_nonzero", abs(lam), tol, location=f"triangle {tri}")
    for quad in e.nerve.quadruples:
        report.check("twist_2cocycle", per_quadruple_defect(e, quad), tol,
                     location=f"quadruple {quad}")
    return report


def test_validate_equals_the_per_edge_reference():
    # rank 24: seven transitions to a block, so K_8's 28 edges and 56
    # triangles span several blocks
    rank = 24
    assert BLOCK_BYTES // (16 * rank ** 2) == 7
    big = random_twisted_bundle(complete_nerve(8), rank, seed=4)
    g = stored(big)
    g[("1", "0")] = np.linalg.inv(g.pop(("0", "1")))  # stored reversed: inverted when read
    g[("2", "1")] = np.linalg.inv(g[("1", "2")]) * 1.5  # both orientations, not inverse
    for key in (("0", "5"), ("3", "4")):
        g[key] = g[key] @ np.diag([1.0] * (rank - 1) + [1e-12])  # fails invertibility
    broken = TwistedBundle(big.nerve, rank, list(g), list(g.values()), big.twists)
    bundles = [omega_line(), random_twisted_bundle(four_chart_nerve(), 2, seed=6), big, broken]
    for e in bundles:
        assert validate(e).to_dict() == per_edge_validate(e).to_dict()
    failed = {(r.name, r.location) for r in validate(broken).failures()}
    assert {("transition_invertible", "edge ('0', '5')"),
            ("transition_invertible", "edge ('3', '4')"),
            ("transition_inverses", None)} <= failed


def test_twists_at_reads_triangle_rows_and_computes_other_triples():
    # without the triangle ("0", "2", "3"), the quadruple's face (i, k, l) is computed from g
    full = four_chart_nerve()
    nerve = Nerve([full.charts[c] for c in full.chart_order], full.edges,
                  [t for t in full.triangles if t != ("0", "2", "3")], full.quadruples)
    e = random_twisted_bundle(nerve, 2, seed=6)
    assert len(e.twists) == 3
    triples = [("1", "2", "3"), ("0", "2", "3"), ("0", "1", "2"), ("2", "1", "0")]
    lam = e.twists_at(triples)
    assert lam[0] == e.twists[2] and lam[2] == e.twists[0]
    for n in (1, 3):
        assert lam[n] == per_triangle_defect(stored(e), triples[n], 2)[0]
    assert e.twists_at([]).shape == (0,)
    record = validate(e).records[-1]
    assert (record.name, record.passed) == ("twist_2cocycle", True)
    assert record.residual == per_quadruple_defect(e, ("0", "1", "2", "3"))


def test_validate_checks_every_quadruple_in_one_lookup(monkeypatch):
    # quadruples out of sorted order; only ("0", "1", "2", "3") and ("0", "1", "3", "2")
    # have the stored face ("0", "1", "2"), as ijk and ijl
    full = four_chart_nerve()
    quadruples = [("1", "0", "2", "3"), ("0", "1", "2", "3"), ("0", "1", "3", "2")]
    nerve = Nerve([full.charts[c] for c in full.chart_order], full.edges, full.triangles,
                  quadruples)
    e = random_twisted_bundle(nerve, 2, seed=6)
    twists = e.twists.copy()
    twists[nerve.triangles.index(("0", "1", "2"))] *= 1.5
    broken = TwistedBundle(nerve, 2, e.keys, e.g, twists)
    calls = {"twists_at": 0, "_scalar_defects": 0}
    for name in calls:
        def counted(self, triples, fn=getattr(TwistedBundle, name), name=name):
            calls[name] += 1
            return fn(self, triples)
        monkeypatch.setattr(TwistedBundle, name, counted)
    records = [r for r in validate(broken).records if r.name == "twist_2cocycle"]
    assert calls == {"twists_at": 1, "_scalar_defects": 1}
    assert [(r.location, r.passed) for r in records] == [
        (f"quadruple {q}", ok) for q, ok in zip(quadruples, (True, False, False))]
    assert [r.residual for r in records] == [per_quadruple_defect(broken, q) for q in quadruples]
    assert abs(records[1].residual - 1 / 3) < 1e-12 and abs(records[2].residual - 0.5) < 1e-12


def test_given_twists_are_one_row_per_triangle():
    nerve = three_chart_nerve()
    e = omega_line(nerve)
    cases = [([OMEGA, 1.0], ShapeMismatch, "twists have shape (2,), expected (1,)"),
             ([np.nan], InputError, "no twist value for triangle ('0', '1', '2')"),
             ([0.0], InputError, "twist values must be nonzero")]
    for twists, exc_type, message in cases:
        with pytest.raises(exc_type) as exc:
            TwistedBundle(nerve, 1, e.keys, e.g, twists)
        assert str(exc.value) == message
    given = TwistedBundle(nerve, 1, e.keys, e.g, [OMEGA])
    assert given.twists.dtype == complex and given.twists.tolist() == [OMEGA]
    assert given.twist_residuals is None


def test_bundle_names_the_first_bad_transition_in_input_order():
    nerve = three_chart_nerve()
    good, nan = np.eye(2), np.full((2, 2), np.nan)
    cases = [
        ([("0", "1"), ("1", "2"), ("0", "x")], [good, nan, good],
         InputError, "transition ('1', '2') has non-finite entries"),
        ([("0", "1"), ("0", "x"), ("1", "2")], [good, good, nan],
         InputError, "transition ('0', 'x') names unknown charts"),
        ([("0", "1"), ("0", "2"), ("0", "1"), ("1", "2")], [good, good, good, nan],
         InputError, "transition ('0', '1') is given twice"),
        ([("0", "1"), ("1", "2")], [good, good],
         InputError, "no transition data for edge ('0', '2')"),
        # a stack of the wrong shape, or with a row count other than the key count
        ([("0", "1"), ("0", "2"), ("1", "2")], np.ones((3, 3, 3)),
         ShapeMismatch, "transitions have shape (3, 3, 3), expected (3,2,2)"),
        ([("0", "1"), ("0", "2")], [good, good, good],
         ShapeMismatch, "transitions have shape (3, 2, 2), expected (2,2,2)"),
    ]
    for keys, g, exc_type, message in cases:
        with pytest.raises(exc_type) as exc:
            TwistedBundle(nerve, 2, keys, g)
        assert str(exc.value) == message
    # any pair of chart ids names an edge; a complex stack is kept as given
    g = np.array([good] * 3, dtype=complex)
    e = TwistedBundle(nerve, 2, ["01", ("0", "2"), ("1", "2")], g)
    assert e.keys == [("0", "1"), ("0", "2"), ("1", "2")] and e.g is g
    e = TwistedBundle(nerve, 2, nerve.edges, np.array([[[1, 0], [0, 1]]] * 3))
    assert e.g.dtype == complex and e.g.tolist() == g.tolist()


# -- whole-stack operations against per-edge formulas ------------------------


def band_nerve(num):
    """`num` charts on one point around a circle: edges (c, c+1) and (c, c+2)
    mod num, and triangles (c, c+1, c+2)."""
    ids = [f"c{c:02d}" for c in range(num)]
    edges = [(ids[c], ids[(c + d) % num]) for c in range(num) for d in (1, 2)]
    triangles = [(ids[c], ids[(c + 1) % num], ids[(c + 2) % num]) for c in range(num)]
    return Nerve([Chart(c, ((0.0,),)) for c in ids], edges, triangles)


def test_linear_algebra_calls_do_not_grow_with_the_nerve(monkeypatch):
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("inv", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))

    def calls(num):
        """{operation: {function: calls}} on gauge-trivial rank-2 bundles."""
        nerve = band_nerve(num)
        ones = dict.fromkeys(nerve.edges, 1.0)
        e = random_twisted_bundle(nerve, 2, seed=1, scalars=ones)
        f = random_twisted_bundle(nerve, 2, seed=2, scalars=ones)
        a, w = end(e), solve_iso(e, f)
        ops = {"TwistedBundle": lambda: TwistedBundle(nerve, 2, e.keys, e.g),
               "validate": lambda: validate(e), "tensor": lambda: tensor(e, f),
               "dual": lambda: dual(e), "hom": lambda: hom(e, f),
               "verify_iso": lambda: verify_iso(e, f, w), "solve_iso": lambda: solve_iso(e, f),
               "azumaya_extract": lambda: azumaya_extract(a)}
        out = {}
        for name, op in ops.items():
            counts.clear()
            op()
            out[name] = dict(counts)
        return out

    small, large = calls(16), calls(64)
    assert small == large
    assert small["azumaya_extract"]["det"] == 1 and small["solve_iso"]["inv"] >= 2


def rank_24_bundle():
    """A rank-24 bundle on K_8 whose keys hold the cases the lookup tells
    apart: (1, 0) stored reversed, (1, 2) and (2, 1) both stored (not inverse
    to each other), and the diagonal key (3, 3), a multiple of the identity."""
    big = random_twisted_bundle(complete_nerve(8), 24, seed=4)
    g = stored(big)
    g[("1", "0")] = np.linalg.inv(g.pop(("0", "1")))
    g[("2", "1")] = np.linalg.inv(g[("1", "2")]) * 1.5
    g[("3", "3")] = 2.0 * np.eye(24)
    return TwistedBundle(big.nerve, 24, list(g), list(g.values()), big.twists)


def assert_bitwise(bundle, reference):
    """`bundle`'s keys and transitions are `reference`'s, byte for byte."""
    assert bundle.keys == list(reference)
    assert_stack_bitwise(bundle.g, reference.values())


def assert_stack_bitwise(stack, matrices):
    matrices = list(matrices)
    assert len(stack) == len(matrices)
    for m, want in zip(stack, matrices):
        assert m.shape == want.shape and m.tobytes() == want.tobytes()


def test_stack_operations_equal_the_per_edge_formulas_bitwise():
    e = rank_24_bundle()
    nerve = e.nerve
    small = random_twisted_bundle(nerve, 2, seed=5)
    other = random_twisted_bundle(nerve, 24, seed=6)
    # the lookup: stored, stored reversed, both stored, i == j stored and not
    pairs = [("1", "0"), ("0", "1"), ("1", "2"), ("2", "1"), ("3", "3"), ("5", "5"), ("7", "6")]
    assert_stack_bitwise(e.transitions(pairs), [per_edge_transition(e, *p) for p in pairs])
    for x, y in ((e, small), (small, e)):
        assert_bitwise(tensor(x, y), {key: np.kron(m, per_edge_transition(y, *key))
                                      for key, m in stored(x).items()})
        assert_bitwise(hom(x, y), {key: np.kron(per_edge_transition(y, *key), np.linalg.inv(m).T)
                                   for key, m in stored(x).items()})
    assert_bitwise(dual(e), {key: np.linalg.inv(m).T for key, m in stored(e).items()})

    rng = np.random.default_rng(7)
    u = {c: rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
         for c in nerve.chart_order}
    worst = 0.0
    for (i, j), m in stored(e).items():
        worst = max(worst, float(np.max(np.abs(per_edge_transition(other, i, j)
                                                - u[i] @ m @ np.linalg.inv(u[j])))))
    scale = 1.0 + max(float(np.max(np.abs(m))) for m in stored(e).values())
    record = verify_iso(e, other, IsoWitness(u)).records[0]
    assert (record.residual, record.bound) == (worst, DEFAULT_TOL.bound("witness_conjugation",
                                                                        scale))

    phases = np.exp(2j * np.pi * rng.uniform(size=len(e.keys)))
    f = TwistedBundle(nerve, 24, e.keys, phases[:, None, None] * e.g)
    ratios = {}
    for key, m in stored(e).items():
        ratio = per_edge_transition(f, *key) @ np.linalg.inv(m)
        ratios[key] = np.array([[complex(np.trace(ratio) / e.rank)]])
    assert_bitwise(line_between(e, f), ratios)


# H H + H (-H) is inf - inf in both parts for this finite H, so a product of
# the matrices below holds a NaN while every entry and inverse stays finite
HUGE = (1 + 1j) * 1e200
NAN_LEFT = np.array([[HUGE, HUGE], [0.0, 1.0]])
NAN_RIGHT = np.array([[HUGE, 0.0], [-HUGE, 1.0]])


def two_chart_nerve():
    return Nerve([Chart(c, ((0.0,),)) for c in "01"], [("0", "1")])


def test_a_nan_inverse_residual_fails_transition_inverses():
    e = TwistedBundle(two_chart_nerve(), 2, [("0", "1"), ("1", "0")], [NAN_LEFT, NAN_RIGHT])
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate(e)
    record = next(r for r in report.records if r.name == "transition_inverses")
    assert np.isnan(record.residual) and not record.passed


def test_a_nan_conjugation_residual_fails_witness_conjugation():
    e = TwistedBundle(two_chart_nerve(), 2, [("0", "1")], [NAN_RIGHT])
    with np.errstate(over="ignore", invalid="ignore"):
        [record] = verify_iso(e, e, IsoWitness({"0": NAN_LEFT, "1": np.eye(2)})).records
    assert record.name == "witness_conjugation"
    assert np.isnan(record.residual) and not record.passed


def test_a_nan_law_residual_fails_its_edge():
    # the image of E_01 squares to NaN; the unit images, the conjugator read
    # from the images of E_00 and E_10, and the trace stay exact
    x = np.stack([matrix_unit(2, p, q) for p in range(2) for q in range(2)]).astype(complex)
    x[1] = [[HUGE, HUGE], [-HUGE, 0.0]]
    x = x.reshape(1, 2, 2, 2, 2)
    a = TwistedBundle(two_chart_nerve(), 4, [("0", "1")], x.reshape(1, 4, 4).transpose(0, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(twisted._automorphism_residual(x)).all()
        with pytest.raises(NotAutomorphism, match=r"edge \('0', '1'\): automorphism residual nan"):
            azumaya_extract(a)
