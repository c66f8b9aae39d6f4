"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and are not configurable.
"""

import itertools
import json
import time

import numpy as np

from branekit.bdr import (
    assemble,
    check_det,
    check_quadruple,
    check_triple,
    is_permutation_matrix,
)
from branekit.branes import (
    BraneLabel,
    ClosedSector,
    HomSpace,
    check_adjoint,
    check_cardy,
    check_centrality,
    check_sewing,
    direct_sum_label,
    hom_dimension,
    matrix_unit_basis,
    pi_basis,
    pi_formula,
    random_hom,
    split_endomorphism,
)
from branekit.cli import main as cli_main
from branekit.errors import InconsistentDims
from branekit.family import (
    Chart,
    Nerve,
    PotentialFamily,
    algebra_from_three_point,
    check_cocycle,
    from_potential,
    idempotent_frames,
    monodromy,
    transition_permutations,
)
from branekit.frobenius import conjugate, diagonal_algebra
from branekit.poly import Polynomial
from branekit.spectral import brane_to_twisted_components, lift_label, phi_classify
from branekit.twisted import (
    IsoWitness,
    end,
    hom,
    line_between,
    azumaya_extract,
    psi,
    random_twisted_bundle,
    scalar_line,
    solve_iso,
    tensor,
    twist_key,
    verify_iso,
)

from conftest import ANTIDIAG, circle_loop, circle_nerve, disk_nerve, quadratic_potential

import os

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _line(num, ok, msg):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def _random_invertible(rng, n, cond_cap=50.0):
    while True:
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(p) < cond_cap:
            return p


def test_criterion_01_idempotent_recovery():
    rng = np.random.default_rng(2024)
    worst = 0.0
    order_mismatch = 0
    trials = 0
    for rep in range(15):
        for n in range(2, 9):
            trials += 1
            weights = (rng.uniform(0.5, 2.0, n)
                       * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
            p = _random_invertible(rng, n)
            alg = conjugate(diagonal_algebra(weights), p)
            basis = alg.idempotent_basis(seed=0)
            expected = p.T  # rows = P applied to the standard idempotents
            used = set()
            for row in basis.idempotents:
                dists = [np.max(np.abs(row - expected[j])) if j not in used
                         else np.inf for j in range(n)]
                j = int(np.argmin(dists))
                used.add(j)
                worst = max(worst, dists[j])
            other = alg.idempotent_basis(seed=777)
            if np.max(np.abs(other.idempotents - basis.idempotents)) > 1e-10:
                order_mismatch += 1
    ok = worst < 1e-8 and order_mismatch == 0 and trials >= 100
    _line(1, ok, f"{trials} conjugated algebras recovered, max coordinate error "
                 f"{worst:.2e}, {order_mismatch} seed-ordering mismatches")


def _random_population(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        weights = (rng.uniform(0.5, 2.0, n)
                   * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
        sec = ClosedSector(weights)
        a = BraneLabel(tuple(int(d) for d in rng.integers(0, 5, n)))
        b = BraneLabel(tuple(int(d) for d in rng.integers(0, 5, n)))
        yield rng, sec, a, b


def _random_basis(rng, a, b):
    units = matrix_unit_basis(a, b)
    m = len(units)
    c = _random_invertible(rng, m, cond_cap=100.0) if m else None
    stacked = [np.stack([u.blocks[i] for u in units]) for i in range(a.n)]
    out = []
    for nu in range(m):
        blocks = [np.einsum("r,rxy->xy", c[nu], stacked[i]) for i in range(a.n)]
        out.append(HomSpace(a, b, blocks))
    return out


def test_criterion_02_cardy_suite():
    worst_cardy = 0.0
    worst_oracle = 0.0
    worst_basis_change = 0.0
    for rng, sec, a, b in _random_population(seed=7, count=200):
        worst_cardy = max(worst_cardy, check_cardy(sec, [(a, b)]).max_residual)
        sigma = random_hom(rng, a, a)
        lhs = pi_basis(sec, a, b, sigma)
        rhs = pi_formula(sec, a, b, sigma)
        worst_oracle = max(worst_oracle, lhs.sub(rhs).norm())
        if hom_dimension(a, b):
            out1 = pi_basis(sec, a, b, sigma, basis_ab=_random_basis(rng, a, b))
            out2 = pi_basis(sec, a, b, sigma, basis_ab=_random_basis(rng, a, b))
            worst_basis_change = max(worst_basis_change, out1.sub(out2).norm())
    ok = worst_cardy < 1e-10 and worst_oracle < 1e-10 and worst_basis_change < 1e-10
    _line(2, ok, f"200 sectors: cardy residual {worst_cardy:.2e}, basis-vs-formula "
                 f"{worst_oracle:.2e}, basis-independence {worst_basis_change:.2e}")


def test_criterion_03_sewing_centrality_adjoint():
    worst = 0.0
    for rng, sec, a, b in _random_population(seed=11, count=200):
        worst = max(worst,
                    check_sewing(sec, [(a, b)]).records[0].residual,
                    check_centrality(sec, [(a, b)]).max_residual,
                    check_adjoint(sec, [a]).max_residual)
    ok = worst < 1e-12
    _line(3, ok, f"sewing/centrality/adjoint max residual {worst:.2e} over 200 instances")


def test_criterion_04_additivity():
    worst = 0.0
    dim_ok = True
    for rng, sec, a, b in _random_population(seed=13, count=50):
        c = BraneLabel(tuple(int(d) for d in rng.integers(0, 5, sec.n)))
        ab = direct_sum_label(a, b)
        sigma = random_hom(rng, ab, ab)
        s11, _, _, s22 = split_endomorphism(a, b, sigma)
        lhs = pi_basis(sec, ab, c, sigma)
        rhs = pi_basis(sec, a, c, s11).add(pi_basis(sec, b, c, s22))
        worst = max(worst, lhs.sub(rhs).norm())
        dim_ok = dim_ok and hom_dimension(a, b) == sum(
            da * db for da, db in zip(a.dims, b.dims))
        dim_ok = dim_ok and hom_dimension(a, b) == len(matrix_unit_basis(a, b))
    ok = worst < 1e-12 and dim_ok
    _line(4, ok, f"pi additivity residual {worst:.2e}; dim E_ab formula exact: {dim_ok}")


def test_criterion_05_two_vector_classification():
    accepted = []
    for entries in itertools.product(range(4), repeat=4):
        m = np.array(entries).reshape(2, 2)
        if is_permutation_matrix(m):
            accepted.append(m.tolist())
    exact_two = sorted(accepted) == [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]

    ak_rejected = all(
        not is_permutation_matrix([[1, 1], [k - 1, k]]) for k in range(1, 6))

    nonsquare_ok = True
    for rows, cols in [(1, 2), (2, 3), (3, 2), (1, 3), (3, 1), (2, 1)]:
        for entries in itertools.product(range(3), repeat=rows * cols):
            m = np.array(entries).reshape(rows, cols)
            nonsquare_ok = nonsquare_ok and not is_permutation_matrix(m)

    ok = exact_two and ak_rejected and nonsquare_ok
    _line(5, ok, f"2x2 scan accepts exactly the two permutation matrices: {exact_two}; "
                 f"A_k rejected: {ak_rejected}; non-square rejected: {nonsquare_ok}")


def test_criterion_06_monodromy():
    start = time.perf_counter()
    results = {}
    for samples in (4, 8):  # doubling the sample density
        nerve = circle_nerve(num_charts=8, samples_per_chart=samples)
        family = from_potential(quadratic_potential(), nerve)
        cover = transition_permutations(idempotent_frames(family), nerve)
        loop = circle_loop(8)
        results[samples] = monodromy(cover, loop)
        doubled = monodromy(cover, loop + loop[1:])
    elapsed = time.perf_counter() - start
    ok = (results[4] == (1, 0) and results[8] == (1, 0)
          and doubled == (0, 1) and elapsed < 5.0)
    _line(6, ok, f"monodromy (1 2) at both densities, doubled loop identity, "
                 f"{elapsed:.2f}s")


def test_criterion_07_wdvv():
    rng = np.random.default_rng(5)
    # n <= 2: associativity automatic, residuals < 1e-9
    # the unit law pins the unit-direction slice of the third derivatives to
    # the metric: for n=1 that forces a cubic potential, for n=2 with the
    # antidiagonal metric it forces 1/2 t0^2 t1 plus any function of t1
    worst = 0.0
    pts_1d = Nerve([Chart("c0", ((0.2,), (1.1,), (-0.4,)))])
    for _ in range(10):
        scale = rng.uniform(0.5, 2.0)
        fam = PotentialFamily(1, Polynomial(1, {(3,): scale / 6.0}),
                              [[scale]], 0)
        family = from_potential(fam, pts_1d)
        for c in family.c[pts_1d.point_ids]:
            left = np.einsum("ijm,mkl->ijkl", c, c)
            right = np.einsum("jkm,iml->ijkl", c, c)
            worst = max(worst, float(np.max(np.abs(left - right))))
    pts_2d = Nerve([Chart("c0", ((0.3, 1.0 + 0.2j), (0.0, 0.8), (1.0, -0.5)))])
    for _ in range(10):
        terms = {(2, 1): 0.5}
        for e in range(3, 7):
            terms[(0, e)] = complex(rng.standard_normal(), rng.standard_normal())
        fam = PotentialFamily(2, Polynomial(2, terms), ANTIDIAG, 0)
        family = from_potential(fam, pts_2d)
        for c in family.c[pts_2d.point_ids]:
            left = np.einsum("ijm,mkl->ijkl", c, c)
            right = np.einsum("jkm,iml->ijkl", c, c)
            worst = max(worst, float(np.max(np.abs(left - right))))
    low_dim_ok = worst < 1e-9

    # n = 3: random raw three-point tensors generically fail associativity
    g3 = np.eye(3)
    failures = 0
    for _ in range(100):
        c3 = np.zeros((3, 3, 3), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                for k in range(j, 3):
                    v = g3[j, k] if i == 0 else complex(rng.standard_normal(),
                                                        rng.standard_normal())
                    for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i),
                              (k, i, j), (k, j, i)}:
                        c3[p] = v
        alg = algebra_from_three_point(c3, g3, 0)
        by_name = {r.name: r for r in alg.validate().records}
        assert by_name["unit"].passed
        if not by_name["associativity"].passed:
            failures += 1
    ok = low_dim_ok and failures >= 95
    _line(7, ok, f"n<=2 associativity residual {worst:.2e}; "
                 f"{failures}/100 random n=3 tensors rejected")


def _coboundary_lines(cover, nerve, rng, generators=2):
    """L_i^{ab} = phi_a(i) - phi_b(u(i)), as (E, n, G) in `cover.keys` order."""
    phi = {cid: rng.integers(-3, 4, size=(cover.n, generators)) for cid in nerve.chart_order}
    return np.array([phi[a] - phi[b][u] for (a, b), u in zip(cover.keys, cover.transitions)])


def test_criterion_08_bdr_end_to_end():
    rng = np.random.default_rng(17)
    phi = quadratic_potential()

    # four charts around one point: full triangle and quadruple structure
    center = ((0.0, 0.5),)
    ids = ["q0", "q1", "q2", "q3"]
    charts = [Chart(c, center) for c in ids]
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    triangles = list(itertools.combinations(ids, 3))
    quadruples = [tuple(ids)]
    quad_nerve = Nerve(charts, edges, triangles, quadruples)

    all_ok = True
    located = False
    for nerve in (disk_nerve(), quad_nerve):
        family = from_potential(phi, nerve)
        cover = transition_permutations(idempotent_frames(family), nerve)
        assert check_cocycle(cover).passed
        cocycle = assemble(cover, _coboundary_lines(cover, nerve, rng))
        all_ok = all_ok and check_det(cocycle).passed
        all_ok = all_ok and check_triple(cocycle).passed
        all_ok = all_ok and check_quadruple(cocycle).passed

        # corrupt a single line class on the first triangle edge
        tri = nerve.triangles[0]
        key = (tri[0], tri[1])
        u = cover.transitions[cover.keys.index(key)]
        cocycle.lines[cocycle.keys.index(key), 0, u[0], 0] += 1
        bad = check_triple(cocycle)
        failure = bad.failures()
        located = located or (failure and "triangle" in failure[0].location)
        all_ok = all_ok and not bad.passed
    ok = all_ok and located
    _line(8, ok, "assembled cocycles pass det/triple/quadruple; corrupted line "
                 "class detected with triangle location")


def _nerves_3_and_4():
    pt = ((0.0,),)
    charts3 = [Chart(c, pt) for c in ("0", "1", "2")]
    n3 = Nerve(charts3, [("0", "1"), ("0", "2"), ("1", "2")],
               triangles=[("0", "1", "2")])
    ids = ["0", "1", "2", "3"]
    charts4 = [Chart(c, pt) for c in ids]
    n4 = Nerve(charts4, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]],
               triangles=list(itertools.combinations(ids, 3)),
               quadruples=[tuple(ids)])
    return n3, n4


def test_criterion_09_twisted_bundle_algebra():
    n3, n4 = _nerves_3_and_4()
    worst_mult = 0.0
    worst_hom = 0.0
    round_trips = True
    seed = 0
    for nerve in (n3, n4):
        for _ in range(5):
            seed += 1
            e = random_twisted_bundle(nerve, 2, seed=seed)
            f = random_twisted_bundle(nerve, 2, seed=seed + 1000)
            ef = tensor(e, f)
            worst_mult = max(worst_mult, np.max(np.abs(ef.twists - e.twists * f.twists)))
        scal = {key: np.exp(2j * np.pi * (hash(key) % 7) / 7)
                for key in nerve.edges}
        e = random_twisted_bundle(nerve, 2, seed=31, scalars=scal)
        f = random_twisted_bundle(nerve, 3, seed=32, scalars=scal)
        h = hom(e, f)
        worst_hom = max(worst_hom, np.max(np.abs(h.twists - 1.0)))

        for rank in (2, 3):
            e = random_twisted_bundle(nerve, rank, seed=40 + rank)
            recovered, report = azumaya_extract(end(e))
            round_trips = round_trips and report.passed
            w = solve_iso(end(recovered), end(e))
            round_trips = round_trips and verify_iso(end(recovered), end(e), w).passed
            line = line_between(recovered, e)
            back = tensor(recovered, line)
            ident = IsoWitness({c: np.eye(rank) for c in nerve.chart_order})
            round_trips = round_trips and verify_iso(back, e, ident).passed
    ok = worst_mult < 1e-12 and worst_hom < 1e-12 and round_trips
    _line(9, ok, f"twist multiplicativity {worst_mult:.2e}; equal-twist hom "
                 f"deviation {worst_hom:.2e}; Azumaya round trips (rank<=3, "
                 f"3-4 charts): {round_trips}")


def test_criterion_10_psi_map():
    n3, _ = _nerves_3_and_4()
    omega = np.exp(2j * np.pi / 3)
    roots = [1.0, omega, omega ** 2]

    # fixed representative family: one line bundle per twist class
    reps = {}
    enumeration = []
    for g01, g12, g02 in itertools.product(roots, repeat=3):
        e = scalar_line(n3, {("0", "1"): g01, ("1", "2"): g12, ("0", "2"): g02})
        enumeration.append(e)
        key = twist_key(e)
        reps.setdefault(key, e)
    inv_reps = {twist_key(rep, invert=True): rep for rep in
                [scalar_line(n3, {("0", "1"): 1.0, ("1", "2"): 1.0,
                                  ("0", "2"): r}) for r in roots]}
    rep_family = {twist_key(b): b for b in inv_reps.values()}

    all_ordinary = True
    injective = True
    for e in enumeration:
        out = psi(e, rep_family)
        all_ordinary = all_ordinary and np.all(np.abs(out.twists - 1.0) < 1e-10)
    # injectivity: psi(E) ~ psi(F) mod ordinary lines forces E ~ F mod twisted
    # lines; for rank-1 data the witness is the explicit ratio line
    for e, f in itertools.combinations(enumeration[:9], 2):
        pe, pf = psi(e, rep_family), psi(f, rep_family)
        ratio_out = line_between(pe, pf)       # ordinary line (twists are 1)
        injective = injective and np.all(np.abs(ratio_out.twists - 1.0) < 1e-10)
        ratio_in = line_between(e, f)          # twisted line relating E and F
        back = tensor(e, ratio_in)
        ident = IsoWitness({c: np.eye(1) for c in n3.chart_order})
        injective = injective and verify_iso(back, f, ident).passed

    # surjectivity step: psi[E (x) L_lambda] = [E] for ordinary E
    surj = True
    for lam_rep in rep_family.values():
        e = random_twisted_bundle(n3, 2, seed=77,
                                  scalars={k: 1.0 for k in n3.edges})
        te = tensor(e, lam_rep)
        out = psi(te, rep_family)
        line = line_between(e, out)
        surj = surj and np.all(np.abs(line.twists - 1.0) < 1e-10)
    ok = all_ordinary and injective and surj
    _line(10, ok, f"psi ordinary on all 27 rank-1 bundles: {all_ordinary}; "
                  f"injective: {injective}; psi[E(x)L] = [E]: {surj}")


def test_criterion_11_brane_cover_consistency():
    nerve = circle_nerve(num_charts=8, samples_per_chart=2)
    family = from_potential(quadratic_potential(), nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    assert monodromy(cover, circle_loop(8)) == (1, 0)  # connected double cover

    rejected = False
    try:
        lift_label({cid: (2, 3) for cid in nerve.chart_order}, cover)
    except InconsistentDims:
        rejected = True
    accepted = all(
        lift_label({cid: (d, d) for cid in nerve.chart_order}, cover).connected
        for d in (1, 2, 3))

    # exhaustive phi_classify on the identity cover, dims <= 2, n = 2
    id_cover = transition_permutations(idempotent_frames(family), nerve)
    id_cover.transitions[:] = (0, 1)
    labels, bundles = [], []
    for d1, d2 in itertools.product((0, 1, 2), repeat=2):
        lifted = lift_label({cid: (d1, d2) for cid in nerve.chart_order}, id_cover)
        labels.append(lifted)
        bundles.append([b for b, _ in brane_to_twisted_components(lifted)])
    report = phi_classify(labels, bundles)
    separated = report.checks.passed and len(report.groups) == 6
    ok = rejected and accepted and separated
    _line(11, ok, f"(2,3) rejected on connected cover: {rejected}; (d,d) accepted: "
                  f"{accepted}; exhaustive classes separated: {separated}")


def test_criterion_12_pipeline_determinism(tmp_path):
    digests = []
    for i in range(3):
        out = tmp_path / f"pipeline_{i}.json"
        code = cli_main(["pipeline", os.path.join(FIXTURES, "pipeline_circle.json"),
                         "--out", str(out)])
        assert code == 0
        digests.append(out.read_bytes())
    ok = digests[0] == digests[1] == digests[2] and json.loads(digests[0])["passed"]
    _line(12, ok, "cmd_pipeline JSON byte-identical across 3 runs")
