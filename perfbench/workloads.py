"""Seeded workload ladders: CLI jobs whose right answer is known by construction.

Each workload is a fixed list of jobs (rungs).  A job is one `branekit`
command on one generated JSON input, plus the truth that the construction
guarantees, which `truth.check` compares the report against.  The generator
uses numpy only, never branekit, so the inputs stay the same when the
program changes.  The same seed gives byte-identical input files.

BENCHMARK.json gives one line on why each workload exists; the docstring of
each workload below says why its rungs are the ones they are.
"""

import json
import os

from dataclasses import dataclass, field

import numpy as np

ANTIDIAG = [[0.0, 1.0], [1.0, 0.0]]
# Phi = 1/2 t0^2 t1 + t1^4 / 24: the algebra at (t0, t1) is C[x]/(x^2 - t1),
# so the two idempotent sheets swap once around t1 = 0.
QUADRATIC_POTENTIAL = [
    {"coeff": [0.5, 0.0], "monomial": [2, 1]},
    {"coeff": [1.0 / 24.0, 0.0], "monomial": [0, 4]},
]
# ROADMAP item 4: a holonomy that a generic root gauge does not commute
# with, so fixing the root gauge to 1 misses the isomorphism.
HOLONOMY = [[2.0, 1.0], [0.0, 0.5]]


@dataclass
class Job:
    """One CLI call: `branekit <command...> <file>` with default flags."""

    name: str
    command: tuple
    payload: dict
    truth: dict = field(repr=False)

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


@dataclass
class Workload:
    name: str
    jobs: list
    small: str        # job timed for small_job_s and cli_cold_s
    large: str        # job timed for large_job_s
    small_reps: int   # small-job calls per side sample

    def job(self, name) -> Job:
        return next(j for j in self.jobs if j.name == name)


# -- JSON helpers ---------------------------------------------------------------

def scalar(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix(m) -> list:
    return [[scalar(z) for z in row] for row in np.asarray(m)]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_inputs(workload: Workload, directory: str) -> dict:
    """Write every job's input; returns job name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for job in workload.jobs:
        path = os.path.join(directory, job.filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(job.payload))
        paths[job.name] = path
    return paths


# -- random building blocks -------------------------------------------------------

def well_conditioned(rng, n, cond=3.0):
    """U diag(s) W with unitary U, W and s in [1, cond]: condition <= cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.uniform(1.0, cond, n)
    s[0], s[-1] = 1.0, cond
    return (u * s) @ w


def invertible(rng, n, cond_cap=50.0):
    while True:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(m) < cond_cap:
            return m


def weights(rng, n):
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


# -- algebra_ladder ---------------------------------------------------------------

def conjugated_diagonal(w, p):
    """Structure constants of C^n (trace w) transported along x -> P x, as
    frobenius.conjugate does; its idempotents are the columns of P."""
    q = np.linalg.inv(p)
    # c'[i,j,k] = sum_m q[m,i] q[m,j] p[k,m]
    c = np.einsum("mi,mj,km->ijk", q, q, p)
    return c, p @ np.ones(len(w)), np.asarray(w) @ q


def algebra_payload(c, unit, trace) -> dict:
    return {"dim": int(c.shape[0]), "c": [matrix(s) for s in c],
            "unit": [scalar(z) for z in unit], "trace": [scalar(z) for z in trace]}


def nilpotent_plus_semisimple(rng, m):
    """C[x]/(x^2) (theta = (0, 1)) direct-summed with a conjugate of C^m."""
    w = weights(rng, m)
    cs, us, ts = conjugated_diagonal(w, well_conditioned(rng, m))
    n = m + 2
    c = np.zeros((n, n, n), dtype=complex)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[2:, 2:, 2:] = cs
    unit = np.concatenate([[1.0, 0.0], us])
    trace = np.concatenate([[0.0, 1.0], ts])
    return c, unit, trace


def algebra_ladder(seed) -> Workload:
    """`algebra` on conjugates of C^n by P with condition number 3, n = 4 to
    40, plus a nilpotent algebra summed with a semisimple one (exit 1 by
    design: it times the negative verdict).  `frobenius` does nearly all the
    work, as one `idempotent_basis` and one `validate` (n^4 tensors) per job.
    With this generator the seed's idempotent search passes at n <= 36 on
    every seed tried and raises a false NotSemisimple at n = 40 on 10 of 12
    (ROADMAP item 2), so n = 40 is the top rung and its failure shows in
    pass_ratio.  n = 32 is left out: it passes after 1 to 4 retries,
    depending on the seed, which would make the run time depend on it."""
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for n in (4, 8, 16, 24, 40):
        w = weights(rng, n)
        # At n = 40 the seed's idempotent search fails after a number of full
        # retries that depends on P (5.5 to 8.2 s over generator seeds), so P
        # comes from a fixed stream there and --seed draws only the weights.
        p = well_conditioned(np.random.default_rng(40) if n == 40 else rng, n)
        c, unit, trace = conjugated_diagonal(w, p)
        jobs.append(Job(f"n{n}", ("algebra",), algebra_payload(c, unit, trace),
                        {"kind": "semisimple", "idempotents": p.T, "weights": w}))
    c, unit, trace = nilpotent_plus_semisimple(rng, 14)
    jobs.append(Job("nilpotent16", ("algebra",), algebra_payload(c, unit, trace),
                    {"kind": "not_semisimple"}))
    return Workload("algebra_ladder", jobs, small="n4", large="n40", small_reps=10)


# -- branes_suite -----------------------------------------------------------------

def branes_payload(w, labels) -> dict:
    return {"sector": {"weights": [scalar(z) for z in w]},
            "labels": [{"dims": list(d)} for d in labels]}


def branes_suite(seed) -> Workload:
    """`branes` over a 4-index sector.  The 12-label input spends its time on
    per-call cost over 78 sewing/centrality pairs and 144 Cardy pairs; the
    two-label inputs at d = 2, 4, 6 spend it in `dual_basis` and the Cardy
    check (ROADMAP item 3).  The seed changes the weights and which labels,
    not the label sizes, so the work per rung does not depend on it."""
    rng = np.random.default_rng([seed, 2])
    n = 4
    jobs = []
    small = [tuple(int(x) for x in np.unravel_index(k, (3,) * n))
             for k in range(1, 3 ** n)]
    picks = rng.choice(len(small), size=12, replace=False)
    labels = [small[k] for k in sorted(picks)]
    jobs.append(Job("labels12", ("branes",), branes_payload(weights(rng, n), labels),
                    {"kind": "branes", "labels": labels}))
    for d in (2, 4, 6):
        mixed = [d, max(d // 2, 1), 1, max(d - 1, 1)]
        mixed = tuple(int(x) for x in rng.permutation(mixed))
        pair = [(d,) * n, mixed]
        jobs.append(Job(f"d{d}", ("branes",), branes_payload(weights(rng, n), pair),
                        {"kind": "branes", "labels": pair}))
    return Workload("branes_suite", jobs, small="labels12", large="d6", small_reps=1)


# -- circle nerves ----------------------------------------------------------------

def circle_nerve(num_charts, steps, point):
    """Charts c0..c{N-1} on a circle of N * steps / 2 grid points.  Chart k
    holds the steps + 1 points from k * steps / 2 on, so it overlaps the next
    two charts: edges (k, k+1), (k, k+2) and triangles (k, k+1, k+2) share
    sample points.  `point(p)` maps a grid index to a sample; shared samples
    come from the same index and so are float-identical."""
    assert steps % 2 == 0
    grid = num_charts * steps // 2
    charts = [{"id": f"c{k}",
               "samples": [point((k * steps // 2 + j) % grid) for j in range(steps + 1)]}
              for k in range(num_charts)]
    ids = [f"c{k}" for k in range(num_charts)]
    edges = [[ids[k], ids[(k + s) % num_charts]] for s in (1, 2)
             for k in range(num_charts)]
    triangles = [[ids[k], ids[(k + 1) % num_charts], ids[(k + 2) % num_charts]]
                 for k in range(num_charts)]
    return {"charts": charts, "edges": edges, "triangles": triangles}


def cycle_nerve(num_charts):
    """A bare cycle: chart k holds grid points k and k+1; no triangles."""
    ids = [f"c{k}" for k in range(num_charts)]
    charts = [{"id": ids[k], "samples": [[k], [(k + 1) % num_charts]]}
              for k in range(num_charts)]
    edges = [[ids[k], ids[(k + 1) % num_charts]] for k in range(num_charts)]
    return {"charts": charts, "edges": edges}


# -- cover_pipeline ---------------------------------------------------------------

def pipeline_payload(rng, num_charts, steps, label_dim) -> dict:
    radius = rng.uniform(0.7, 1.4)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    grid = num_charts * steps // 2

    def point(p):
        return [[0.0, 0.0], scalar(radius * np.exp(1j * (phase + 2.0 * np.pi * p / grid)))]

    loop = [f"c{k}" for k in range(num_charts)] + ["c0"]
    family = {"n": 2, "potential": QUADRATIC_POTENTIAL, "metric": ANTIDIAG,
              "unit_direction": 0, "nerve": circle_nerve(num_charts, steps, point),
              "loops": [loop, loop + loop[1:]]}
    return {"family": family, "label_dim": label_dim, "generators": 1}


def cover_pipeline(seed) -> Workload:
    """`pipeline` on circle nerves of 8x4, 32x16 and 64x32 (charts x steps;
    2112 samples at the top) with label_dim 2, and 16x8 with label_dim 4.
    It runs `jsonio` on inputs up to ~230 KB, `from_potential`, one small
    `idempotent_basis` per sample (the frobenius kernel of algebra_ladder as
    many small calls), the cocycle and BDR checks, `spectral` and
    `azumaya_extract`.  The seed moves the circle's radius and phase only."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for charts, steps, d in ((8, 4, 2), (32, 16, 2), (64, 32, 2), (16, 8, 4)):
        jobs.append(Job(f"c{charts}x{steps}d{d}", ("pipeline",),
                        pipeline_payload(rng, charts, steps, d),
                        {"kind": "pipeline", "label_dim": d}))
    return Workload("cover_pipeline", jobs, small="c8x4d2", large="c64x32d2",
                    small_reps=2)


# -- twisted_bundles --------------------------------------------------------------

def edge_keys(nerve):
    return [tuple(e) for e in nerve["edges"]]


def gauge_trivial(rng, nerve, rank):
    """g_ij = s_ij u_i u_j^-1: isomorphic to a bundle of scalar lines."""
    u = {ch["id"]: invertible(rng, rank) for ch in nerve["charts"]}
    return {(i, j): np.exp(2j * np.pi * rng.uniform()) * u[i] @ np.linalg.inv(u[j])
            for (i, j) in edge_keys(nerve)}


def regauge(rng, nerve, g):
    """f_ij = v_i g_ij v_j^-1 for random invertible v: isomorphic to g."""
    rank = next(iter(g.values())).shape[0]
    v = {ch["id"]: invertible(rng, rank) for ch in nerve["charts"]}
    return {(i, j): v[i] @ m @ np.linalg.inv(v[j]) for (i, j), m in g.items()}


def end_bundle(g):
    """END(E): conjugation by g_ij on row-major vectorized matrices."""
    return {key: np.kron(m, np.linalg.inv(m).T) for key, m in g.items()}


def bundle_json(g) -> dict:
    rank = next(iter(g.values())).shape[0]
    return {"rank": int(rank), "g": {f"{i},{j}": matrix(m) for (i, j), m in g.items()}}


def twisted_bundles(seed) -> Workload:
    """`twisted iso`, `azumaya`, `hom` and `validate` on gauge-trivial random
    bundles over triangulated circle nerves at (charts, rank) = (16, 2),
    (64, 3), (32, 4): `solve_iso`, `hom` and `verify_iso` are reached by no
    other workload.  Plus ROADMAP item 4's pair: a 4-cycle bundle with
    holonomy HOLONOMY and a random regauging of it.  They are isomorphic, but
    the seed's `solve_iso` fixes the root gauge to 1 and misses it (exit 1)."""
    rng = np.random.default_rng([seed, 4])
    jobs = []
    for charts, rank in ((16, 2), (64, 3), (32, 4)):
        nerve = circle_nerve(charts, 2, lambda p: [p])
        e = gauge_trivial(rng, nerve, rank)
        f = regauge(rng, nerve, e)
        a = end_bundle(gauge_trivial(rng, nerve, rank))
        tag = f"{charts}r{rank}"
        pair = {"nerve": nerve, "e": bundle_json(e), "f": bundle_json(f)}
        jobs.append(Job(f"iso{tag}", ("twisted", "iso"), pair,
                        {"kind": "iso", "e": e, "f": f}))
        jobs.append(Job(f"azumaya{tag}", ("twisted", "azumaya"),
                        {"nerve": nerve, **bundle_json(a)},
                        {"kind": "azumaya", "a": a, "rank": rank}))
        jobs.append(Job(f"hom{tag}", ("twisted", "hom"), pair,
                        {"kind": "hom", "e": e, "f": f}))
        jobs.append(Job(f"validate{tag}", ("twisted", "validate"),
                        {"nerve": nerve, **bundle_json(e)},
                        {"kind": "validate", "triangles": len(nerve["triangles"])}))
    nerve = cycle_nerve(4)
    base = {key: np.eye(2, dtype=complex) for key in edge_keys(nerve)}
    base[("c3", "c0")] = np.array(HOLONOMY, dtype=complex)
    e = regauge(rng, nerve, base)
    f = regauge(rng, nerve, e)
    jobs.append(Job("iso_holonomy", ("twisted", "iso"),
                    {"nerve": nerve, "e": bundle_json(e), "f": bundle_json(f)},
                    {"kind": "iso", "e": e, "f": f}))
    return Workload("twisted_bundles", jobs, small="validate16r2",
                    large="azumaya32r4", small_reps=4)


WORKLOADS = {
    "algebra_ladder": algebra_ladder,
    "branes_suite": branes_suite,
    "cover_pipeline": cover_pipeline,
    "twisted_bundles": twisted_bundles,
}
