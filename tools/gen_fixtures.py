#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/.

Run from the repository root:  python3 tools/gen_fixtures.py
"""

import json
import os
import sys

from itertools import combinations

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from branekit import jsonio
from branekit.bdr import BDRCocycle, assemble
from branekit.family import (
    Chart,
    Nerve,
    from_potential,
    idempotent_frames,
    transition_permutations,
)
from branekit.poly import Polynomial
from branekit.twisted import (
    TwistedBundle,
    dual,
    end,
    random_twisted_bundle,
    scalar_line,
    solve_iso,
    tensor,
    trivial_line,
)

OUT = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

ANTIDIAG = [[0.0, 1.0], [1.0, 0.0]]
OMEGA = np.exp(2j * np.pi / 3)


def write(name, obj):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def circle_nerve_json(num_charts=8, samples_per_chart=4):
    charts = []
    for k in range(num_charts):
        samples = []
        for j in range(samples_per_chart + 1):
            frac = (k + j / samples_per_chart) % num_charts
            theta = 2.0 * np.pi * frac / num_charts
            z = np.exp(1j * theta)
            samples.append([[0.0, 0.0], [z.real, z.imag]])
        charts.append({"id": f"c{k}", "samples": samples})
    edges = [[f"c{k}", f"c{(k + 1) % num_charts}"] for k in range(num_charts)]
    return {"charts": charts, "edges": edges}


def family_circle_json():
    loop = [f"c{k}" for k in range(8)] + ["c0"]
    return {
        "n": 2,
        "potential": [
            {"coeff": [0.5, 0.0], "monomial": [2, 1]},
            {"coeff": [1.0 / 24.0, 0.0], "monomial": [0, 4]},
        ],
        "metric": ANTIDIAG,
        "unit_direction": 0,
        "nerve": circle_nerve_json(),
        "loops": [loop, loop + loop[1:]],
    }


def disk_cover():
    t1 = 0.7
    center = (0.0, complex(t1))
    charts = [
        Chart("p0", ((0.0, t1 + 0.3), center)),
        Chart("p1", ((0.0, t1 + 0.3j), center)),
        Chart("p2", ((0.0, t1 - 0.25), center)),
    ]
    nerve = Nerve(charts, [("p0", "p1"), ("p1", "p2"), ("p0", "p2")],
                  triangles=[("p0", "p1", "p2")])
    phi = Polynomial(2, {(2, 1): 0.5, (0, 4): 1.0 / 24.0})
    from branekit.family import PotentialFamily
    fam = PotentialFamily(2, phi, ANTIDIAG, 0)
    family = from_potential(fam, nerve)
    cover = transition_permutations(idempotent_frames(family), nerve)
    return cover, nerve


def bdr_disk_json():
    """Coboundary lines L_i^{ab} = phi_a(i) - phi_b(u(i)), which satisfy every
    triangle law, with phi drawn per (chart, sheet)."""
    cover, nerve = disk_cover()
    rng = np.random.default_rng(7)
    phi = {cid: np.array([rng.integers(-3, 4, size=2) for _ in range(cover.n)])
           for cid in nerve.chart_order}
    lines = [phi[a] - phi[b][u] for (a, b), u in zip(cover.keys, cover.transitions)]
    return jsonio.bdr_to_json(assemble(cover, lines))


def three_chart_nerve():
    pt = ((0.0,),)
    charts = [Chart(c, pt) for c in ("0", "1", "2")]
    return Nerve(charts, [("0", "1"), ("0", "2"), ("1", "2")],
                 triangles=[("0", "1", "2")])


def tetrahedron_nerve():
    """Four charts on one point: every pair an edge, every triple a
    triangle, and the one quadruple."""
    ids = ("0", "1", "2", "3")
    charts = [Chart(c, ((0.0,),)) for c in ids]
    return Nerve(charts, list(combinations(ids, 2)), list(combinations(ids, 3)), [ids])


def bdr_tetra_json():
    """A coboundary cocycle on the tetrahedron nerve with edge (2, 3) stored as
    (3, 2), so triangles (0, 2, 3) and (1, 2, 3) read it through its strict
    inverse.  Sheet i of chart a is global sheet sigma_a(i), so u_ab =
    sigma_b^-1 sigma_a, and L_i^{ab} = phi_a(i) - phi_b(u_ab(i))."""
    base = tetrahedron_nerve()
    edges = [e[::-1] if e == ("2", "3") else e for e in base.edges]
    nerve = Nerve([base.charts[cid] for cid in base.chart_order], edges, base.triangles,
                  base.quadruples)
    sigma = {"0": [0, 1], "1": [1, 0], "2": [0, 1], "3": [1, 0]}
    rng = np.random.default_rng(23)
    phi = {cid: rng.integers(-3, 4, size=(2, 2)) for cid in nerve.chart_order}
    rank, lines = [], []
    for a, b in edges:
        u = np.argsort(sigma[b])[sigma[a]]
        rank.append(np.eye(2, dtype=int)[u])
        lines.append(rank[-1][:, :, None] * (phi[a] - phi[b][u])[:, None])
    return jsonio.bdr_to_json(BDRCocycle(nerve, edges, rank, lines))


def omega_line(nerve):
    return scalar_line(nerve, {("0", "1"): 1.0, ("1", "2"): 1.0,
                               ("0", "2"): 1.0 / OMEGA})


def conditioned(rng, k, cond):
    """A random k x k matrix with singular values logspaced from 1 to 1/cond."""
    u, v = (np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
            for _ in range(2))
    return u @ np.diag(np.logspace(0, -np.log10(cond), k)) @ v


def illcond_azumaya(nerve):
    """END of g_ij = u_i u_j^-1 with u_0 of cond 1e3: the conjugator bound of
    the edges at chart 0 misses the `edge_automorphism` rule, so the direct
    check decides them, while the edge (1, 2) is certified."""
    rng = np.random.default_rng(14)
    u = {c: conditioned(rng, 2, 1e3 if c == "0" else 3) for c in nerve.chart_order}
    e = TwistedBundle(nerve, 2, nerve.edges, [u[i] @ np.linalg.inv(u[j]) for i, j in nerve.edges])
    return end(e)


def main():
    os.makedirs(OUT, exist_ok=True)

    write("algebra_quadratic.json", {
        "dim": 2,
        "c": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
              [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
        "unit": [[1, 0], [0, 0]],
        "trace": [[1, 0], [0, 0]],
    })
    write("algebra_nilpotent.json", {
        "dim": 2,
        "c": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
              [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
        "unit": [[1, 0], [0, 0]],
        "trace": [[0, 0], [1, 0]],
    })
    # C^2 with theta = (1, 0): semisimple, but the trace vanishes on e_2
    write("algebra_degenerate_trace.json", {
        "dim": 2,
        "c": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
              [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "unit": [[1, 0], [1, 0]],
        "trace": [[1, 0], [0, 0]],
    })
    write("branes_small.json", {
        "sector": {"weights": [[1, 0], [4, 0]], "roots": [[1, 0], [2, 0]]},
        "labels": [{"dims": [2, 1]}, {"dims": [1, 3]}, {"dims": [0, 0]}],
    })
    # many shape groups for the batched suite: n = 4, a duplicate label, the
    # zero label, zero indices, and explicit roots with the branch of index 1 flipped
    write("branes_labels.json", {
        "sector": {"weights": [[1, 0], [4, 0], [-9, 0], [0, 2]],
                   "roots": [[1, 0], [-2, 0], [0, 3], [1, 1]]},
        "labels": [{"dims": d} for d in (
            [2, 1, 0, 1], [0, 0, 0, 0], [1, 0, 2, 0], [1, 2, 1, 1], [2, 1, 0, 1], [0, 3, 0, 1],
            [1, 1, 1, 1], [3, 0, 0, 2], [0, 1, 2, 3], [2, 2, 0, 0], [0, 0, 1, 0])],
    })
    write("branes_degenerate.json", {
        "sector": {"weights": [[1, 0], [0, 0]]},
        "labels": [{"dims": [1, 1]}],
    })
    write("family_circle.json", family_circle_json())
    write("bdr_disk.json", bdr_disk_json())

    nerve = three_chart_nerve()
    nerve_json = jsonio.nerve_to_json(nerve)

    omega = omega_line(nerve)
    write("twisted_omega.json", {"nerve": nerve_json,
                                 **jsonio.twisted_to_json(omega)})

    scal = {("0", "1"): 1.7, ("1", "2"): 0.4 + 0.1j, ("0", "2"): 2.0}
    e = random_twisted_bundle(nerve, 2, seed=5, scalars=scal)
    f = random_twisted_bundle(nerve, 3, seed=6, scalars=scal)
    write("twisted_pair.json", {
        "nerve": nerve_json,
        "e": jsonio.twisted_to_json(e),
        "f": jsonio.twisted_to_json(f),
    })

    rng = np.random.default_rng(9)
    u = {c: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
         for c in nerve.chart_order}
    conj = [u[i] @ m @ np.linalg.inv(u[j]) for (i, j), m in zip(e.keys, e.g)]
    e_conj = TwistedBundle(nerve, 2, e.keys, conj)
    iso_pair = {
        "nerve": nerve_json,
        "e": jsonio.twisted_to_json(e),
        "f": jsonio.twisted_to_json(e_conj),
    }
    write("twisted_iso.json", iso_pair)
    witness = solve_iso(e, e_conj).u
    write("twisted_iso_witness.json", {
        **iso_pair,
        "witness": {cid: jsonio.array_to_json(m) for cid, m in sorted(witness.items())},
    })

    base = random_twisted_bundle(nerve, 2, seed=11)
    write("twisted_azumaya.json", {"nerve": nerve_json,
                                   **jsonio.twisted_to_json(end(base))})
    write("twisted_azumaya_illcond.json", {"nerve": nerve_json,
                                           **jsonio.twisted_to_json(illcond_azumaya(nerve))})

    ordinary = random_twisted_bundle(nerve, 2, seed=12,
                                     scalars={k: 1.0 for k in nerve.edges})
    write("twisted_psi.json", {
        "nerve": nerve_json,
        "e": jsonio.twisted_to_json(tensor(ordinary, omega)),
        "reps": [jsonio.twisted_to_json(trivial_line(nerve)),
                 jsonio.twisted_to_json(omega),
                 jsonio.twisted_to_json(dual(omega))],
    })

    tetra = tetrahedron_nerve()
    write("bdr_tetra.json", bdr_tetra_json())
    write("twisted_tetra.json", {
        "nerve": jsonio.nerve_to_json(tetra),
        **jsonio.twisted_to_json(random_twisted_bundle(tetra, 2, seed=13)),
    })

    write("pipeline_circle.json", {
        "family": family_circle_json(),
        "label_dim": 2,
    })


if __name__ == "__main__":
    main()
