"""Per-pair reference of the `branekit branes` suite, for the differential test.

The Cardy, sewing, centrality and adjoint checks as they ran one label (or
label pair) per call: each check draws from its own `default_rng(seed)`,
carved into per-block (trials, rows, cols) stacks, and the Cardy check builds
the matrix units, their Gram matrix and the duals of one pair, and compares
each twist operator K_i = sum_nu psi_nu (x) psi^nu with its closed form.
`suite` runs them in the order of the command's report.  Self-contained but
for the sector and label types, so a change to the batched kernels cannot
change the reference too.
"""

import math

import numpy as np

from branekit.errors import DegeneratePairing
from branekit.report import CheckReport
from branekit.tolerances import DEFAULT_TOL, singular_values, sv_ratio

TRIALS = 8


def block_shapes(a, b):
    return list(zip(b.dims, a.dims))


def carve(rows, shapes):
    stacks, k = [], 0
    for shape in shapes:
        size = math.prod(shape)
        stacks.append(rows[:, k:k + size].reshape((len(rows),) + tuple(shape)))
        k += size
    return stacks


def draw_trials(rng, shapes):
    draws = rng.standard_normal(TRIALS * 2 * sum(math.prod(s) for s in shapes)).reshape(TRIALS, -1)
    return [p[:, 0] + 1j * p[:, 1] for p in carve(draws, [(2,) + tuple(s) for s in shapes])]


def theta_stack(sec, blocks):
    tr = np.stack([np.trace(m, axis1=1, axis2=2) for m in blocks], axis=1)
    r = sec.roots
    terms = (tr.real * r.real - tr.imag * r.imag) + 1j * (tr.real * r.imag + tr.imag * r.real)
    return np.add.accumulate(terms, axis=1)[:, -1]


def iota_stack(x, dims):
    return [x[:, i, None, None] * np.eye(d, dtype=complex) for i, d in enumerate(dims)]


def iota_upper_stack(sec, blocks):
    return np.stack([np.trace(m, axis1=1, axis2=2) / r for r, m in zip(sec.roots, blocks)], axis=1)


def unit_stacks(a, b):
    eye = np.eye(sum(db * da for db, da in block_shapes(a, b)), dtype=complex)
    return carve(eye, block_shapes(a, b)), carve(eye, block_shapes(b, a))


def contract_basis(x, y):
    return (x.reshape(len(x), -1).T @ y.reshape(len(y), -1)).reshape(x.shape[1:] + y.shape[1:])


def pairing_gram(sec, stacks_ab, stacks_ba):
    m = len(stacks_ab[0])
    gram = np.zeros((m, m), dtype=complex)
    for root, p, q in zip(sec.roots, stacks_ab, stacks_ba):
        if p.shape[1] * p.shape[2]:
            prod = p.reshape(m, -1) @ q.transpose(0, 2, 1).reshape(m, -1).T
            prod *= root
            gram += prod
    return gram


def unit_pairing_sv(sec, a, b):
    return singular_values(pairing_gram(sec, *unit_stacks(a, b)))


def scalar_residual(lhs, rhs):
    lhs_m, rhs_m, diff_m = (np.hypot(z.real, z.imag) for z in (lhs, rhs, lhs - rhs))
    return float(np.max(diff_m)), max(1.0, float(np.max(lhs_m)), float(np.max(rhs_m)))


def loc(a, b):
    return f"a={a.dims},b={b.dims}"


def check_cardy(sec, a, b, tol, sv):
    report = CheckReport()
    worst = 0.0
    if sum(db * da for db, da in block_shapes(a, b)):
        units_ab, units_ba = unit_stacks(a, b)
        ratio = sv_ratio(sv)
        if not tol.passes("pairing_nondegenerate", ratio):
            raise DegeneratePairing(f"pairing Gram matrix is singular (sv ratio {ratio:.3e})")
        coeff = np.linalg.inv(pairing_gram(sec, units_ab, units_ba))
        duals = [contract_basis(coeff, q) for q in units_ba]
        for p, d, root in zip(units_ab, duals, sec.roots):
            if p.size:
                k = contract_basis(p, d)
                target = np.einsum("yz,xw->xyzw", np.eye(k.shape[1]), np.eye(k.shape[0])) / root
                worst = max(worst, float(np.max(np.abs(k - target))))
    report.check("cardy", worst, tol, location=loc(a, b))
    return report


def check_sewing(sec, a, b, tol, seed, sv):
    report = CheckReport()
    draws = draw_trials(np.random.default_rng(seed), block_shapes(a, b) + block_shapes(b, a))
    phi, psi = draws[:a.n], draws[a.n:]
    worst, scale = scalar_residual(theta_stack(sec, [q @ p for p, q in zip(phi, psi)]),
                                   theta_stack(sec, [p @ q for p, q in zip(phi, psi)]))
    report.check("sewing_symmetry", worst, tol, scale, location=loc(a, b))
    if sv.size:
        report.check("pairing_nondegenerate", float(sv[-1]), tol, sv[0], location=loc(a, b),
                     detail="smallest singular value of the pairing Gram matrix")
    else:
        report.add("pairing_nondegenerate", True, 0.0, location=loc(a, b),
                   detail="zero morphism space; vacuous")
    return report


def check_centrality(sec, a, b, tol, seed):
    report = CheckReport()
    x, *sigma = draw_trials(np.random.default_rng(seed), [(sec.n,)] + block_shapes(a, b))
    worst = max((float(np.max(np.abs(m))) for m in (
        s @ xa - xb @ s for s, xa, xb in zip(sigma, iota_stack(x, a.dims), iota_stack(x, b.dims)))
        if m.size), default=0.0)
    report.check("centrality", worst, tol, location=loc(a, b))
    return report


def check_adjoint(sec, a, tol, seed):
    report = CheckReport()
    *sigma, x = draw_trials(np.random.default_rng(seed), block_shapes(a, a) + [(sec.n,)])
    lhs = ((iota_upper_stack(sec, sigma) * x)[:, None, :] @ sec.weights[:, None])[:, 0, 0]
    rhs = theta_stack(sec, [m @ xa for m, xa in zip(sigma, iota_stack(x, a.dims))])
    worst, scale = scalar_residual(lhs, rhs)
    report.check("adjoint", worst, tol, scale, location=f"a={a.dims}")
    return report


def suite(sec, labels, tol=DEFAULT_TOL, seed=0) -> CheckReport:
    """The report of `branekit branes` on `labels`, one pair per check call."""
    labels = sorted(labels, key=lambda l: l.dims)
    distinct = list(dict.fromkeys(labels))
    svs = {frozenset((a, b)): unit_pairing_sv(sec, a, b)
           for i, a in enumerate(distinct) for b in distinct[i:]}
    checks = CheckReport()
    for a in labels:
        checks.extend(check_adjoint(sec, a, tol, seed))
    for i, a in enumerate(labels):
        for b in labels[i:]:
            checks.extend(check_sewing(sec, a, b, tol, seed, svs[frozenset((a, b))]))
            checks.extend(check_centrality(sec, a, b, tol, seed))
    for a in labels:
        for b in labels:
            checks.extend(check_cardy(sec, a, b, tol, svs[frozenset((a, b))]))
    return checks
