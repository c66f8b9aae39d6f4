"""Command-line interface: validate JSON-described objects and emit reports.

Subcommands cover each layer of the toolkit: `algebra` (Frobenius checks and
idempotents), `branes` (the Cardy/sewing/centrality/adjoint suite), `family`
(potential -> WDVV -> cover -> monodromy), `bdr` (cocycle checks), `twisted`
(bundle operations), and `pipeline` (family to twisted-bundle end to end).

Reports are deterministic for a fixed (input, seed, tolerances): JSON output
is byte-identical across runs.  Wall time therefore goes to stderr, not into
the report.  Exit codes: 0 all checks passed, 1 a check failed, 2 malformed
input (the message carries a JSON-pointer location), an unreadable input
file, or a numerical failure (`LinAlgError`) on an input no check anticipated.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from . import jsonio
from .bdr import assemble, check_det, check_quadruple, check_triple, trivial_lines
from .branes import (
    check_adjoint,
    check_cardy,
    check_centrality,
    check_sewing,
)
from .errors import (
    BranekitError,
    InputError,
    NonUnit,
    NotSemisimpleAtPoint,
    NoWitnessFound,
    WDVVViolation,
)
from .family import (
    check_cocycle,
    from_potential,
    idempotent_frames,
    monodromy,
    perm_cycles,
    transition_permutations,
)
from .report import CheckReport
from .spectral import brane_to_twisted_components, lift_label
from .tolerances import Tolerance
from .twisted import (
    IsoWitness,
    azumaya_extract,
    dual,
    end,
    hom,
    psi,
    solve_iso,
    tensor,
    twist_key,
    validate as validate_twisted,
    verify_iso,
)


def _report(args, checks: CheckReport, extras=None) -> dict:
    return {
        "tool": {"name": "branekit", "version": __version__},
        "command": args.command if args.subcommand is None
        else f"{args.command} {args.subcommand}",
        "input": args.input,
        "config": {
            "seed": args.seed,
            "tol_structural": args.tol_structural,
            "tol_rank": args.tol_rank,
        },
        "passed": checks.passed,
        "checks": [r.to_dict() for r in checks.records],
        "extras": extras or {},
    }


def _tol(args) -> Tolerance:
    return Tolerance(eps_structural=args.tol_structural, eps_rank=args.tol_rank)


# -- subcommands --------------------------------------------------------------

def cmd_algebra(args):
    obj = jsonio.read_json(args.input)
    alg = jsonio.parse_algebra(obj)
    tol = _tol(args)
    checks = alg.validate(tol)
    extras = {"dim": alg.dim, "metric": jsonio.matrix_to_json(alg.metric())}
    ok, witness = alg.is_semisimple(tol, args.seed)
    checks.add("semisimple", ok, None,
               detail=None if ok else f"diagnostics: {witness}")
    if ok:
        extras["idempotents"] = jsonio.matrix_to_json(witness.idempotents)
        extras["weights"] = jsonio.vector_to_json(witness.weights)
    return _report(args, checks, extras)


def cmd_branes(args):
    obj = jsonio.read_json(args.input)
    sec, labels = jsonio.parse_branes(obj)
    labels = sorted(labels, key=lambda l: l.dims)
    tol = _tol(args)
    checks = CheckReport()
    for a in labels:
        checks.extend(check_adjoint(sec, a, tol, args.seed))
    for i, a in enumerate(labels):
        for b in labels[i:]:
            checks.extend(check_sewing(sec, a, b, tol, args.seed))
            checks.extend(check_centrality(sec, a, b, tol, args.seed))
    for a in labels:
        for b in labels:
            checks.extend(check_cardy(sec, a, b, tol))
    return _report(args, checks, {"n": sec.n, "labels": [list(l.dims) for l in labels]})


def _build_cover(args, fam, nerve, checks):
    tol = _tol(args)
    try:
        family = from_potential(fam, nerve, tol)
        checks.add("unit_direction", True, None)
        checks.add("wdvv_associativity", True, None)
    except NonUnit as exc:
        checks.add("unit_direction", False, None, detail=str(exc))
        return None, None
    except WDVVViolation as exc:
        checks.add("unit_direction", True, None)
        for (cid, idx, res) in exc.points:
            checks.add("wdvv_associativity", False, res, location=f"{cid}[{idx}]")
        return None, None
    try:
        frames = idempotent_frames(family, tol, args.seed)
        checks.add("semisimple_at_samples", True, None)
    except NotSemisimpleAtPoint as exc:
        checks.add("semisimple_at_samples", False, None,
                   location=str(exc.point), detail=str(exc))
        return None, None
    cover = transition_permutations(frames, nerve)
    return family, cover


def _monodromy_extras(cover, loops) -> list:
    perms = [monodromy(cover, loop) for loop in loops]
    return [{"loop": loop, "permutation": list(perm), "cycles": perm_cycles(perm)}
            for loop, perm in zip(loops, perms)]


def _bdr_checks(cocycle, nerve) -> CheckReport:
    checks = check_det(cocycle)
    checks.extend(check_triple(cocycle, nerve))
    checks.extend(check_quadruple(cocycle, nerve))
    return checks


def cmd_family(args):
    obj = jsonio.read_json(args.input)
    fam, nerve, loops = jsonio.parse_family(obj)
    checks = CheckReport()
    family, cover = _build_cover(args, fam, nerve, checks)
    extras = {"charts": len(nerve.charts)}
    if cover is None:
        return _report(args, checks, extras)
    checks.extend(check_cocycle(cover))
    extras["sheets"] = cover.n
    # theta(e_i) along each sheet track must sum to theta(1) at every sample
    worst = 0.0
    for cid in nerve.chart_order:
        for s, weights in enumerate(cover.frames.weights[cid]):
            alg = family.algebras[(cid, s)]
            worst = max(worst, abs(weights.sum() - alg.theta(alg.unit)))
    checks.add("sheet_measure_sums_to_unit_trace", worst <= 1e-9, worst)
    extras["monodromy"] = _monodromy_extras(cover, loops)
    return _report(args, checks, extras)


def cmd_bdr(args):
    obj = jsonio.read_json(args.input)
    cocycle, nerve = jsonio.parse_bdr(obj)
    return _report(args, _bdr_checks(cocycle, nerve),
                   {"n": cocycle.n, "edges": len(cocycle.edges)})


def cmd_twisted(args):
    obj = jsonio.read_json(args.input)
    nerve = jsonio.parse_nerve_field(obj, args.input)
    tol = _tol(args)
    checks = CheckReport()
    extras = {}
    op = args.subcommand

    def bundle_at(key):
        return jsonio.parse_twisted(jsonio.get_field(obj, key, ""), nerve, f"/{key}")

    if op == "validate":
        e = jsonio.parse_twisted(obj, nerve)
        checks.extend(validate_twisted(e, tol))
    elif op in ("tensor", "hom"):
        e, f = bundle_at("e"), bundle_at("f")
        out = tensor(e, f) if op == "tensor" else hom(e, f)
        checks.extend(validate_twisted(out, tol))
        worst = 0.0
        for t in nerve.triangles:
            expected = (e.twist_of(*t) * f.twist_of(*t) if op == "tensor"
                        else f.twist_of(*t) / e.twist_of(*t))
            worst = max(worst, abs(out.twist_of(*t) - expected))
        checks.add("twist_composition", worst <= 1e-12, worst)
        extras["result"] = jsonio.twisted_to_json(out)
    elif op == "dual":
        e = jsonio.parse_twisted(obj, nerve)
        out = dual(e)
        checks.extend(validate_twisted(out, tol))
        worst = max((abs(out.twist_of(*t) * e.twist_of(*t) - 1.0)
                     for t in nerve.triangles), default=0.0)
        checks.add("twist_reciprocal", worst <= 1e-12, worst)
        extras["result"] = jsonio.twisted_to_json(out)
    elif op == "iso":
        e, f = bundle_at("e"), bundle_at("f")
        if obj.get("witness") is not None:
            u = jsonio.parse_witness(obj["witness"], nerve, e.rank)
            checks.extend(verify_iso(e, f, IsoWitness(u), tol))
        else:
            try:
                witness = solve_iso(e, f, tol)
                checks.add("witness_found", True, None)
                checks.extend(verify_iso(e, f, witness, tol))
                extras["witness"] = {cid: jsonio.matrix_to_json(m)
                                     for cid, m in sorted(witness.u.items())}
            except NoWitnessFound as exc:
                checks.add("witness_found", False, None, detail=str(exc))
    elif op == "azumaya":
        a = jsonio.parse_twisted(obj, nerve)
        bundle, report = azumaya_extract(a, tol, args.seed)
        checks.extend(report)
        checks.extend(validate_twisted(bundle, tol))
        try:
            w = solve_iso(end(bundle), a, tol)
            checks.extend(verify_iso(end(bundle), a, w, tol))
            checks.add("end_round_trip", True, None)
        except NoWitnessFound as exc:
            checks.add("end_round_trip", False, None, detail=str(exc))
        extras["result"] = jsonio.twisted_to_json(bundle)
    elif op == "psi":
        e = bundle_at("e")
        reps = {twist_key(r): r for r in jsonio.parse_twisted_list(obj, "reps", nerve)}
        out = psi(e, reps, tol)
        checks.extend(validate_twisted(out, tol))
        worst = max((abs(out.twist_of(*t) - 1.0) for t in nerve.triangles),
                    default=0.0)
        checks.add("psi_output_ordinary", worst <= 1e-10, worst)
        extras["result"] = jsonio.twisted_to_json(out)
    else:
        raise InputError(f"unknown twisted operation {op!r}")
    return _report(args, checks, extras)


def cmd_pipeline(args):
    obj = jsonio.read_json(args.input)
    fam, nerve, loops, label_dim, generators = jsonio.parse_pipeline(obj)
    tol = _tol(args)
    checks = CheckReport()
    extras = {}
    family, cover = _build_cover(args, fam, nerve, checks)
    if cover is None:
        return _report(args, checks, extras)
    checks.extend(check_cocycle(cover))
    extras["sheets"] = cover.n
    extras["monodromy"] = _monodromy_extras(cover, loops)

    cocycle = assemble(cover, trivial_lines(cover, generators), generators)
    checks.extend(_bdr_checks(cocycle, nerve))

    dims = {cid: (label_dim,) * cover.n for cid in nerve.chart_order}
    lifted = lift_label(dims, cover)
    checks.add("label_lift_consistent", True, None,
               detail=f"{len(lifted.components)} component(s)")
    extras["bundles"] = []
    for bundle, report in brane_to_twisted_components(lifted, tol=tol, seed=args.seed):
        checks.extend(report)
        checks.extend(validate_twisted(bundle, tol))
        extras["bundles"].append(jsonio.twisted_to_json(bundle))
    return _report(args, checks, extras)


# -- entry point ---------------------------------------------------------------

def _emit(report, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"branekit {__version__}: {report['command']} on {report['input']}",
                 f"config: {report['config']}"]
        for rec in report["checks"]:
            loc = f" @ {rec['location']}" if "location" in rec else ""
            res = f" residual={rec['residual']:.3e}" if "residual" in rec else ""
            det = f" ({rec['detail']})" if "detail" in rec else ""
            lines.append(f"[{rec['status'].upper():4s}] {rec['name']}{loc}{res}{det}")
        for key, val in sorted(report["extras"].items()):
            if key in ("monodromy",):
                for m in val:
                    lines.append(f"monodromy {m['loop']}: {m['cycles']}")
            elif not isinstance(val, (list, dict)):
                lines.append(f"{key}: {val}")
        lines.append("RESULT: " + ("pass" if report["passed"] else "FAIL"))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to the JSON input file")
    common.add_argument("--tol-structural", type=float, default=1e-9,
                        help="residual tolerance for algebraic identities")
    common.add_argument("--tol-rank", type=float, default=1e-8,
                        help="relative singular-value cutoff for rank decisions")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized checks")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("text", "json"), default="json")

    parser = argparse.ArgumentParser(
        prog="branekit",
        description="verification toolkit for Frobenius algebras, brane "
                    "categories, spectral covers, and twisted bundles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("algebra", parents=[common],
                   help="validate an algebra; metric, semisimplicity, idempotents")
    sub.add_parser("branes", parents=[common],
                   help="Cardy/sewing/centrality/adjoint suite over labels")
    sub.add_parser("family", parents=[common],
                   help="potential -> WDVV -> cover -> monodromy")
    sub.add_parser("bdr", parents=[common],
                   help="cocycle determinant/triple/quadruple checks")
    twisted = sub.add_parser("twisted", help="twisted vector bundle operations")
    tsub = twisted.add_subparsers(dest="subcommand", required=True)
    for op in ("validate", "tensor", "dual", "hom", "iso", "azumaya", "psi"):
        tsub.add_parser(op, parents=[common])
    sub.add_parser("pipeline", parents=[common],
                   help="family -> cover -> BDR -> label lift -> twisted bundle")
    return parser


_RUNNERS = {
    "algebra": cmd_algebra,
    "branes": cmd_branes,
    "family": cmd_family,
    "bdr": cmd_bdr,
    "twisted": cmd_twisted,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "subcommand"):
        args.subcommand = None
    start = time.perf_counter()
    try:
        report = _RUNNERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BranekitError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    # wall time stays out of the report so JSON output is byte-reproducible
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    _emit(report, args)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
