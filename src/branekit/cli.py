"""Command-line interface: validate JSON-described objects and emit reports.

Subcommands cover each layer of the toolkit: `algebra` (Frobenius checks and
idempotents), `branes` (the Cardy/sewing/centrality/adjoint suite), `family`
(potential -> WDVV -> cover -> monodromy), `bdr` (cocycle checks), `twisted`
(bundle operations), and `pipeline` (family to twisted-bundle end to end).

Reports are deterministic for a fixed (input, seed, tolerances): JSON output
is byte-identical across runs.  Wall time therefore goes to stderr, not into
the report.  A JSON report is one line, `json.dumps(report, sort_keys=True)`;
read it with `--format text` or `python -m json.tool`.  Exit codes: 0 all
checks passed, 1 a check failed, 2 a bad flag or an unwritable `--out`,
malformed input (with a JSON-pointer location), an unreadable input file, or
a `LinAlgError` on an input no check anticipated.

Each layer is imported inside the `cmd_*` function or helper that calls it,
so a process loads only its own command's layers; module level holds what
`main`, `_report` and the parser use (`errors`, `report`, `tolerances`,
`jsonio`).  A process without cached bytecode compiles each module it
imports, so this sets the cold start of every command.
"""

import argparse
import json
import sys
import time

from itertools import chain

import numpy as np

from . import __version__
from . import jsonio
from .errors import (
    BranekitError,
    DegenerateWeight,
    InputError,
    NonUnit,
    NotSemisimple,
    NotSemisimpleAtPoint,
    NoWitnessFound,
    WDVVViolation,
)
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance


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
        **checks.to_dict(),
        "extras": extras or {},
    }


# -- subcommands --------------------------------------------------------------

def cmd_algebra(args, tol: Tolerance):
    obj = jsonio.read_json(args.input)
    alg = jsonio.parse_algebra(obj)
    basis = failure = None
    try:
        basis = alg.idempotent_basis(tol, args.seed)
    except (NotSemisimple, DegenerateWeight) as exc:
        failure = exc
    checks = alg.validate(tol, basis)
    extras = {"dim": alg.dim, "metric": jsonio.array_to_json(alg.metric())}
    if isinstance(failure, DegenerateWeight):
        # idempotents were found, but the trace vanishes on one of them
        checks.check("idempotent_weight", float(failure.weight), tol,
                     detail="lightest |theta(e_i)|")
    else:
        checks.add("semisimple", basis is not None, None,
                   detail=None if failure is None else f"diagnostics: {failure.args[0]}")
    if basis is not None:
        extras["idempotents"] = jsonio.array_to_json(basis.idempotents)
        extras["weights"] = jsonio.array_to_json(basis.weights)
    return _report(args, checks, extras)


def cmd_branes(args, tol: Tolerance):
    from .branes import (
        check_adjoint, check_cardy, check_centrality, check_sewing, unit_pairing_sv)
    obj = jsonio.read_json(args.input)
    sec, labels = jsonio.parse_branes(obj)
    labels = sorted(labels, key=lambda l: l.dims)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i:]]
    ordered = [(a, b) for a in labels for b in labels]
    # one pairing SVD per unordered pair of distinct labels, for its sewing
    # and both Cardy records
    distinct = list(dict.fromkeys(labels))
    unordered = [(a, b) for i, a in enumerate(distinct) for b in distinct[i:]]
    svs = dict(zip(unordered, unit_pairing_sv(sec, unordered)))
    checks = check_adjoint(sec, labels, tol, args.seed)
    sewing = check_sewing(sec, pairs, tol, args.seed, [svs[p] for p in pairs]).records
    centrality = check_centrality(sec, pairs, tol, args.seed).records
    # per pair: sewing_symmetry, pairing_nondegenerate, centrality
    checks.records += chain.from_iterable(zip(sewing[::2], sewing[1::2], centrality))
    checks.extend(check_cardy(sec, ordered, tol,
                              [svs[(a, b) if a.dims <= b.dims else (b, a)] for a, b in ordered]))
    return _report(args, checks, {"n": sec.n, "labels": [list(l.dims) for l in labels]})


def _build_cover(args, tol, fam, nerve, checks):
    from .family import from_potential, idempotent_frames, transition_permutations
    try:
        family = from_potential(fam, nerve, tol)
        checks.add("unit_direction", True, None)
        checks.add("wdvv_associativity", True, None)
    except NonUnit as exc:
        checks.add("unit_direction", False, None, detail=str(exc))
        return None, None
    except WDVVViolation as exc:
        checks.add("unit_direction", True, None)
        for (cid, idx, res, scale) in exc.points:
            checks.check("wdvv_associativity", res, tol, scale, location=f"{cid}[{idx}]")
        return None, None
    try:
        frames = idempotent_frames(family, tol, args.seed)
        checks.add("semisimple_at_samples", True, None)
    except NotSemisimpleAtPoint as exc:
        checks.add("semisimple_at_samples", False, None,
                   location=str(exc.point), detail=str(exc))
        return None, None
    except DegenerateWeight as exc:  # idempotents found, but the trace vanishes on one
        checks.check("idempotent_weight", float(exc.weight), tol,
                     location="%s[%s]" % exc.point, detail="lightest |theta(e_i)|")
        return None, None
    cover = transition_permutations(frames, nerve)
    return family, cover


def _monodromy_extras(cover, loops) -> list:
    from .family import monodromy, perm_cycles
    perms = [monodromy(cover, loop) for loop in loops]
    return [{"loop": loop, "permutation": list(perm), "cycles": perm_cycles(perm)}
            for loop, perm in zip(loops, perms)]


def _bdr_checks(cocycle) -> CheckReport:
    from .bdr import check_det, check_quadruple, check_triple
    checks = check_det(cocycle)
    checks.extend(check_triple(cocycle))
    checks.extend(check_quadruple(cocycle))
    return checks


def cmd_family(args, tol: Tolerance):
    from .family import check_cocycle
    obj = jsonio.read_json(args.input)
    fam, nerve, loops = jsonio.parse_family(obj)
    checks = CheckReport()
    family, cover = _build_cover(args, tol, fam, nerve, checks)
    extras = {"charts": len(nerve.charts)}
    if cover is None:
        return _report(args, checks, extras)
    checks.extend(check_cocycle(cover))
    extras["sheets"] = cover.n
    # theta(e_i) along each sheet track must sum to theta(1) at every sample
    gap = cover.frames.weights.sum(axis=1) - (family.trace * family.unit).sum(axis=1)[
        nerve.point_ids]
    checks.check("sheet_measure_sums_to_unit_trace",
                 float(np.max(np.hypot(gap.real, gap.imag))), tol)
    extras["monodromy"] = _monodromy_extras(cover, loops)
    return _report(args, checks, extras)


def cmd_bdr(args, tol: Tolerance):
    obj = jsonio.read_json(args.input)
    cocycle = jsonio.parse_bdr(obj)
    return _report(args, _bdr_checks(cocycle), {"n": cocycle.n, "edges": len(cocycle.keys)})


def cmd_twisted(args, tol: Tolerance):
    from .twisted import (IsoWitness, azumaya_extract, dual, end, hom, psi, solve_iso, tensor,
                          twist_key, validate as validate_twisted, verify_iso)
    obj = jsonio.read_json(args.input)
    nerve = jsonio.parse_nerve(jsonio.get_field(obj, "nerve", ""), "/nerve")
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
        extras["result"] = jsonio.twisted_to_json(out)
    elif op == "dual":
        e = jsonio.parse_twisted(obj, nerve)
        out = dual(e)
        checks.extend(validate_twisted(out, tol))
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
                checks.extend(witness.report)
                extras["witness"] = {cid: jsonio.array_to_json(m)
                                     for cid, m in sorted(witness.u.items())}
            except NoWitnessFound as exc:
                checks.add("witness_found", False, None, detail=str(exc))
    elif op == "azumaya":
        a = jsonio.parse_twisted(obj, nerve)
        bundle, report = azumaya_extract(a, tol)
        checks.extend(report)
        checks.extend(validate_twisted(bundle, tol))
        end_bundle = end(bundle)
        try:
            checks.extend(solve_iso(end_bundle, a, tol).report)
            checks.add("end_round_trip", True, None)
        except NoWitnessFound as exc:
            checks.add("end_round_trip", False, None, detail=str(exc))
        extras["result"] = jsonio.twisted_to_json(bundle)
    elif op == "psi":
        e = bundle_at("e")
        reps = {twist_key(r): r for r in jsonio.parse_twisted_list(obj, "reps", nerve)}
        out = psi(e, reps, tol)
        checks.extend(validate_twisted(out, tol))
        worst = np.max(np.abs(out.twists - 1.0), initial=0.0)
        checks.check("psi_output_ordinary", float(worst), tol)
        extras["result"] = jsonio.twisted_to_json(out)
    else:
        raise InputError(f"unknown twisted operation {op!r}")
    return _report(args, checks, extras)


def cmd_pipeline(args, tol: Tolerance):
    from .bdr import assemble
    from .family import check_cocycle
    from .spectral import brane_to_twisted_components, lift_label
    from .twisted import validate as validate_twisted
    obj = jsonio.read_json(args.input)
    fam, nerve, loops, label_dim = jsonio.parse_pipeline(obj)
    checks = CheckReport()
    extras = {}
    family, cover = _build_cover(args, tol, fam, nerve, checks)
    if cover is None:
        return _report(args, checks, extras)
    checks.extend(check_cocycle(cover))
    extras["sheets"] = cover.n
    extras["monodromy"] = _monodromy_extras(cover, loops)

    # the cocycle comes from the cover alone: an (E, n, 0) stack of line classes
    lines = np.zeros((len(cover.transitions), cover.n, 0), dtype=np.int64)
    checks.extend(_bdr_checks(assemble(cover, lines)))

    dims = {cid: (label_dim,) * cover.n for cid in nerve.chart_order}
    lifted = lift_label(dims, cover)
    checks.add("label_lift_consistent", True, None,
               detail=f"{len(lifted.components)} component(s)")
    extras["bundles"] = []
    for bundle, report in brane_to_twisted_components(lifted, tol):
        checks.extend(report)
        checks.extend(validate_twisted(bundle, tol))
        extras["bundles"].append(jsonio.twisted_to_json(bundle))
    return _report(args, checks, extras)


# -- entry point ---------------------------------------------------------------

def _emit(report, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        lines = [f"branekit {__version__}: {report['command']} on {report['input']}",
                 f"config: {report['config']}"]
        for rec in report["checks"]:
            loc = f" @ {rec['location']}" if "location" in rec else ""
            res = f" residual={rec['residual']:.3e}" if "residual" in rec else ""
            res += f" bound={rec['bound']:.3e}" if "bound" in rec else ""
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


def _flag(convert, valid, wanted):
    """An argparse type: `convert` the text, then refuse a value not `valid`."""
    def parse(text):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    positive = _flag(float, lambda v: 0 < v < float("inf"), "a finite positive number")
    common.add_argument("input", help="path to the JSON input file")
    common.add_argument("--tol-structural", type=positive, default=DEFAULT_TOL.eps_structural,
                        help="residual tolerance for algebraic identities")
    common.add_argument("--tol-rank", type=positive, default=DEFAULT_TOL.eps_rank,
                        help="relative singular-value cutoff for rank decisions")
    common.add_argument("--seed", type=_flag(int, lambda v: v >= 0, "a non-negative integer"),
                        default=0,
                        help="seed for the randomized checks (idempotent search, brane trials)")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("text", "json"), default="json")

    parser = argparse.ArgumentParser(
        prog="branekit",
        description="verification toolkit for Frobenius algebras, brane "
                    "categories, spectral covers, and twisted bundles")
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(subcommand=None)
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


_PARSER = build_parser()  # built once per process; each parse gets a fresh namespace


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        tol = Tolerance(eps_structural=args.tol_structural, eps_rank=args.tol_rank)
        report = _RUNNERS[args.command](args, tol)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BranekitError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    # wall time stays out of the report so JSON output is byte-reproducible
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    try:
        _emit(report, args)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
