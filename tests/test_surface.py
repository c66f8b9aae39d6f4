"""Every public function and method of branekit is reached by a command, or
states why it stays.

One subprocess profiles the import of `branekit.cli` (the argparse tree is
built at import time) and every fixture command of `test_fuzz.COMMANDS`, in
`--format json` and `--format text`.  A public name (a function at module
level, or a method of a public class, whose name has no leading underscore)
must be called on that run or be listed in UNREACHED with its reason.  A
listed name must still exist and still be unreached, so the list cannot go
stale.

The same run must leave `numpy.ma` unimported: `np.unique`, `np.intersect1d`
and their kin import it on first call, which shows in the cold start and the
peak memory of every command.
"""

import ast
import functools
import json
import os
import subprocess
import sys

from test_fuzz import COMMANDS

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "branekit")

PERFBENCH = "perfbench span or counter"
CONSTRUCTOR = "test constructor"
ORACLE = "test oracle"
GEN_FIXTURES = "tools/gen_fixtures"
OTHER_INPUT = "valid input no fixture has"
ITEM_1 = "ROADMAP item 1"

UNREACHED = {
    # perfbench/tracer.py wraps these names, and perfbench does not change with src
    "branes.basis_sum": PERFBENCH,
    "branes.dual_basis": PERFBENCH,
    "branes.matrix_unit_basis": PERFBENCH,
    "branes.pairing_gram": PERFBENCH,
    "frobenius.FrobeniusAlgebra.multiply": PERFBENCH,
    "frobenius.FrobeniusAlgebra.mult_operator": PERFBENCH,
    "spectral.brane_to_twisted": PERFBENCH,
    # checks of brane_to_twisted, the connected-cover case of the pipeline's lift
    "spectral.LiftedLabel.connected": PERFBENCH,
    "spectral.LiftedLabel.constant_rank": PERFBENCH,
    # inputs that tests build
    "branes.ClosedSector.flip_root": CONSTRUCTOR,
    "branes.ClosedSector.from_algebra": CONSTRUCTOR,
    "branes.basis_state": CONSTRUCTOR,
    "branes.unit_state": CONSTRUCTOR,
    "branes.zero_label": CONSTRUCTOR,
    "branes.zero_hom": CONSTRUCTOR,
    "branes.identity_hom": CONSTRUCTOR,
    "branes.random_hom": CONSTRUCTOR,
    "branes.direct_sum_label": CONSTRUCTOR,
    "branes.tensor_label": CONSTRUCTOR,
    "branes.generator_labels": CONSTRUCTOR,
    "branes.embed_endomorphism": CONSTRUCTOR,
    "branes.endomorphism_algebra": CONSTRUCTOR,
    "branes.split_idempotent": CONSTRUCTOR,
    "family.algebra_from_three_point": CONSTRUCTOR,
    "family.family_from_function": CONSTRUCTOR,
    "frobenius.conjugate": CONSTRUCTOR,
    "frobenius.diagonal_algebra": CONSTRUCTOR,
    "frobenius.direct_sum": CONSTRUCTOR,
    "frobenius.nilpotent_example": CONSTRUCTOR,
    "frobenius.quadratic_extension": CONSTRUCTOR,
    "twisted.random_twisted_bundle": CONSTRUCTOR,
    "twisted.scalar_line": CONSTRUCTOR,
    "twisted.trivial_line": CONSTRUCTOR,
    # per-morphism references that the stacked kernels are compared against
    "branes.HomSpace.add": ORACLE,
    "branes.HomSpace.is_endo": ORACLE,
    "branes.HomSpace.norm": ORACLE,
    "branes.HomSpace.scale": ORACLE,
    "branes.HomSpace.sub": ORACLE,
    "branes.compose": ORACLE,
    "branes.hom_dimension": ORACLE,
    "branes.theta_a": ORACLE,
    "branes.iota_a": ORACLE,
    "branes.iota_upper_a": ORACLE,
    "branes.pi_basis": ORACLE,
    "branes.pi_formula": ORACLE,
    "branes.split_endomorphism": ORACLE,
    "frobenius.FrobeniusAlgebra.three_point": ORACLE,
    "report.CheckReport.failures": ORACLE,
    "twisted.line_between": ORACLE,
    "jsonio.bdr_to_json": GEN_FIXTURES,
    "jsonio.nerve_to_json": GEN_FIXTURES,
    # the location of a failing sample: no fixture's family fails
    "family.Nerve.sample_key": OTHER_INPUT,
    # the message of an isomorphism search that misses
    "report.CheckReport.max_residual": OTHER_INPUT,
    # label classification, which no command runs yet
    "spectral.phi_classify": ITEM_1,
    "spectral.ClassificationReport.to_dict": ITEM_1,
}

# Runs in the subprocess: argv[1] is the package directory, argv[2] a JSON
# list of CLI argument lists.  Prints the (file, first line) of every code
# object under the package that was called, and whether numpy.ma was imported.
TRACE = r"""
import contextlib, io, json, sys

package, runs = sys.argv[1], json.loads(sys.argv[2])
calls = set()

def profile(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import branekit.cli
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        branekit.cli.main(argv)
sys.setprofile(None)
print(json.dumps({"calls": sorted(c for c in calls if c[0].startswith(package)),
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


def public_definitions() -> dict:
    """(file, first line) -> qualified name ('module.Class.method') of every
    public function and method under src/branekit.  The first line is the
    first decorator's, as in a code object's co_firstlineno."""
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(m, f"{node.name}.") for m in node.body]
            for m, prefix in members:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    first = min([m.lineno] + [d.lineno for d in m.decorator_list])
                    out[(path, first)] = f"{fname[:-3]}.{prefix}{m.name}"
    return out


@functools.cache
def traced_run() -> dict:
    """The output of TRACE over every fixture command, in both formats."""
    runs = [argv + [os.path.join(ROOT, "fixtures", fname), "--format", fmt]
            for argv, fname in COMMANDS for fmt in ("json", "text")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", TRACE, SRC + os.sep, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def reached_names(definitions) -> set:
    return {definitions[tuple(c)] for c in traced_run()["calls"] if tuple(c) in definitions}


def test_every_public_name_is_reached_or_listed():
    definitions = public_definitions()
    public = set(definitions.values())
    reached = reached_names(definitions)
    assert reached, "the trace saw no branekit call"
    unlisted = sorted(public - reached - set(UNREACHED))
    assert not unlisted, f"public, unreached by any fixture command, and not listed: {unlisted}"
    gone = sorted(set(UNREACHED) - public)
    assert not gone, f"listed but no longer defined: {gone}"
    now_reached = sorted(set(UNREACHED) & reached)
    assert not now_reached, f"listed as unreached but reached: {now_reached}"
    reasons = {PERFBENCH, CONSTRUCTOR, ORACLE, GEN_FIXTURES, OTHER_INPUT, ITEM_1}
    assert set(UNREACHED.values()) <= reasons


def test_fixture_commands_leave_numpy_ma_unimported():
    assert traced_run()["numpy_ma"] is False
