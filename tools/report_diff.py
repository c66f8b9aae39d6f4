#!/usr/bin/env python3
"""Compare the CLI reports of this working tree against another revision.

    python3 tools/report_diff.py <rev>

Copies `<rev>`'s files into a temporary directory (`checkout.py`) and runs,
in both trees:
every fixture command of `tests/test_fuzz.py` (`COMMANDS`, the one list)
in `--format json` and `--format text`, and every job of the four perfbench
workloads at seeds 1 and 2.  Both trees read the same inputs: this tree's
fixture files, by absolute path (so a fixture that `<rev>` lacks is still
compared), and workload inputs generated once by this tree's
`perfbench/workloads.py`.  Each run is one `python -m branekit.cli` process
with `OPENBLAS_NUM_THREADS=1`.

For every run whose exit code, stdout or stderr differs (the `wall_time_s=`
line of stderr left out), prints the run, the differing lines, and a summary.
A JSON report is one line, so when both stdouts parse as JSON their lines
are not diffed and the summary speaks for them.  When both hold the same
JSON value and only their bytes differ, it says so in one line; the run
still counts as differing.  Otherwise, for a JSON report it says whether
only numbers changed (every key, string, boolean and null identical, save
the numbers written into a record's free-text `detail`), with the largest
relative change among `residual`/`bound` values and the largest absolute
change among the other numbers (the extracted matrices of `extras`, say, or
a twist in `"detail": "lambda=..."`).  For a text report it says whether
only numbers changed (`residual`/`bound` values, and the numbers in a record
line's trailing `(...)` detail, such as `(lambda=...)`), with the largest
relative change among the former and, when detail numbers changed, the
largest absolute change among them.  Exits 1 on any difference, 0 when
every report is identical.
"""

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checkout import ROOT, checkout  # noqa: E402

sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from test_fuzz import COMMANDS  # noqa: E402

SEEDS = (1, 2)


def runs(inputs_dir):
    """(label, argv) of every compared run; fixture commands read ROOT's
    `fixtures/`, and workload inputs go to `inputs_dir`."""
    out = []
    for command, fname in COMMANDS:
        for fmt in ("json", "text"):
            out.append((" ".join(command + [f"fixtures/{fname}", "--format", fmt]),
                        command + [os.path.join(ROOT, "fixtures", fname), "--format", fmt]))
    for seed in SEEDS:
        for name, build in workloads.WORKLOADS.items():
            workload = build(seed)
            paths = workloads.write_inputs(workload, os.path.join(inputs_dir, f"seed{seed}", name))
            out += [(f"{name} seed {seed} {job.name}", list(job.command) + [paths[job.name]])
                    for job in workload.jobs]
    return out


def run(tree, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "branekit.cli"] + argv, cwd=tree, env=env,
                          capture_output=True, text=True)
    stderr = [line for line in proc.stderr.splitlines() if not line.startswith("wall_time_s=")]
    return proc.returncode, proc.stdout.splitlines(), stderr


# a residual or bound value in a JSON (`"residual": 1e-16,`) or text
# (`residual=1.000e-16`) report line
NUMBER_FIELD = re.compile(r'\b(residual|bound)("?: |=)([^\s,]+)')
# a decimal number written into free text, e.g. both parts of "lambda=-1+1.75e-16j"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")
# the free-text detail that ends a text report's record line: " (lambda=...)"
DETAIL = re.compile(r" \((.*)\)$")


def numbers_only_change(old, new):
    """(largest relative change of a residual/bound value, largest absolute
    change of a number in a detail) when the text report lines `old` and
    `new` differ in nothing else, or None."""
    if len(old) != len(new):
        return None
    worst = [0.0, 0.0]

    def masked(line):
        line = NUMBER_FIELD.sub(r"\1\2#", line)
        return DETAIL.sub(lambda m: f" ({NUMBER.sub('#', m[1])})", line)

    def details(line):
        found = DETAIL.search(line)
        return NUMBER.findall(found[1]) if found else []

    for a, b in zip(old, new):
        if masked(a) != masked(b):
            return None
        for (_, _, x), (_, _, y) in zip(NUMBER_FIELD.findall(a), NUMBER_FIELD.findall(b)):
            x, y = float(x), float(y)
            if x != y:
                worst[0] = max(worst[0], abs(x - y) / max(abs(x), abs(y)))
        for x, y in zip(details(a), details(b)):
            worst[1] = max(worst[1], abs(float(x) - float(y)))
    return tuple(worst)


def json_numbers_only_change(old, new):
    """(largest relative change among residual/bound values, largest absolute
    change among the other numbers) when the parsed JSON reports `old` and
    `new` differ in numbers only, or None."""
    worst = [0.0, 0.0]

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def same_but_numbers(a, b, key):
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(same_but_numbers(a[k], b[k], k) for k in a)
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(same_but_numbers(x, y, key) for x, y in zip(a, b))
        if key == "detail" and isinstance(a, str) and isinstance(b, str):
            if NUMBER.sub("#", a) != NUMBER.sub("#", b):
                return False
            for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
                worst[1] = max(worst[1], abs(float(x) - float(y)))
            return True
        if not (number(a) and number(b)):
            return type(a) is type(b) and a == b
        if a != b and key in ("residual", "bound"):
            worst[0] = max(worst[0], abs(a - b) / max(abs(a), abs(b)))
        elif a != b:
            worst[1] = max(worst[1], abs(a - b))
        return True

    return tuple(worst) if same_but_numbers(old, new, None) else None


def parsed(lines):
    """The JSON value of a report's stdout lines, or None for a text report."""
    try:
        return json.loads("\n".join(lines))
    except json.JSONDecodeError:
        return None


def differences(label, old, new):
    """Lines describing how `new` differs from `old`, or [] when identical."""
    if old == new:
        return []
    lines = [f"== {label}"]
    if old[0] != new[0]:
        lines.append(f"exit code {old[0]} -> {new[0]}")
    reports = parsed(old[1]), parsed(new[1])
    streams = [("stderr", old[2], new[2])]
    if None in reports:
        streams.insert(0, ("stdout", old[1], new[1]))
    for stream, a, b in streams:
        lines += [f"{stream} {line}" for line in difflib.unified_diff(a, b, lineterm="", n=0)
                  if not line.startswith(("---", "+++"))]
    same_exit_and_stderr = old[0] == new[0] and old[2] == new[2]
    if None not in reports:
        # compared as text, so that NaN equals NaN and -0.0 differs from 0.0
        old_text, new_text = (json.dumps(r, sort_keys=True) for r in reports)
        if same_exit_and_stderr and old_text == new_text:
            lines.append("same JSON value: only formatting differs")
            return lines
        change = json_numbers_only_change(*reports) if same_exit_and_stderr else None
        lines.append("not only numbers differ" if change is None else
                     "verdicts identical: only numbers differ, largest relative residual/bound "
                     f"change {change[0]:.3e}, largest absolute change of other numbers "
                     f"{change[1]:.3e}")
        return lines
    change = numbers_only_change(old[1], new[1]) if same_exit_and_stderr else None
    if change is None:
        lines.append("not only residual/bound numbers differ")
    elif not change[1]:
        lines.append("verdicts identical: only residual/bound numbers differ, largest relative "
                     f"change {change[0]:.3e}")
    else:
        lines.append("verdicts identical: only residual/bound and detail numbers differ, "
                     f"largest relative residual/bound change {change[0]:.3e}, largest "
                     f"absolute change of detail numbers {change[1]:.3e}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with checkout(argv[0]) as base, tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        differing = 0
        all_runs = runs(tmp)
        for label, args in all_runs:
            lines = differences(label, run(base, args), run(ROOT, args))
            differing += bool(lines)
            for line in lines:
                print(line)
    print(f"{differing} of {len(all_runs)} runs differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
