#!/usr/bin/env python3
"""branekit benchmark: seeded CLI workload ladders, timed in process.

Run from the repository root:

    python3 perfbench/run.py --workload algebra_ladder --seed 1 --seconds 15 --trace 0

Each job is one in-process call to `branekit.cli.main(argv)` with default
flags and standard output captured.  A run sets up (imports the CLI, writes
the seeded inputs, makes one untimed warm-up pass), then repeats the rung
list for `--seconds`, checks every verdict against the truth known from how
the input was built (`truth.py`), and times cold `python -m branekit.cli`
processes on the small job.  With `--trace 1` it instead alternates
untraced and traced passes and reports per-layer spans and counters
(`tracer.py`).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("algebra_ladder", "branes_suite", "cover_pipeline", "twisted_bundles")
GEN_REPEATS = 3   # input generation is repeated and its median taken
SIDE_SHARE = 0.2   # share of the measured time for each kind of side sample
COLD_MIN = 5      # fresh `python -m branekit.cli` processes per run, at least

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "large_job_s": "s",
                    "small_job_s": "s", "cli_cold_s": "s", "pass_ratio": "ratio",
                    "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.jobs_per_s": "1/s", "trace.overhead_jobs_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- one job ----------------------------------------------------------------------

def call(main, argv):
    """(seconds, exit code or None on an uncaught exception, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job, never a crashed run
            code = None
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


class Ledger:
    """Verdicts of every checked job: attempted, failed, wrong."""

    def __init__(self, truth):
        self.truth = truth
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def record(self, job, code, out, reference=None):
        """Count one job; a report byte-identical to an already checked
        `reference` (code, out, verdict) reuses that verdict."""
        if reference is not None and reference[:2] == (code, out):
            verdict = reference[2]
        else:
            verdict, reason = self.truth.check(job, code, out)
            if verdict != self.truth.OK and len(self.notes) < 20:
                self.notes.append(f"{job.name}: {verdict}: {reason}")
        self.attempted += 1
        self.failed += verdict != self.truth.OK
        self.wrong += verdict == self.truth.WRONG
        return verdict


# -- environment ------------------------------------------------------------------

def git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_thread_env": threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "git_sha": git_sha(ROOT),
            "loadavg_at_start": os.getloadavg()}


# -- phases -----------------------------------------------------------------------

def generate(workloads, name, seed, directory):
    """Median over GEN_REPEATS of building and writing the inputs."""
    times = []
    for _ in range(GEN_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed)
        paths = workloads.write_inputs(workload, directory)
        times.append(time.perf_counter() - start)
    return workload, paths, statistics.median(times)


def run_pass(main, workload, argvs, ledger, reference):
    """One pass over the rung list; returns the summed job seconds."""
    total = 0.0
    for job in workload.jobs:
        seconds, code, out = call(main, argvs[job.name])
        ledger.record(job, code, out, reference[job.name])
        total += seconds
    return total


def cold_cli(argv, job, ledger):
    """Wall time of one fresh CLI process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=120)
    seconds = time.perf_counter() - start
    ledger.record(job, proc.returncode, proc.stdout)
    return seconds


def measure(args, cli, workload, paths, argvs, ledger, side, reference, setup_s):
    """Repeat the rung list for `args.seconds`.  After each job, take side
    samples while their share of the time so far is below SIDE_SHARE: a block
    of small-job calls, and one cold CLI process.  So they spread over the
    whole run instead of bunching at one moment; short timings on a shared
    machine drift by 20% within seconds."""
    small_job = workload.job(workload.small)
    cold_argv = [sys.executable, "-m", "branekit.cli", *small_job.command,
                 paths[small_job.name]]
    samples, small, cold = {}, [], []
    jobs_s = small_s = cold_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for job in workload.jobs:
            seconds, code, out = call(cli.main, argvs[job.name])
            ledger.record(job, code, out, reference[job.name])
            samples.setdefault(job.name, []).append(seconds)
            jobs_s += seconds
            budget = SIDE_SHARE * (time.perf_counter() - start)
            if small_s < budget:
                for _ in range(workload.small_reps):
                    seconds, code, out = call(cli.main, argvs[small_job.name])
                    side.record(small_job, code, out, reference[small_job.name])
                    small.append(seconds)
                    small_s += seconds
            if cold_s < budget:
                cold.append(cold_cli(cold_argv, small_job, side))
                cold_s += cold[-1]
    while len(cold) < COLD_MIN:
        cold.append(cold_cli(cold_argv, small_job, side))
    values = {
        "setup_s": setup_s,
        "jobs_per_s": ledger.attempted / jobs_s,
        "large_job_s": statistics.median(samples[workload.large]),
        "small_job_s": statistics.median(samples[workload.small] + small),
        "cli_cold_s": statistics.median(cold),
        "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"jobs_timed": ledger.attempted,
              "large_samples": len(samples[workload.large]),
              "small_samples": len(samples[workload.small]) + len(small),
              "cold_samples": len(cold)}
    return values, counts


def measure_traced(args, cli, tracer_mod, workload, argvs, ledger, reference):
    """Alternate untraced and traced passes for `args.seconds`.  Per-layer
    metrics are averages per traced pass.  Checks that tracing leaves every
    report byte-identical and that each job's self times sum to its
    `cli.main` time, and prints each job's layer breakdown once."""
    tracer = tracer_mod.Tracer()
    traced_main = tracer.root(cli.main)
    plain_s = traced_s = 0.0
    plain = traced = 0
    identical = True
    sums_ok = True
    breakdown = []
    start = time.perf_counter()
    while True:
        plain_s += run_pass(cli.main, workload, argvs, ledger, reference)
        plain += 1
        with tracer.install():
            for job in workload.jobs:
                before = tracer.layer_self_s(), dict(tracer.inclusive_s)
                seconds, code, out = call(traced_main, argvs[job.name])
                traced_s += seconds
                ledger.record(job, code, out, reference[job.name])
                identical &= (code, out) == reference[job.name][:2]
                own = {k: v - before[0][k] for k, v in tracer.layer_self_s().items()}
                inside = {k: v - before[1][k] for k, v in tracer.inclusive_s.items()}
                root = tracer.last_root_s
                sums_ok &= abs(sum(own.values()) - root) <= 1e-9 + 1e-6 * root
                if traced == 0:
                    breakdown.append((job.name, root, own, inside))
        traced += 1
        if time.perf_counter() - start >= args.seconds:
            break
    values = tracer.metrics(traced)
    jobs = len(workload.jobs)
    values["trace.jobs_per_s"] = jobs * traced / traced_s
    values["trace.overhead_jobs_per_s"] = jobs * plain / plain_s - values["trace.jobs_per_s"]
    if not identical:
        ledger.notes.append("a traced report differs from the untraced one")
    if not sums_ok:
        ledger.notes.append("per-layer self times do not sum to cli.main")
    for name, root, own, inside in breakdown:
        del inside["cli"]  # the root span holds everything
        top_self, top_inside = max(own, key=own.get), max(inside, key=inside.get)
        print(f"trace job={name} cli.main={root:.4f}s "
              f"dominant self={top_self} ({own[top_self] / root:.0%}) "
              f"inclusive={top_inside} ({inside[top_inside] / root:.0%}); self_s: "
              + " ".join(f"{k}={v:.4f}" for k, v in own.items() if v > 0))
    return values, identical and sums_ok, {"traced_passes": traced, "untraced_passes": plain}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "branekit", "cli.py")):
        print(f"error: no branekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import branekit.cli as cli
    import_s = time.perf_counter() - start

    sys.path.insert(0, HERE)
    import tracer as tracer_mod
    import truth
    import workloads

    print(json.dumps({"environment": environment()}, sort_keys=True))
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload, paths, gen_s = generate(workloads, args.workload, args.seed, workdir)
        argvs = {job.name: [*job.command, paths[job.name]] for job in workload.jobs}
        warm = Ledger(truth)
        reference = {}
        warm_start = time.perf_counter()
        for job in workload.jobs:
            _, code, out = call(cli.main, argvs[job.name])
            reference[job.name] = (code, out, warm.record(job, code, out))
        warm_s = time.perf_counter() - warm_start
        setup_s = import_s + gen_s + warm_s

        ledger, side = Ledger(truth), Ledger(truth)
        if args.trace:
            values, consistent, counts = measure_traced(
                args, cli, tracer_mod, workload, argvs, ledger, reference)
            units = {name: unit for name, unit, _ in tracer_mod.metric_names()}
            units.update(TRACE_UNITS)
        else:
            values, counts = measure(args, cli, workload, paths, argvs, ledger, side,
                                     reference, setup_s)
            units, consistent = END_TO_END_UNITS, True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    correct = consistent and warm.wrong == ledger.wrong == side.wrong == 0
    for note in warm.notes + ledger.notes + side.notes:
        print(f"note: {note}")
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for name in units:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
