#!/usr/bin/env python3
"""Paired A/B benchmark of this working tree against another revision.

    python3 tools/bench_ab.py <rev> --out BENCH_<n>.json \\
        [--workloads cover_pipeline ...] [--seeds 1 5] [--pairs 10] [--seconds 8]

Copies `<rev>`'s files and this working tree's tracked files (uncommitted
edits included; add a new file to git first) into one temporary directory,
at paths of equal length (`checkout.checkout_pair`), and runs each copy's
own `perfbench/run.py` on each workload and seed, interleaving
parent and child for `--pairs` pairs (at least 6), so that drift of the
machine between batches falls on both sides alike; which side runs first
alternates from pair to pair.  The children run with
OPENBLAS_NUM_THREADS=1 in their environment; this process's environment is
left as it is.

For every end-to-end metric the output JSON holds, per workload and seed:
the parent's and the child's median and IQR, the child/parent ratio of each
pair with its median, in how many pairs the child was better (ties count for
neither side), and two verdicts:
- `gain_stands`: the child won at least 9 of every 10 pairs, and its median
  is better than the parent's by more than the width of the parent's IQR;
- `regression`: the child's median is worse than the parent's by more than
  the metric's `bound` in BENCHMARK.json, relative to the parent's median.
The `environment` block is the one `run.py` printed in the child's first run;
its `git_sha` reads "unknown", since the copies hold no `.git`.  The report
names both sides itself: `parent_sha` is the commit `<rev>` names, and
`child_sha` a commit of the working tree's tracked files (`git stash create`,
reachable from no ref) or HEAD's sha when they match HEAD; `child_head` is
HEAD's sha.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checkout import ROOT, checkout_pair, commit_of, working_tree_commit  # noqa: E402

WORKLOADS = ("algebra_ladder", "branes_suite", "cover_pipeline", "twisted_bundles")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision")
    parser.add_argument("--out", required=True, help="where to write the JSON summary")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    if args.pairs < 6:
        parser.error("--pairs must be at least 6")
    return args


def run_once(tree, workload, seed, seconds):
    """(environment block, {metric: value}, correct) of one `run.py` run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, env=dict(os.environ, **CHILD_ENV),
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0])["environment"]
    result = json.loads(lines[-1])
    return env, {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, metrics):
    """Per metric of `runs`: medians, IQRs, paired ratios, wins and the two
    verdicts; `metrics` maps each name to its `better` and `bound`."""
    out = {}
    for name in runs[0]["parent"]:
        parent = [r["parent"][name] for r in runs]
        child = [r["child"][name] for r in runs]
        ratios = [c / p if p else (1.0 if c == p else float("inf"))
                  for p, c in zip(parent, child)]
        sign = 1.0 if metrics[name]["better"] == "lower" else -1.0  # > 0: child better
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, child))
        p_q, c_q = quartiles(parent), quartiles(child)
        gain = sign * (p_q[1] - c_q[1])
        out[name] = {"parent_median": p_q[1], "parent_iqr": [p_q[0], p_q[2]],
                     "child_median": c_q[1], "child_iqr": [c_q[0], c_q[2]],
                     "ratio_child_over_parent": ratios, "ratio_median": statistics.median(ratios),
                     "better": metrics[name]["better"], "bound": metrics[name]["bound"],
                     "child_better_pairs": wins, "pairs": len(runs),
                     "gain_stands": 10 * wins >= 9 * len(runs) and gain > p_q[2] - p_q[0],
                     "regression": -gain > metrics[name]["bound"] * abs(p_q[1])}
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    parent_sha, child_sha = commit_of(args.rev), working_tree_commit()
    report = {"parent": args.rev, "parent_sha": parent_sha, "child": "working tree (tracked files)",
              "child_sha": child_sha, "child_head": commit_of("HEAD"), "pairs": args.pairs,
              "seconds": args.seconds, "child_env": CHILD_ENV, "environment": None,
              "workloads": {}}
    with checkout_pair(parent_sha, child_sha) as (parent, child):
        for workload in args.workloads:
            for seed in args.seeds:
                runs = []
                for pair in range(args.pairs):
                    order = ("parent", "child") if pair % 2 == 0 else ("child", "parent")
                    sides = {side: run_once(parent if side == "parent" else child, workload, seed,
                                            args.seconds) for side in order}
                    report["environment"] = report["environment"] or sides["child"][0]
                    runs.append({"first": order[0], "parent": sides["parent"][1],
                                 "child": sides["child"][1], "parent_correct": sides["parent"][2],
                                 "child_correct": sides["child"][2]})
                    print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs}: large_job_s "
                          f"{runs[-1]['parent']['large_job_s']:.4g} -> "
                          f"{runs[-1]['child']['large_job_s']:.4g}", file=sys.stderr)
                report["workloads"].setdefault(workload, {})[str(seed)] = {
                    "summary": summarize(runs, metrics), "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
