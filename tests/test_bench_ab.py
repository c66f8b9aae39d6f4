"""`tools/bench_ab.summarize` on synthetic runs: the gain and regression rules;
and where `bench_ab` runs the two sides from."""

import contextlib
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import bench_ab  # noqa: E402
import checkout  # noqa: E402
from bench_ab import summarize  # noqa: E402

METRICS = {"large_job_s": {"better": "lower", "bound": 0.24},
           "jobs_per_s": {"better": "higher", "bound": 0.24}}
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 1.0225-1.0675


def verdicts(name, parent, child):
    runs = [{"parent": {name: p}, "child": {name: c}} for p, c in zip(parent, child)]
    out = summarize(runs, METRICS)[name]
    return out["gain_stands"], out["regression"], out["child_better_pairs"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_gap_over_the_parent_iqr():
    faster = [p - 0.3 for p in PARENT]
    assert verdicts("large_job_s", PARENT, faster) == (True, False, 10)
    # 9 of 10 pairs still stands; 8 of 10 does not, however large the gap
    assert verdicts("large_job_s", PARENT, faster[:9] + [2.0])[::2] == (True, 9)
    assert verdicts("large_job_s", PARENT, faster[:8] + [2.0, 2.0])[::2] == (False, 8)
    # every pair won, but the medians differ by less than the parent's IQR width
    assert verdicts("large_job_s", PARENT, [p - 0.01 for p in PARENT]) == (False, False, 10)
    # ties count for neither side
    assert verdicts("large_job_s", PARENT, PARENT) == (False, False, 0)


def test_higher_is_better_metrics_gain_upwards():
    assert verdicts("jobs_per_s", PARENT, [p + 0.3 for p in PARENT]) == (True, False, 10)
    assert verdicts("jobs_per_s", PARENT, [p - 0.3 for p in PARENT]) == (False, True, 0)


@pytest.mark.parametrize("name, factor, regression", [
    ("large_job_s", 1.20, False), ("large_job_s", 1.30, True),
    ("jobs_per_s", 0.80, False), ("jobs_per_s", 0.70, True)])
def test_a_regression_is_a_median_worse_by_more_than_the_bound(name, factor, regression):
    child = [p * factor for p in PARENT]
    assert verdicts(name, PARENT, child)[1] is regression


def scratch_repo(path):
    """A git repository with one commit (kept.txt, sub/gone.txt), then kept.txt
    edited, sub/gone.txt deleted and untracked.txt added in its working tree."""
    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *argv],
                       cwd=path, check=True, capture_output=True)
    os.makedirs(path / "sub")
    (path / "kept.txt").write_text("committed\n")
    (path / "sub" / "gone.txt").write_text("x\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    (path / "kept.txt").write_text("edited\n")
    (path / "sub" / "gone.txt").unlink()
    (path / "untracked.txt").write_text("u\n")
    return str(path)


def read(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read()


def test_the_pair_is_the_revision_and_the_tracked_working_tree_at_equal_path_lengths(tmp_path):
    root = scratch_repo(tmp_path / "repo")
    head, child_sha = checkout.commit_of("HEAD", root), checkout.working_tree_commit(root)
    assert child_sha != head and len(child_sha) == len(head) == 40
    with checkout.checkout_pair(head, child_sha, root=root) as (parent, child):
        assert len(parent) == len(child) and parent != child
        assert os.path.dirname(parent) == os.path.dirname(child)
        assert read(parent, "kept.txt") == "committed\n" and read(child, "kept.txt") == "edited\n"
        assert read(parent, "sub", "gone.txt") == "x\n"
        assert not os.path.exists(os.path.join(child, "sub", "gone.txt"))
        assert not os.path.exists(os.path.join(child, "untracked.txt"))
        assert not os.path.exists(os.path.join(child, ".git"))
    assert not os.path.exists(parent) and not os.path.exists(child)
    # the snapshot left the working tree and the refs as they were
    assert read(root, "kept.txt") == "edited\n" and read(root, "untracked.txt") == "u\n"
    assert checkout.git(root, "stash", "list") == ""


def test_a_clean_working_tree_is_its_head(tmp_path):
    root = scratch_repo(tmp_path / "repo")
    checkout.git(root, "checkout", "--", ".")
    assert checkout.working_tree_commit(root) == checkout.commit_of("HEAD", root)


def test_bench_ab_runs_both_sides_from_the_pair_and_names_their_commits(tmp_path, monkeypatch):
    root = scratch_repo(tmp_path / "repo")
    pairs, trees = [], []

    def pair(parent_rev, child_rev):
        with checkout.checkout_pair(parent_rev, child_rev, root=root) as both:
            pairs.append((parent_rev, child_rev, both))
            yield both

    def run_once(tree, workload, seed, seconds):
        trees.append(tree)
        return {}, {"large_job_s": 1.0}, True

    monkeypatch.setattr(bench_ab, "checkout_pair", contextlib.contextmanager(pair))
    monkeypatch.setattr(bench_ab, "commit_of", lambda rev: checkout.commit_of(rev, root))
    monkeypatch.setattr(bench_ab, "working_tree_commit", lambda: checkout.working_tree_commit(root))
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_ab.main(["HEAD", "--out", str(out), "--workloads", "branes_suite",
                          "--pairs", "6"]) == 0
    assert len(pairs) == 1 and len(trees) == 12
    parent_rev, child_rev, (parent, child) = pairs[0]
    assert trees == [parent, child, child, parent] * 3
    report = json.loads(out.read_text())
    head = checkout.commit_of("HEAD", root)
    assert (report["parent"], report["parent_sha"], report["child_head"]) == ("HEAD", head, head)
    assert (parent_rev, child_rev) == (head, report["child_sha"]) and child_rev != head
    assert checkout.git(root, "show", child_rev + ":kept.txt") == "edited"
