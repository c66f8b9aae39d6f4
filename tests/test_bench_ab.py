"""`tools/bench_ab.summarize` on synthetic runs: the gain and regression rules."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

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
