"""Tests of the benchmark itself: inputs, truth checks, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os

import numpy as np
import pytest

import run
import tracer
import truth
import workloads

from branekit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small_jobs():
    """The cheap rungs of every workload, for tests that call the CLI."""
    picks = {"algebra_ladder": ["n4", "nilpotent16"], "branes_suite": ["d2"],
             "cover_pipeline": ["c8x4d2"],
             "twisted_bundles": ["iso16r2", "azumaya16r2", "hom16r2", "validate16r2",
                                 "iso_holonomy"]}
    for name, jobs in picks.items():
        workload = workloads.WORKLOADS[name](3)
        for job in jobs:
            yield workload.job(job)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """job name -> (job, exit code, stdout) of one untraced call."""
    directory = tmp_path_factory.mktemp("inputs")
    out = {}
    for job in small_jobs():
        path = directory / job.filename
        path.write_text(workloads.dumps(job.payload), encoding="utf-8")
        _, code, text = run.call(cli.main, [*job.command, str(path)])
        out[job.name] = (job, code, text, str(path))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first = [workloads.dumps(j.payload) for j in make(11).jobs]
    again = [workloads.dumps(j.payload) for j in make(11).jobs]
    other = [workloads.dumps(j.payload) for j in make(12).jobs]
    assert first == again
    assert first != other


def test_seed_reports_match_truth(reports):
    verdicts = {name: truth.check(job, code, text)[0]
                for name, (job, code, text, _) in reports.items()}
    expected = dict.fromkeys(verdicts, truth.OK)
    expected["iso_holonomy"] = truth.FAILED  # the seed's solve_iso misses it
    assert verdicts == expected


def tamper(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def fail_all(report):
    report["passed"] = False
    report["checks"][0]["status"] = "fail"


def pass_all(report):
    report["passed"] = True
    for record in report["checks"]:
        record["status"] = "pass"


def shift_first_idempotent(report):
    report["extras"]["idempotents"][0][0][0] += 1e-3


def swap_monodromy(report):
    first, second = report["extras"]["monodromy"]
    first["cycles"], second["cycles"] = second["cycles"], first["cycles"]


def scale_witness(report):
    witness = report["extras"]["witness"]
    key = sorted(witness)[1]
    witness[key] = [[[2 * z[0], 2 * z[1]] for z in row] for row in witness[key]]


def bump_result(report):
    report["extras"]["result"]["g"]["c0,c1"][0][0][0] += 1e-3


@pytest.mark.parametrize("name, code, edit, verdict", [
    ("n4", 1, fail_all, truth.FAILED),
    ("n4", 0, shift_first_idempotent, truth.WRONG),
    ("nilpotent16", 0, pass_all, truth.WRONG),
    ("d2", 1, fail_all, truth.FAILED),
    ("c8x4d2", 0, swap_monodromy, truth.WRONG),
    ("iso16r2", 0, scale_witness, truth.WRONG),
    ("azumaya16r2", 0, bump_result, truth.WRONG),
    ("hom16r2", 0, bump_result, truth.WRONG),
])
def test_truth_flags_tampered_report(reports, name, code, edit, verdict):
    job, _, text, _ = reports[name]
    assert truth.check(job, code, tamper(text, edit))[0] == verdict


def test_truth_counts_crashes_and_input_errors_as_failed(reports):
    job = reports["n4"][0]
    assert truth.check(job, None, "")[0] == truth.FAILED
    assert truth.check(job, 2, "")[0] == truth.FAILED
    assert truth.check(job, 0, "not json")[0] == truth.WRONG


def test_tracer_leaves_reports_unchanged_and_accounts_all_time(reports):
    from branekit import branes, frobenius
    originals = (cli.check_cardy, branes.dual_basis, frobenius.FrobeniusAlgebra.validate)
    t = tracer.Tracer()
    traced_main = t.root(cli.main)
    with t.install():
        assert cli.check_cardy is not originals[0]
        for name, (job, code, text, path) in reports.items():
            before = sum(t.self_s.values())
            _, traced_code, traced_text = run.call(traced_main, [*job.command, path])
            assert (traced_code, traced_text) == (code, text), name
            spent = sum(t.self_s.values()) - before
            assert spent == pytest.approx(t.last_root_s, rel=1e-6, abs=1e-9)
    assert (cli.check_cardy, branes.dual_basis,
            frobenius.FrobeniusAlgebra.validate) == originals
    values = t.metrics(1)
    assert values["cli.main.calls"] == len(reports)
    assert values["poly.evaluations"] == 4 * 8 * 5  # 4 derivatives, 8x5 samples
    assert values["twisted.solve_iso.failed"] == 1
    assert values["frobenius.idempotent_yield"] > 0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {**{n: u for n, u, _ in tracer.metric_names()},
                         **run.TRACE_UNITS}
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_conjugated_diagonal_has_columns_of_p_as_idempotents():
    rng = np.random.default_rng(0)
    w = workloads.weights(rng, 5)
    p = workloads.well_conditioned(rng, 5)
    assert np.linalg.cond(p) <= 3.0 + 1e-9
    c, unit, trace = workloads.conjugated_diagonal(w, p)
    for i in range(5):
        e = p[:, i]
        assert np.allclose(np.einsum("i,j,ijk->k", e, e, c), e)
        assert np.isclose(trace @ e, w[i])
    assert np.allclose(np.einsum("i,ijk->kj", unit, c), np.eye(5))
