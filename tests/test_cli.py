import importlib
import importlib.util
import json
import os

import pytest

from branekit.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_algebra_quadratic_passes(capsys):
    code, report = run_json(capsys, "algebra", fixture("algebra_quadratic.json"))
    assert code == 0
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"commutativity", "associativity", "unit", "metric_nondegenerate",
            "semisimple"} <= names
    # idempotents (1 +- x)/2 listed
    idems = report["extras"]["idempotents"]
    assert sorted(round(z[0], 6) for row in idems for z in row) == [-0.5, 0.5, 0.5, 0.5]
    assert all(abs(w[0] - 0.5) < 1e-9 for w in report["extras"]["weights"])


def test_algebra_nilpotent_fails_semisimplicity(capsys):
    code, report = run_json(capsys, "algebra", fixture("algebra_nilpotent.json"))
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["semisimple"]


def test_branes_suite_passes(capsys):
    code, report = run_json(capsys, "branes", fixture("branes_small.json"))
    assert code == 0 and report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"cardy", "sewing_symmetry", "pairing_nondegenerate", "centrality",
            "adjoint"} <= names


def test_branes_degenerate_sector_exit_2(capsys):
    code = main(["branes", fixture("branes_degenerate.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "degenerate trace" in err


def test_family_monodromy_reported(capsys):
    code, report = run_json(capsys, "family", fixture("family_circle.json"))
    assert code == 0 and report["passed"]
    mono = report["extras"]["monodromy"]
    assert mono[0]["cycles"] == "(1 2)"
    assert mono[1]["cycles"] == "()"   # doubled loop


def test_bdr_checks_pass(capsys):
    code, report = run_json(capsys, "bdr", fixture("bdr_disk.json"))
    assert code == 0 and report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"det_pm_one", "triple_rank", "triple_lines", "quadruple"} <= names


@pytest.mark.parametrize("op,fname", [
    ("validate", "twisted_omega.json"),
    ("tensor", "twisted_pair.json"),
    ("dual", "twisted_omega.json"),
    ("hom", "twisted_pair.json"),
    ("iso", "twisted_iso.json"),
    ("azumaya", "twisted_azumaya.json"),
    ("psi", "twisted_psi.json"),
])
def test_twisted_subcommands(capsys, op, fname):
    code, report = run_json(capsys, "twisted", op, fixture(fname))
    assert code == 0, report
    assert report["passed"]


def test_pipeline_end_to_end(capsys):
    code, report = run_json(capsys, "pipeline", fixture("pipeline_circle.json"))
    assert code == 0 and report["passed"]
    assert report["extras"]["monodromy"][0]["cycles"] == "(1 2)"
    assert report["extras"]["bundles"][0]["rank"] == 2
    names = {c["name"] for c in report["checks"]}
    assert {"det_pm_one", "label_lift_consistent", "conjugation_recovered",
            "transition_inverses"} <= names


def test_pipeline_byte_identical(tmp_path, capsys):
    outs = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        code = main(["pipeline", fixture("pipeline_circle.json"), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_pipeline_two_component_cover(tmp_path, capsys):
    # with t1 shifted by +5 the loop no longer winds around the caustic t1 = 0
    with open(fixture("pipeline_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    for chart in obj["family"]["nerve"]["charts"]:
        for point in chart["samples"]:
            point[1][0] += 5.0
    path = tmp_path / "pipeline_shifted.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, "pipeline", str(path))
    assert code == 0 and report["passed"]
    assert report["extras"]["monodromy"][0]["cycles"] == "()"
    assert [b["rank"] for b in report["extras"]["bundles"]] == [2, 2]
    lift = next(c for c in report["checks"] if c["name"] == "label_lift_consistent")
    assert lift["detail"] == "2 component(s)"


def _set_nan(obj):
    obj["g"]["0,1"][0][0] = float("nan")


def _set_infinity(obj):
    obj["g"]["0,2"][0][0] = [float("inf"), 0.0]


@pytest.mark.parametrize("op,fname,mutate,pointer", [
    ("validate", "twisted_omega.json", _set_nan, "/g/0,1/0/0"),
    ("validate", "twisted_omega.json", _set_infinity, "/g/0,2/0/0"),
    ("validate", "twisted_omega.json", lambda obj: obj.update(g=5), "/g"),
    ("validate", "twisted_omega.json", lambda obj: obj.update({"lambda": [1.0]}), "/lambda"),
    ("iso", "twisted_iso.json", lambda obj: obj.update(witness=[[1.0]]), "/witness"),
    ("iso", "twisted_iso.json",
     lambda obj: obj.update(witness={"0": [[1.0, 0.0], [0.0, 1.0]]}), "/witness/1"),
], ids=["nan", "infinity", "g_not_object", "lambda_not_object", "witness_not_object",
        "witness_missing_chart"])
def test_malformed_twisted_input_exit_2(tmp_path, capsys, op, fname, mutate, pointer):
    with open(fixture(fname), encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))  # NaN and Infinity become JSON literals
    code = main(["twisted", op, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {pointer}:" in err


def test_unreadable_input_exit_2(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"dim": "\xe9"}')
    for path in (tmp_path, tmp_path / "latin1.json", tmp_path / "missing.json"):
        assert main(["algebra", str(path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("root", [5, None])
@pytest.mark.parametrize("op", ["validate", "iso"])
def test_twisted_top_level_not_object_exit_2(tmp_path, capsys, op, root):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(root))
    assert main(["twisted", op, str(bad)]) == 2
    assert "error: expected an object" in capsys.readouterr().err


def _huge_structure_constant(obj):
    obj["c"][0][1][0] = 1e308


def _singular_g(obj):
    obj["g"]["1,2"] = [[0.0]]


def _zero_twist(obj):
    obj["lambda"]["0,1,2"] = 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,fname,mutate,message", [
    (["algebra"], "algebra_quadratic.json", _huge_structure_constant, "LinAlgError"),
    (["twisted", "dual"], "twisted_omega.json", _singular_g, "LinAlgError"),
    (["twisted", "dual"], "twisted_omega.json", _zero_twist, "twist values must be nonzero"),
], ids=["metric_not_finite", "singular_transition", "zero_twist"])
def test_numerical_failure_exit_2(tmp_path, capsys, argv, fname, mutate, message):
    with open(fixture(fname), encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(argv + [str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_malformed_input_exit_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "c": [], "unit": [], "trace": []}))
    code = main(["algebra", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/c" in err


def test_twisted_nerve_ref(tmp_path, monkeypatch, capsys):
    _, inline = run_json(capsys, "twisted", "validate", fixture("twisted_omega.json"))
    with open(fixture("twisted_omega.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    sub = tmp_path / "inputs"
    sub.mkdir()
    (sub / "nerve.json").write_text(json.dumps(obj.pop("nerve")))
    obj["nerve_ref"] = "nerve.json"
    (sub / "bundle.json").write_text(json.dumps(obj))
    # resolved against the input file's directory, not the working directory
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "twisted", "validate", os.path.join("inputs", "bundle.json"))
    assert code == 0
    assert report["checks"] == inline["checks"]

    obj["nerve_ref"] = 2.5
    (sub / "bad.json").write_text(json.dumps(obj))
    code = main(["twisted", "validate", os.path.join("inputs", "bad.json")])
    assert code == 2
    assert "/nerve_ref" in capsys.readouterr().err


def test_tolerance_flags_respected(capsys):
    code, report = run_json(capsys, "algebra", fixture("algebra_quadratic.json"),
                            "--tol-structural", "1e-6", "--tol-rank", "1e-5",
                            "--seed", "3")
    assert code == 0
    assert report["config"]["tol_structural"] == 1e-6
    assert report["config"]["seed"] == 3


def test_text_format(capsys):
    code, out = run(capsys, "family", fixture("family_circle.json"),
                    "--format", "text")
    assert code == 0
    assert "monodromy" in out and "(1 2)" in out
    assert out.endswith("RESULT: pass\n")


def test_version_embedded(capsys):
    code, report = run_json(capsys, "bdr", fixture("bdr_disk.json"))
    assert report["tool"]["name"] == "branekit"
    assert report["tool"]["version"]


def test_gen_fixtures_reproduces_fixtures(tmp_path, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "gen_fixtures.py")
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", str(tmp_path))
    gen.main()
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(FIXTURES))
    for name in os.listdir(FIXTURES):
        with open(fixture(name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name


def test_perfbench_tracer_hooks_resolve():
    # the traced benchmark run wraps these names; a rename must fail here
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.SPANS + tracer.COUNTERS:
        obj = importlib.import_module(f"branekit.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"branekit.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"branekit.{module}.{attr}"
