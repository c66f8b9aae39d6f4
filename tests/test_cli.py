import importlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from branekit import __version__, cli
from branekit.cli import main
from branekit.tolerances import DEFAULT_TOL

from conftest import perfbench_workloads

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


def test_algebra_with_a_vanishing_idempotent_weight_fails_without_a_verdict(capsys):
    # C^2 with theta = (1, 0): the idempotents exist, but theta(e_2) = 0, so the
    # metric is singular; the report says so and never claims "not semisimple"
    code, report = run_json(capsys, "algebra", fixture("algebra_degenerate_trace.json"))
    assert code == 1
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("commutativity", "pass"), ("associativity", "pass"), ("unit", "pass"),
        ("metric_nondegenerate", "fail"), ("idempotent_weight", "fail")]
    associativity, weight = report["checks"][1], report["checks"][-1]
    assert associativity["detail"] == "direct check over all (i, j, k)"
    assert weight["residual"] == 0.0
    assert weight["bound"] == DEFAULT_TOL.bound("idempotent_weight")
    assert "idempotents" not in report["extras"]


def test_algebra_associativity_names_the_method_that_decided(capsys):
    # semisimple: certified in the frame of the idempotents the command found
    _, report = run_json(capsys, "algebra", fixture("algebra_quadratic.json"))
    record = next(c for c in report["checks"] if c["name"] == "associativity")
    assert record["detail"] == "certified in the idempotent frame"
    assert record["bound"] == DEFAULT_TOL.bound("associativity", 2.0)
    assert 0 < record["residual"] <= record["bound"]
    # not semisimple: no frame, so the direct check decides
    _, report = run_json(capsys, "algebra", fixture("algebra_nilpotent.json"))
    record = next(c for c in report["checks"] if c["name"] == "associativity")
    assert record["detail"] == "direct check over all (i, j, k)"
    assert record["residual"] == 0.0
    assert [c["name"] for c in report["checks"]] == [
        "commutativity", "associativity", "unit", "metric_nondegenerate", "semisimple"]


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
    assert err == ("error: /sector/weights: degenerate trace: closed sector has a "
                   "(numerically) zero weight\n")


def branes_input(tmp_path, weights, labels):
    path = tmp_path / "branes.json"
    path.write_text(json.dumps({"sector": {"weights": [[z.real, z.imag] for z in weights]},
                                "labels": [{"dims": list(d)} for d in labels]}))
    return str(path)


def test_branes_report_contract(tmp_path, capsys):
    # five labels with a duplicate and the zero label: adjoint per label, then
    # sewing/pairing/centrality per unordered pair, then Cardy per ordered pair
    labels = [(1, 2, 0), (0, 0, 0), (2, 1, 1), (1, 2, 0), (0, 1, 3)]
    path = branes_input(tmp_path, [1.5 + 0.5j, -0.5 + 2j, 0.8 - 1.1j], labels)
    code, report = run_json(capsys, "branes", path)
    ordered = sorted(labels)
    expected = [("adjoint", f"a={a}") for a in ordered]
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            expected += [(name, f"a={a},b={b}")
                         for name in ("sewing_symmetry", "pairing_nondegenerate", "centrality")]
    expected += [("cardy", f"a={a},b={b}") for a in ordered for b in ordered]
    assert len(expected) == 5 + 3 * 15 + 25
    assert [(r["name"], r["location"]) for r in report["checks"]] == expected
    assert code == 0 and all(r["status"] == "pass" for r in report["checks"])
    assert report["extras"] == {"n": 3, "labels": [list(a) for a in ordered]}


def test_branes_singular_pairing_names_first_cardy_pair(tmp_path, capsys):
    # both labels pair a root of 1e6 with a far smaller one; (1, 0, 1) sorts
    # first, so its Cardy check (sv ratio 1e-3 / 1e6) raises
    path = branes_input(tmp_path, [1e12, 1e-7, 1e-6], [(1, 1, 0), (1, 0, 1)])
    assert main(["branes", path]) == 2
    assert capsys.readouterr().err == (
        "error: DegeneratePairing: pairing Gram matrix is singular (sv ratio 1.000e-09)\n")


def test_branes_refuses_a_label_beyond_the_size_cap(tmp_path, capsys):
    # refused while parsing, before an array of that size is asked for
    path = branes_input(tmp_path, [1.0, 2.0], [(1, 1), (100000, 0)])
    assert main(["branes", path]) == 2
    assert capsys.readouterr().err == (
        "error: /labels/1/dims: sum of squared dims is 10000000000, above 1024\n")


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


def test_bdr_quadruple_with_stored_reversed_edge_passes(capsys):
    code, report = run_json(capsys, "bdr", fixture("bdr_tetra.json"))
    assert code == 0 and report["passed"]
    assert report["extras"] == {"edges": 6, "n": 2}
    assert [c["location"] for c in report["checks"] if c["name"] == "quadruple"] == [
        "quadruple ('0', '1', '2', '3')"]


def write_json(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_bdr_quadruple_through_a_conflicting_composite_is_a_failed_record(tmp_path, capsys):
    # R_ab R_bg = [[2, 1], [1, 1]]: its entry (0, 0) has two paths whose line
    # classes differ, and the outer composite reads it
    pt = [[[0.0, 0.0]]]
    obj = {"n": 2, "generators": 1,
           "nerve": {"charts": [{"id": c, "samples": pt} for c in "abgd"],
                     "edges": [["a", "b"], ["b", "g"], ["g", "d"], ["a", "d"]],
                     "quadruples": [["a", "b", "g", "d"]]},
           "edges": [
               {"from": "a", "to": "b", "rank": [[1, 1], [0, 1]],
                "lines": [[[0], [0]], [None, [0]]]},
               {"from": "b", "to": "g", "rank": [[1, 0], [1, 1]],
                "lines": [[[0], None], [[1], [0]]]},
               {"from": "g", "to": "d", "rank": [[1, 0], [0, 1]],
                "lines": [[[0], None], [None, [0]]]},
               {"from": "a", "to": "d", "rank": [[2, 1], [1, 1]],
                "lines": [[[0], [0]], [[1], [0]]]}]}
    code, report = run_json(capsys, "bdr", write_json(tmp_path, obj))
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": "quadruple", "status": "fail", "residual": 1.0,
                       "location": "quadruple ('a', 'b', 'g', 'd')",
                       "detail": "mismatched entries [(0, 0)]"}]


@pytest.mark.parametrize("mutate,message", [
    (lambda o: o["edges"].append(dict(o["edges"][0], rank=[[2, 0], [0, 2]])),
     "edge ('p0', 'p1') is given twice"),
    (lambda o: o["edges"][0].update({"from": "nowhere"}),
     "edge ('nowhere', 'p1') names unknown charts"),
    (lambda o: o["edges"][0]["lines"][0].__setitem__(0, None),
     "/edges/0/lines/0/0: edge ('p0', 'p1'): missing line class at (0,0)"),
    # no triangle reads the two missing nerve edges (this input once exited 0)
    (lambda o: (o["nerve"].pop("triangles"), o.update(edges=o["edges"][:1])),
     "no edge data for edge ('p1', 'p2')"),
])
def test_bdr_refuses_repeated_unknown_and_unlined_edges(tmp_path, capsys, mutate, message):
    with open(fixture("bdr_disk.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    code = main(["bdr", write_json(tmp_path, obj)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("orient", [lambda e: e, lambda e: e[::-1]], ids=["again", "reversed"])
def test_pipeline_nerve_edge_given_twice(tmp_path, capsys, orient):
    with open(fixture("pipeline_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    edges = obj["family"]["nerve"]["edges"]
    edges.append(orient(edges[0]))
    code, report = run_json(capsys, "pipeline", write_json(tmp_path, obj))
    _, expected = run_json(capsys, "pipeline", fixture("pipeline_circle.json"))
    assert code == 0 and report["passed"]
    added = [c for c in report["checks"] if c not in expected["checks"]]
    if edges[-1] == edges[0]:  # matched once, as one edge
        assert not added and report["extras"] == expected["extras"]
    else:  # held in both orientations
        assert ("det_pm_one", f"edge {tuple(edges[-1])}") in [(c["name"], c.get("location"))
                                                               for c in added]


@pytest.mark.parametrize("command,fname,mutate", [
    ("pipeline", "pipeline_circle.json", lambda o: o.update(generators=3)),
    ("bdr", "bdr_disk.json", lambda o: (o.update(edges=[]), o["nerve"].update(edges=[]))),
])
def test_no_generators_or_no_edges(tmp_path, capsys, command, fname, mutate):
    with open(fixture(fname), encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    code, report = run_json(capsys, command, write_json(tmp_path, obj))
    code_fixture, expected = run_json(capsys, command, fixture(fname))
    if command == "pipeline":  # `generators` is an unknown key, so ignored
        assert (code, report["checks"], report["extras"]) == (
            code_fixture, expected["checks"], expected["extras"])
        return
    assert code == 1 and report["extras"] == {"edges": 0, "n": 2}
    assert [(c["name"], c["status"], c.get("detail")) for c in report["checks"]] == [
        ("det_pm_one", "pass", "no edges; vacuous"),
        ("triple_rank", "fail", "cocycle has no data for edge ('p0', 'p1')"),
        ("quadruple", "pass", "no quadruples; vacuous")]


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


def test_twisted_iso_checks_a_given_witness(tmp_path, capsys):
    code, report = run_json(capsys, "twisted", "iso", fixture("twisted_iso_witness.json"))
    assert code == 0 and [c["name"] for c in report["checks"]] == ["witness_conjugation"]
    with open(fixture("twisted_iso_witness.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["witness"]["1"][0][0][0] += 0.1
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(obj))
    code, report = run_json(capsys, "twisted", "iso", str(bad))
    assert code == 1 and report["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("op,payload", [
    ("iso", {"e": {"rank": 2, "g": {}}, "f": {"rank": 2, "g": {}}}),
    ("azumaya", {"rank": 4, "g": {}}),
])
def test_twisted_on_one_chart_without_edges_passes_vacuously(tmp_path, capsys, op, payload):
    # no edge: the witness check of `iso` and of the END round trip is vacuous
    path = tmp_path / "one_chart.json"
    path.write_text(json.dumps({"nerve": {"charts": [{"id": "0", "samples": [[[0.0, 0.0]]]}]},
                                **payload}))
    code, report = run_json(capsys, "twisted", op, str(path))
    assert code == 0 and report["passed"]
    witness = next(c for c in report["checks"] if c["name"] == "witness_conjugation")
    assert witness["residual"] == 0.0


# records of `azumaya_extract` and `twisted.validate`, which `pipeline` does not run
IDENTITY_GLUING_RECORDS = {"edge_automorphism", "conjugation_recovered", "twist_scalar_defect",
                           "triangle_relation", "twist_nonzero", "transition_inverses",
                           "transition_invertible"}


def test_pipeline_end_to_end(capsys):
    code, report = run_json(capsys, "pipeline", fixture("pipeline_circle.json"))
    assert code == 0 and report["passed"]
    assert report["extras"]["monodromy"][0]["cycles"] == "(1 2)"
    assert report["extras"]["bundles"][0]["rank"] == 2
    names = {c["name"] for c in report["checks"]}
    assert {"det_pm_one", "label_lift_consistent", "bundle_trivial"} <= names
    assert not names & IDENTITY_GLUING_RECORDS


def test_pipeline_byte_identical(tmp_path, capsys):
    outs = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        code = main(["pipeline", fixture("pipeline_circle.json"), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_pipeline_two_component_cover(tmp_path, capsys):
    path = tmp_path / "pipeline_shifted.json"
    path.write_text(json.dumps(_pipeline_input("pipeline_shifted")))
    code, report = run_json(capsys, "pipeline", str(path))
    assert code == 0 and report["passed"]
    assert report["extras"]["monodromy"][0]["cycles"] == "()"
    assert [b["rank"] for b in report["extras"]["bundles"]] == [2, 2]
    lift = next(c for c in report["checks"] if c["name"] == "label_lift_consistent")
    assert lift["detail"] == "2 component(s)"


def _identity_glued_bundles(obj):
    """The reference for the stated bundles: per component, `azumaya_extract`
    run on the label's algebra bundle glued by the identity on every edge."""
    from branekit import jsonio
    from branekit.family import from_potential, idempotent_frames, transition_permutations
    from branekit.spectral import component_nerve, lift_label, sheet_nerve
    from branekit.twisted import TwistedBundle, azumaya_extract
    fam, nerve, _, d = jsonio.parse_pipeline(obj)
    frames = idempotent_frames(from_potential(fam, nerve, DEFAULT_TOL), DEFAULT_TOL, 0)
    cover = transition_permutations(frames, nerve)
    lifted = lift_label({cid: (d,) * cover.n for cid in nerve.chart_order}, cover)
    full, out = sheet_nerve(cover), []
    for component, rank in lifted.components:
        nerve_c, k = component_nerve(full, component), rank * rank
        identity = np.broadcast_to(np.eye(k), (len(nerve_c.edges), k, k))
        algebra = TwistedBundle(nerve_c, k, nerve_c.edges, identity,
                                np.ones(len(nerve_c.triangles)))
        out.append(jsonio.twisted_to_json(azumaya_extract(algebra)[0]))
    return out


@pytest.mark.parametrize("source", ["pipeline_circle", "cover_pipeline_c8x4d2",
                                    "pipeline_shifted"])
def test_pipeline_extracts_identity_gluing_exactly(tmp_path, capsys, source):
    # the report states the trivial bundle that extracting the identity gluing gives
    obj = _pipeline_input(source)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, "pipeline", str(path))
    assert code == 0 and report["passed"]
    bundles = report["extras"]["bundles"]
    assert json.dumps(bundles, sort_keys=True) == json.dumps(_identity_glued_bundles(obj),
                                                             sort_keys=True)
    assert not {c["name"] for c in report["checks"]} & IDENTITY_GLUING_RECORDS
    stated = [c for c in report["checks"] if c["name"] == "bundle_trivial"]
    assert [(c["status"], c["location"]) for c in stated] == [
        ("pass", f"component {n}") for n in range(len(bundles))]
    for record, bundle in zip(stated, bundles):
        assert record["detail"].startswith(f"rank {bundle['rank']} on ")
        assert record["detail"].endswith(": identity gluing, twist 1")
        assert "residual" not in record and "bound" not in record


@pytest.mark.parametrize("argv", [["twisted", "azumaya", fixture("twisted_azumaya.json")],
                                  ["pipeline", fixture("pipeline_circle.json")]])
def test_extraction_reports_do_not_depend_on_the_seed(capsys, argv):
    reports = [run_json(capsys, *argv, "--seed", seed)[1] for seed in ("0", "7")]
    assert [report.pop("config")["seed"] for report in reports] == [0, 7]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("value", ["-1", "1.5"])
@pytest.mark.parametrize("command,fname", [("algebra", "algebra_quadratic.json"),
                                           ("branes", "branes_small.json"),
                                           ("family", "family_circle.json"),
                                           ("pipeline", "pipeline_circle.json")])
def test_seed_flag_takes_only_non_negative_integers(capsys, command, fname, value):
    with pytest.raises(SystemExit) as exc:
        main([command, fixture(fname), "--seed", value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"branekit {command}: error: argument --seed: must be a non-negative integer, "
        f"got '{value}'"]


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exit_2(tmp_path, capsys, target):
    code = main(["algebra", fixture("algebra_quadratic.json"), "--out", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write the report: ")


def _set_nan(obj):
    obj["g"]["0,1"][0][0] = float("nan")


def _set_infinity(obj):
    obj["g"]["0,2"][0][0] = [float("inf"), 0.0]


@pytest.mark.parametrize("op,fname,mutate,pointer", [
    ("validate", "twisted_omega.json", _set_nan, "/g/0,1/0/0"),
    ("validate", "twisted_omega.json", _set_infinity, "/g/0,2/0/0"),
    ("validate", "twisted_omega.json", lambda obj: obj.update(g=5), "/g"),
    ("validate", "twisted_omega.json", lambda obj: obj.update({"lambda": [1.0]}), "/lambda"),
    ("validate", "twisted_omega.json",
     lambda obj: obj["nerve"]["charts"][2]["samples"][0].append([1.0, 0.0]), "/nerve"),
    ("iso", "twisted_iso.json", lambda obj: obj.update(witness=[[1.0]]), "/witness"),
    ("iso", "twisted_iso.json",
     lambda obj: obj.update(witness={"0": [[1.0, 0.0], [0.0, 1.0]]}), "/witness/1"),
], ids=["nan", "infinity", "g_not_object", "lambda_not_object", "ragged_nerve",
        "witness_not_object", "witness_missing_chart"])
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


@pytest.mark.parametrize("op,fname,mutate,message", [
    ("validate", "twisted_omega.json", lambda obj: obj["lambda"].update({"1,0,2": 1.0}),
     "/lambda/1,0,2: ('1', '0', '2') is not a triangle of the nerve"),
    ("tensor", "twisted_pair.json", lambda obj: obj["f"]["lambda"].update({"0,1,x": 1.0}),
     "/f/lambda/0,1,x: ('0', '1', 'x') is not a triangle of the nerve"),
    ("validate", "twisted_omega.json", lambda obj: obj["lambda"].pop("0,1,2"),
     "no twist value for triangle ('0', '1', '2')"),
    ("tensor", "twisted_pair.json", lambda obj: obj["e"]["lambda"].pop("0,1,2"),
     "/e: no twist value for triangle ('0', '1', '2')"),
], ids=["other_orientation", "unknown_chart", "missing", "missing_in_e"])
def test_twist_keys_name_exactly_the_nerve_triangles(tmp_path, capsys, op, fname, mutate,
                                                     message):
    with open(fixture(fname), encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["twisted", op, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command,fname", [("family", "family_circle.json"),
                                           ("pipeline", "pipeline_circle.json")])
def test_family_with_a_vanishing_weight_fails_a_record(tmp_path, capsys, command, fname):
    # metric and potential scaled by 1e-9: every sample's lightest weight is 5e-10
    with open(fixture(fname), encoding="utf-8") as fh:
        obj = json.load(fh)
    fam = obj["family"] if command == "pipeline" else obj
    fam["metric"] = [[1e-9 * x for x in row] for row in fam["metric"]]
    for term in fam["potential"]:
        term["coeff"] = [1e-9 * x for x in term["coeff"]]
    scaled = tmp_path / fname
    scaled.write_text(json.dumps(obj))
    code, report = run_json(capsys, command, str(scaled))
    assert code == 1
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("unit_direction", "pass"), ("wdvv_associativity", "pass"), ("idempotent_weight", "fail")]
    weight = report["checks"][-1]
    assert weight["location"] == "c0[0]" and weight["detail"] == "lightest |theta(e_i)|"
    assert weight["bound"] == DEFAULT_TOL.bound("idempotent_weight")
    assert abs(weight["residual"] - 5e-10) < 1e-20


@pytest.mark.parametrize("scale,perturb,passed", [(1e9, 0.0, True), (1e6, 0.0, True),
                                                   (1e9, 1e-6, False)])
def test_sheet_measure_is_relative_to_the_weights(tmp_path, capsys, monkeypatch,
                                                  scale, perturb, passed):
    # metric and potential scaled by `scale`: theta and its gap scale alike, so
    # the verdict does not change.  sum_i |theta(e_i)| is `scale` at every
    # sample, so theta(1) moved by perturb * scale still fails, by `perturb`.
    from branekit import family
    frames = family.idempotent_frames

    def perturbed(fam, *args):
        out = frames(fam, *args)
        fam.trace = fam.trace + perturb * scale * fam.unit
        return out
    monkeypatch.setattr(family, "idempotent_frames", perturbed)
    with open(fixture("family_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["metric"] = [[scale * x for x in row] for row in obj["metric"]]
    for term in obj["potential"]:
        term["coeff"] = [scale * x for x in term["coeff"]]
    scaled = tmp_path / "family_scaled.json"
    scaled.write_text(json.dumps(obj))
    code, report = run_json(capsys, "family", str(scaled))
    assert code == (0 if passed else 1)
    measure = next(c for c in report["checks"] if c["name"] == "sheet_measure_sums_to_unit_trace")
    assert measure["bound"] == DEFAULT_TOL.bound("sheet_measure_sums_to_unit_trace")
    assert (measure["status"] == "pass") == passed
    if not passed:
        assert abs(measure["residual"] - perturb) < 1e-9 * perturb
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == (
        [] if passed else ["sheet_measure_sums_to_unit_trace"])


def test_pipeline_label_dim_is_capped(tmp_path, capsys):
    # n label_dim^2 above MAX_LABEL_SQUARES is refused at /label_dim before any
    # work; at the cap (n = 2, d = 22: 968) the input is read
    from branekit.jsonio import MAX_LABEL_SQUARES, parse_pipeline
    with open(fixture("pipeline_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj["family"]["n"] == 2 and MAX_LABEL_SQUARES == 1024
    obj["label_dim"] = 22
    assert parse_pipeline(obj)[3] == 22
    obj["label_dim"] = 23
    path = tmp_path / "pipeline_d23.json"
    path.write_text(json.dumps(obj))
    assert main(["pipeline", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: /label_dim: 2 sheets of rank 23: sum of squared dims is 1058, above 1024\n")


def test_malformed_input_exit_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "c": [], "unit": [], "trace": []}))
    code = main(["algebra", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/c" in err


def test_twisted_nerve_ref(tmp_path, capsys):
    # the nerve comes inline only: a `nerve_ref` to another file is not read
    with open(fixture("twisted_omega.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    (tmp_path / "nerve.json").write_text(json.dumps(obj.pop("nerve")))
    obj["nerve_ref"] = "nerve.json"
    (tmp_path / "bundle.json").write_text(json.dumps(obj))
    assert main(["twisted", "validate", str(tmp_path / "bundle.json")]) == 2
    assert "error: /nerve: missing required field" in capsys.readouterr().err


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


def test_text_format_states_bounds(capsys):
    code, out = run(capsys, "branes", fixture("branes_small.json"), "--format", "text")
    assert code == 0
    cardy = [line for line in out.splitlines() if "] cardy @" in line]
    assert cardy and all(line.endswith(" bound=1.000e-10") for line in cardy)


def test_main_reuses_one_parser(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main() rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    argv = ["twisted", "validate", fixture("twisted_omega.json")]
    first = run(capsys, *argv)
    assert first[0] == 0 and run(capsys, *argv) == first
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out == f"{__version__}\n"
    for bad in (["nosuch", fixture("bdr_disk.json")], ["bdr"],
                ["bdr", fixture("bdr_disk.json"), "--format", "yaml"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert run(capsys, *argv) == first  # a refused parse leaves the parser as it was


@pytest.mark.parametrize("op,edge,entry", [
    ("tensor", "0,2", (2, 1)),
    ("hom", "0,1", (0, 0)),
])
def test_overflowing_transition_exit_2_clean_stdout(tmp_path, op, edge, entry):
    # a finite 1e308 makes the tensor or hom transition overflow; LAPACK must
    # not see it, since it writes its complaint onto file descriptor 1
    with open(fixture("twisted_pair.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["f"]["g"][edge][entry[0]][entry[1]] = 1e308
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(obj))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-m", "branekit.cli", "twisted", op, str(bad)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    key = tuple(edge.split(","))
    assert f"error: transition {key} has non-finite entries" in proc.stderr


def test_asymmetric_flat_metric_follows_tol_structural(tmp_path, capsys):
    with open(fixture("family_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["metric"][0][1] = [1.0 + 1e-11, 0.0]  # bound is 1e-12 * (1 + 1) at the default
    bad = tmp_path / "asymmetric.json"
    bad.write_text(json.dumps(obj))
    assert main(["family", str(bad)]) == 2
    assert "metric must be symmetric" in capsys.readouterr().err
    assert main(["family", str(bad), "--tol-structural", "1e-7"]) == 0


def test_version_embedded(capsys):
    code, report = run_json(capsys, "bdr", fixture("bdr_disk.json"))
    assert report["tool"]["name"] == "branekit"
    assert report["tool"]["version"]


def load_tool(name):
    """The script tools/<name>.py as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_fixtures_reproduces_fixtures(tmp_path, monkeypatch):
    gen = load_tool("gen_fixtures")
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


# Runs `branekit <argv>` as `python -m branekit.cli` would, then prints to
# stderr the branekit modules that the run loaded.
AS_MAIN = r"""
import json, runpy, sys
try:
    runpy.run_module("branekit.cli", run_name="__main__")
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("branekit."))),
          file=sys.stderr)
"""
SHARED = {"errors", "jsonio", "report", "tolerances"}  # what `cli` itself imports
COVER = {"frobenius", "family", "poly"}
LAYERS = [
    (["algebra"], "algebra_quadratic.json", {"frobenius"}),
    (["branes"], "branes_small.json", {"frobenius", "branes"}),
    (["family"], "family_circle.json", COVER),
    (["bdr"], "bdr_disk.json", COVER | {"bdr"}),
    (["twisted", "validate"], "twisted_omega.json", COVER | {"twisted"}),
    (["twisted", "psi"], "twisted_psi.json", COVER | {"twisted"}),
    (["pipeline"], "pipeline_circle.json", COVER | {"bdr", "spectral", "twisted"}),
]


@pytest.mark.parametrize("command, name, layers", LAYERS,
                         ids=[" ".join(c) for c, _, _ in LAYERS])
def test_a_fresh_process_imports_only_its_commands_layers(capsys, command, name, layers):
    argv = [*command, fixture(name)]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", AS_MAIN, *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == sorted(f"branekit.{m}" for m in SHARED | layers)
    # the report does not depend on what else the process has imported
    assert (proc.returncode, proc.stdout) == run(capsys, *argv)


@pytest.mark.parametrize("samples, message", [
    ([[True]], "/nerve/charts/1/samples/0/0: expected a number or an [re, im] pair"),
    ([[float("nan")]], "/nerve/charts/1/samples/0/0: expected a finite number"),
    ([[10 ** 400]], "/nerve/charts/1/samples/0/0: expected a finite number"),
    ([[0], [[True, 0.0]]], "/nerve/charts/1/samples/1/0: expected a number or an [re, im] pair"),
])
def test_bare_number_samples_report_as_pairs_and_bad_ones_exit_2(tmp_path, capsys, samples,
                                                                  message):
    with open(fixture("twisted_omega.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    path = tmp_path / "bare.json"

    def validate(point):
        for chart in obj["nerve"]["charts"]:
            chart["samples"] = [point]
        path.write_text(json.dumps(obj))
        return run(capsys, "twisted", "validate", str(path))

    bare = validate([0])
    assert bare[0] == 0 and bare == validate([[0.0, 0.0]])
    obj["nerve"]["charts"][1]["samples"] = samples
    path.write_text(json.dumps(obj))
    assert main(["twisted", "validate", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_family_charts_without_sample_points(tmp_path, capsys):
    with open(fixture("family_circle.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    path = tmp_path / "family.json"
    for chart, message in (({"id": "a"}, "missing required field"),
                           ({"id": "a", "samples": []}, "expected at least 1 entries, got 0")):
        obj["nerve"]["charts"][1] = chart
        path.write_text(json.dumps(obj))
        assert main(["family", str(path)]) == 2
        assert f"error: /nerve/charts/1/samples: {message}" in capsys.readouterr().err


def test_report_diff_runs_fixture_commands_on_this_trees_fixtures(tmp_path, monkeypatch):
    # both trees read the same file, so a fixture the other revision lacks is compared too
    report_diff = load_tool("report_diff")
    monkeypatch.setattr(report_diff, "SEEDS", ())  # no workload inputs
    runs = report_diff.runs(str(tmp_path))
    assert len(runs) == 2 * len(report_diff.COMMANDS)
    for (label, argv), ((command, fname), fmt) in zip(
            runs, ((c, fmt) for c in report_diff.COMMANDS for fmt in ("json", "text"))):
        assert argv[:-3] == command and argv[-2:] == ["--format", fmt]
        assert os.path.isabs(argv[-3])
        assert os.path.realpath(argv[-3]) == os.path.join(os.path.realpath(FIXTURES), fname)
        assert label == " ".join(command + [f"fixtures/{fname}", "--format", fmt])


def test_report_diff_summarises_number_only_changes():
    report_diff = load_tool("report_diff")
    old = (0, ['  "bound": 1e-09,', '  "residual": 2.5e-16,',
               "[PASS] cardy @ a=(1,) residual=2.500e-16 bound=1.000e-09"], [])
    digits = (0, ['  "bound": 1e-09,', '  "residual": 2e-16,',
                  "[PASS] cardy @ a=(1,) residual=2.000e-16 bound=1.000e-09"], [])
    verdict = (0, ['  "bound": 1e-09,', '  "residual": 2e-16,',
                   "[FAIL] cardy @ a=(1,) residual=2.000e-16 bound=1.000e-09"], [])
    assert report_diff.differences("run", old, old) == []
    assert report_diff.differences("run", old, digits)[-1] == (
        "verdicts identical: only residual/bound numbers differ, "
        "largest relative change 2.000e-01")
    for new in (verdict, (1,) + digits[1:], digits[:2] + (["error"],)):
        assert report_diff.differences("run", old, new)[-1] == (
            "not only residual/bound numbers differ")
    # text reports: the numbers of a record's (...) detail may change, its words not
    def text(residual, lam, status="PASS"):
        return 0, [f"[{status}] twist_scalar_defect @ 0,1,2 residual={residual} "
                   f"bound=1.000e-09 (lambda={lam})", "RESULT: pass"], []
    twist = text("2.500e-16", "-1-3.5e-16j")
    assert report_diff.differences("run", twist, text("2.000e-16", "-1-3.5e-16j"))[-1] == (
        "verdicts identical: only residual/bound numbers differ, "
        "largest relative change 2.000e-01")
    assert report_diff.differences("run", twist, text("2.500e-16", "-1+1.5e-16j"))[-1] == (
        "verdicts identical: only residual/bound and detail numbers differ, largest "
        "relative residual/bound change 0.000e+00, largest absolute change of detail "
        "numbers 5.000e-16")
    for new in (text("2.500e-16", "-1-3.5e-16j", "FAIL"), text("2.500e-16", "-1"),
                text("2.500e-16", "mu=-1-3.5e-16j")):
        assert report_diff.differences("run", twist, new)[-1] == (
            "not only residual/bound numbers differ")
    # JSON reports: numbers anywhere may change; keys, strings and booleans not
    def report(residual, last, status="pass", lam="-1-3.5e-16j", location="edge 0"):
        record = {"bound": 1e-9, "detail": f"lambda={lam}", "location": location,
                  "name": "twist_scalar_defect", "residual": residual, "status": status}
        g = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], last]]
        text = json.dumps({"checks": [record], "extras": {"result": {"g": {"0,1": g}}},
                           "passed": status == "pass"}, indent=2, sort_keys=True)
        return 0, text.splitlines(), []
    old = report(2.5e-16, [0.9999999999999998, 0.0])
    extras = report(2.5e-16, [1.0, 0.0])
    assert report_diff.differences("run", old, extras)[-1] == (
        "verdicts identical: only numbers differ, largest relative residual/bound change "
        "0.000e+00, largest absolute change of other numbers 2.220e-16")
    assert report_diff.differences("run", old, report(0.0, [1.0, 0.0], lam="-1+1.5e-16j"))[-1] == (
        "verdicts identical: only numbers differ, largest relative residual/bound change "
        "1.000e+00, largest absolute change of other numbers 5.000e-16")
    for new in (report(2.5e-16, [1.0]), report(2.5e-16, [True, 0.0]),
                report(2.5e-16, [1.0, 0.0], "fail"), report(2.5e-16, [1.0, 0.0], lam="-1"),
                report(2.5e-16, [1.0, 0.0], location="edge 1"), (1,) + extras[1:],
                extras[:2] + (["error"],)):
        assert report_diff.differences("run", old, new)[-1] == "not only numbers differ"
    # the same JSON value written compactly: one summary line, no diff of the text
    compact = (0, [json.dumps(json.loads("\n".join(old[1])), sort_keys=True)], [])
    assert report_diff.differences("run", old, compact) == [
        "== run", "same JSON value: only formatting differs"]
    assert report_diff.differences("run", compact, extras)[1:] == [
        "verdicts identical: only numbers differ, largest relative residual/bound change "
        "0.000e+00, largest absolute change of other numbers 2.220e-16"]
    assert report_diff.differences("run", old, (1,) + compact[1:])[1:] == [
        "exit code 0 -> 1", "not only numbers differ"]


# -- metamorphic: pipeline reports are invariant under renaming the nerve ------


def _pipeline_input(source):
    """The `pipeline_circle` fixture, the same with t1 shifted by +5 (the loop
    no longer winds around the caustic t1 = 0, so the cover has two
    components), or the c8x4d2 job of the `cover_pipeline` workload (seed 1),
    whose nerve has triangles."""
    if source in ("pipeline_circle", "pipeline_shifted"):
        with open(fixture("pipeline_circle.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        if source == "pipeline_shifted":
            for chart in obj["family"]["nerve"]["charts"]:
                for point in chart["samples"]:
                    point[1][0] += 5.0
        return obj
    workloads = perfbench_workloads()
    return json.loads(workloads.dumps(workloads.cover_pipeline(1).job("c8x4d2").payload))


def _reverse_charts(family):
    family["nerve"]["charts"].reverse()


def _flip_edges(family):
    family["nerve"]["edges"] = [edge[::-1] for edge in family["nerve"]["edges"]]


def _reverse_samples(family):
    for chart in family["nerve"]["charts"]:
        chart["samples"].reverse()


def _rename_charts(family):
    nerve = family["nerve"]
    name = {chart["id"]: f"arc-{chart['id']}" for chart in nerve["charts"]}
    for chart in nerve["charts"]:
        chart["id"] = name[chart["id"]]
    for key in ("edges", "triangles"):
        nerve[key] = [[name[cid] for cid in simplex] for simplex in nerve.get(key, [])]
    family["loops"] = [[name[cid] for cid in loop] for loop in family["loops"]]


TRANSFORMS = {"reverse_charts": _reverse_charts, "flip_edges": _flip_edges,
              "reverse_samples": _reverse_samples, "rename_charts": _rename_charts}


def _cycle_type(perm):
    seen, lengths = set(), []
    for i in range(len(perm)):
        length = 0
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def _report_up_to_names(report):
    """What a pipeline report says once chart and sheet names are dropped:
    the verdict, each check's name and status (as a multiset), the lift's
    detail, the sheet count, each loop's monodromy cycle type, and each
    bundle's rank, edge count and twists (to 9 digits)."""
    extras = report["extras"]
    return (report["passed"],
            sorted((c["name"], c["status"]) for c in report["checks"]),
            [c["detail"] for c in report["checks"] if c["name"] == "label_lift_consistent"],
            extras["sheets"],
            [_cycle_type(m["permutation"]) for m in extras["monodromy"]],
            sorted((b["rank"], len(b["g"]),
                    sorted((round(z[0], 9) + 0.0, round(z[1], 9) + 0.0)
                           for z in b["lambda"].values()))
                   for b in extras["bundles"]))


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("source", ["pipeline_circle", "cover_pipeline_c8x4d2"])
def test_pipeline_report_is_the_same_up_to_names(tmp_path, capsys, source, transform):
    obj = _pipeline_input(source)
    reports = []
    for step in ("original", transform):
        if step in TRANSFORMS:
            TRANSFORMS[step](obj["family"])
        path = tmp_path / f"{step}.json"
        path.write_text(json.dumps(obj))
        code, report = run_json(capsys, "pipeline", str(path))
        assert code == 0 and report["passed"]
        reports.append(_report_up_to_names(report))
    assert reports[0] == reports[1]
