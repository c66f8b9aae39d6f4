"""The tolerance policy: one table of bounds, stated in every check record.

Each fixture command's report is read back to check that a recorded status
is the value compared against its recorded bound, and that doubling both
knobs doubles every bound exactly (doubling is exact in binary floating
point, so a bound that ignored the knobs would show).  The default bounds
are pinned to the expressions they replaced, bit for bit.
"""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from branekit.cli import build_parser, main
from branekit.errors import Degenerate, NotAutomorphism
from branekit.family import algebra_from_three_point
from branekit.report import CheckReport
from branekit.tolerances import (
    CEILING,
    DEFAULT_TOL,
    FLOOR,
    Tolerance,
    _RULES,
    gamma,
    inverse_defect,
    meets,
    singular_ratio,
    worst,
)
from branekit.twisted import TwistedBundle, azumaya_extract

from conftest import circle_nerve
from test_fuzz import COMMANDS

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
IDS = [f"{' '.join(a)} {f}" for a, f in COMMANDS]


def report(capsys, argv, fname, *flags):
    code = main(argv + [os.path.join(ROOT, "fixtures", fname), *flags])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.mark.parametrize("argv,fname", COMMANDS, ids=IDS)
def test_recorded_status_is_value_against_bound(capsys, argv, fname):
    code, rep = report(capsys, argv, fname)
    if rep is None:
        assert code == 2
        return
    for rec in rep["checks"]:
        if "bound" in rec:
            side = _RULES[rec["name"]][1]
            within = (rec["residual"] <= rec["bound"] if side == CEILING
                      else rec["residual"] > rec["bound"])
            assert within == (rec["status"] == "pass"), rec


@pytest.mark.parametrize("argv,fname", COMMANDS, ids=IDS)
def test_doubling_the_knobs_doubles_every_bound(capsys, argv, fname):
    code, base = report(capsys, argv, fname)
    code2, doubled = report(capsys, argv, fname, "--tol-structural", "2e-9",
                            "--tol-rank", "2e-8")
    assert code2 == code
    if base is None:
        return
    assert len(doubled["checks"]) == len(base["checks"])
    for a, b in zip(base["checks"], doubled["checks"]):
        assert (a["name"], a.get("location")) == (b["name"], b.get("location"))
        assert ("bound" in a) == ("bound" in b)
        if "bound" in a:
            assert b["bound"] == 2 * a["bound"], (a, b)


def test_check_fails_beyond_the_bound():
    rep = CheckReport()
    rep.check("cardy", 2e-10, DEFAULT_TOL, location="x")
    rep.check("twist_nonzero", 1e-8, DEFAULT_TOL)
    rep.check("sewing_symmetry", 1.5e-9, DEFAULT_TOL, 2.0)
    assert [r.passed for r in rep.records] == [False, False, True]
    assert rep.records[0].to_dict() == {"name": "cardy", "status": "fail", "residual": 2e-10,
                                        "bound": 1e-10, "location": "x"}


def test_failing_cli_record_states_its_bound(tmp_path, capsys):
    with open(os.path.join(ROOT, "fixtures", "twisted_omega.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    key = next(iter(obj["g"]))
    obj["g"][key][0][0] = [obj["g"][key][0][0][0] + 1e-3, obj["g"][key][0][0][1]]
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(obj))
    assert main(["twisted", "validate", str(bad)]) == 1
    failed = [r for r in json.loads(capsys.readouterr().out)["checks"] if r["status"] == "fail"]
    assert failed and all(r["name"] == "triangle_relation" for r in failed)
    assert all(r["residual"] > r["bound"] for r in failed)


def test_numerical_records_state_a_bound_and_verdicts_none(capsys):
    bounded, exact = set(), set()
    for argv, fname in COMMANDS:
        _, rep = report(capsys, argv, fname)
        for rec in (rep or {"checks": []})["checks"]:
            (bounded if "bound" in rec else exact).add(rec["name"])
    assert {"cardy", "centrality", "sewing_symmetry",
            "psi_output_ordinary", "sheet_measure_sums_to_unit_trace",
            "conjugation_recovered", "metric_nondegenerate"} <= bounded
    # verdicts and exact integer checks carry none
    assert {"semisimple", "cocycle_triangle", "det_pm_one", "triple_rank"} <= exact
    # only the vacuous and all-pass summary records share a name with bounded ones
    assert bounded & exact <= {"transition_invertible", "pairing_nondegenerate"}


def test_default_bounds_equal_the_replaced_expressions():
    eps, rank = 1e-9, 1e-8
    literals = {"cardy": 1e-10, "centrality": 1e-12, "sheet_measure_sums_to_unit_trace": 1e-9,
                "psi_output_ordinary": 1e-10, "conjugator_invertible": 1e-10,
                "flat_metric_nondegenerate": 1e-12, "transition_inverses": eps * 10,
                "twist_2cocycle": eps * 100, "psi_ordinary": eps * 100,
                "edge_automorphism": eps * 1000, "conjugation_recovered": eps * 1000,
                "twist_scalar_defect": eps * 1000, "twist_nonzero": rank,
                "idempotent_weight": rank}
    for name, old in literals.items():
        assert DEFAULT_TOL.bound(name) == old, name
    scaled = {"flat_metric_symmetric": lambda s: 1e-12 * s,
              "idempotent_residual": lambda s: 10 * eps * s,
              "triangle_relation": lambda s: eps * s * 100,
              "witness_conjugation": lambda s: eps * s * 100,
              "twists_agree": lambda s: eps * s * 100,
              "scalar_ratio": lambda s: eps * s * 100,
              "pairing_nondegenerate": lambda s: rank * s,
              "transition_invertible": lambda s: rank * s,
              "metric_nondegenerate": lambda s: rank * s,
              "image_rank": lambda s: rank * s}
    scaled.update({name: (lambda s: eps * s) for name in (
        "commutativity", "associativity", "unit", "square_roots", "sewing_symmetry",
        "adjoint", "idempotent_law", "unit_direction", "wdvv_associativity")})
    scales = 1.0 + np.abs(np.random.default_rng(0).standard_normal(2000)) * 10
    for name, old in scaled.items():
        for s in scales:
            assert DEFAULT_TOL.bound(name, s) == old(s), (name, s)
    # the order of the products matters at these scales; a reordering would show
    assert any(10 * eps * s != eps * s * 10 for s in scales)
    assert set(literals) | set(scaled) == set(_RULES)


def test_ceiling_and_floor():
    assert meets("cardy", 1e-10, 1e-10) and not meets("cardy", 2e-10, 1e-10)
    assert not meets("twist_nonzero", 1e-8, 1e-8) and meets("twist_nonzero", 2e-8, 1e-8)
    assert {side for _, side, _ in _RULES.values()} == {CEILING, FLOOR}
    assert np.array_equal(DEFAULT_TOL.passes("image_rank", np.array([1.0, 1e-9, 0.0])),
                          [True, False, False])


def test_tolerance_has_two_knobs_and_the_cli_defaults_are_its_own():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps_structural", "eps_rank"]
    args = build_parser().parse_args(["bdr", "x.json"])
    assert (args.tol_structural, args.tol_rank) == (Tolerance().eps_structural,
                                                    Tolerance().eps_rank)


def test_every_named_rule_is_in_the_table():
    src = os.path.join(ROOT, "src", "branekit")
    used = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                used |= set(re.findall(r"""(?:passes|check|bound)\(\s*"(\w+)\"""", fh.read()))
    assert used == set(_RULES)


def test_singular_ratio():
    assert singular_ratio(np.zeros((2, 2))) == 0.0
    assert singular_ratio(np.diag([4.0, 1.0])) == 0.25


def test_flat_metric_conditioning_follows_tol_rank():
    g = np.diag([1.0, 1e-11])  # ratio 1e-11 is above the default floor 1e-12
    c3 = np.zeros((2, 2, 2))
    c3[0, 0, 0], c3[0, 1, 1], c3[1, 0, 1], c3[1, 1, 0] = 1.0, 1e-11, 1e-11, 1e-11
    algebra_from_three_point(c3, g, 0)
    with pytest.raises(Degenerate):
        algebra_from_three_point(c3, g, 0, Tolerance(eps_rank=1e-6))


def test_conjugator_invertibility_follows_tol_rank():
    nerve = circle_nerve(num_charts=3, samples_per_chart=1)
    # the identity automorphism of M_2 on every edge
    bundle = TwistedBundle(nerve, 4, nerve.edges,
                           np.broadcast_to(np.eye(4), (len(nerve.edges), 4, 4)))
    azumaya_extract(bundle)
    # a floor of eps_rank / 100 = 1 rejects every conjugator (their ratio is <= 1)
    with pytest.raises(NotAutomorphism, match="could not invert"):
        azumaya_extract(bundle, Tolerance(eps_rank=100.0))


@pytest.mark.parametrize("flag", ["--tol-structural", "--tol-rank"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tolerance_flags_take_only_finite_positive_values(capsys, flag, value):
    argv = ["algebra", os.path.join(ROOT, "fixtures", "algebra_quadratic.json"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {flag}: must be a finite positive number, got '{value}'" in err


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_knobs_are_finite_and_positive(value):
    for knob in ("eps_structural", "eps_rank"):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Tolerance(**{knob: value})


def test_inverse_defect_of_a_stack_is_that_of_each_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    a[2] = a[2] @ np.diag([1.0, 1.0, 1.0, 1e-9])  # an ill-conditioned one
    q = np.linalg.inv(a)
    h = inverse_defect(a, q)
    assert h.shape == (5,) and h.dtype == np.longdouble
    for m, qm, hm in zip(a, q, h):
        assert inverse_defect(m, qm) == hm
        defect = np.abs(np.eye(4) - m.astype(np.clongdouble) @ qm.astype(np.clongdouble))
        assert hm >= max(defect.sum(axis=0).max(), defect.sum(axis=1).max())
    assert gamma(4) == 4 * 2.0 ** -53 / (1 - 4 * 2.0 ** -53)


def test_worst_keeps_a_nan_wherever_it_stands():
    nan = float("nan")
    for values in ([nan, 1.0, 2.0], [1.0, 2.0, nan], [nan]):
        assert np.isnan(worst(np.array(values)))
    assert worst(np.zeros(0)) == 0.0
    assert worst(np.array([1e-3, 2.5, 0.0])) == 2.5


def test_max_residual_keeps_a_nan_wherever_it_stands():
    nan = float("nan")
    for values in ([nan, 1.0], [1.0, nan], [nan, None, 2.0, 1.0], [1.0, None, 2.0, nan]):
        report = CheckReport()
        for value in values:
            report.add("r", True, value)
        assert np.isnan(report.max_residual)
    report = CheckReport()
    assert report.max_residual == 0.0
    for value in (1e-3, None, 2.5, 0.0):
        report.add("r", True, value)
    assert report.max_residual == 2.5 and type(report.max_residual) is float
