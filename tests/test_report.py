"""`report.dumps` writes exactly the text of `json.dumps(obj, sort_keys=True,
indent=2)`: on every fixture command's report, and on values the reports do
not hold today."""

import json
import os

import numpy as np
import pytest

from branekit import cli
from branekit.report import dumps
from test_fuzz import COMMANDS, IDS

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.mark.parametrize("command,fixture", COMMANDS, ids=IDS)
def test_fixture_reports_match_json_dumps(command, fixture, capsys, monkeypatch):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, args: (reports.append(report),
                                                            emit(report, args)))
    code = cli.main(command + [os.path.join(FIXTURES, fixture)])
    assert len(reports) == (code != 2)  # an input error writes no report
    assert capsys.readouterr().out == "".join(json.dumps(r, sort_keys=True, indent=2) + "\n"
                                              for r in reports)


SYNTHETIC = {
    "non-finite": [float("nan"), float("inf"), -float("inf"), 1.0],
    "non-finite pairs": [[1.0, float("nan")], [-float("inf"), 0.0]],
    "floats": [-0.0, 5e-324, 1e16, 1e-7, 0.1, 2.0 ** 70],
    "pairs": [[-0.0, 5e-324], [1e16, -1.5]],
    "matrix": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [2.5, 0.0]]],
    "mixed pairs": [[1.0, 2], [3.0, 4.0]],
    "triples": [[1.0, 2.0, 3.0]],
    "int": 2 ** 70,
    "constants": [True, False, None],
    "tuple": (1, 2.5, "x", (None,)),
    "empty": [[], {}, [[]], [{}], {"a": [], "b": {}}, ""],
    "np.float64": np.float64(1.5),
    "np.float64 list": [np.float64(0.25), 1.0],
    "strings": ["héllo ✓ \U0001F600", "tab\t \"quoted\" back\\slash\nnew\x00"],
    "hé \"key\"": {"z": 1, "a": {"nested": [{"deep": [1.0]}]}},
    "record": {"name": "cardy", "status": "pass", "residual": 2.5e-16, "bound": 1e-9,
               "location": "a=(1,)", "detail": None},
}


def test_dumps_matches_json_dumps_on_edge_values():
    assert dumps(SYNTHETIC) == json.dumps(SYNTHETIC, sort_keys=True, indent=2)
    for value in SYNTHETIC.values():
        assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)
    for keys in ({2: "b", 1: "a"}, {2.5: 1, -1.5: 2}, {True: 1, False: 0}, {None: 1}):
        assert dumps(keys) == json.dumps(keys, sort_keys=True, indent=2)
    for bad in (np.int64(1), {1j: 0}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)
