"""`--format json` writes a report as one line, exactly
`json.dumps(report, sort_keys=True) + "\\n"`: on stdout and, byte for byte,
in an `--out` file, for every fixture command."""

import json
import os

import pytest

from branekit import cli
from test_fuzz import COMMANDS, IDS

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.mark.parametrize("command,fixture", COMMANDS, ids=IDS)
def test_fixture_reports_match_json_dumps(command, fixture, capsys, monkeypatch, tmp_path):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, args: (reports.append(report),
                                                            emit(report, args)))
    argv = command + [os.path.join(FIXTURES, fixture)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert len(reports) == (code != 2)  # an input error writes no report
    assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert out.count("\n") == len(reports)
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert (path.read_text(encoding="utf-8") if path.exists() else "") == out
