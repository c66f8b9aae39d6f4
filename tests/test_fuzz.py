"""Seeded one-field fuzz over the fixtures: the CLI answers or refuses.

Each fixture is run with its command after replacing the whole input, or
one value at a seeded sample of its JSON paths, by each of a dozen mutants.
Every run must end in exit code 0, 1 or 2 without an exception escaping
`cli.main`, and an exit-2 message that names a JSON pointer must name one
whose parent exists in the mutated input.
"""

import copy
import json
import os
import random

import pytest

from branekit.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
COMMANDS = [
    (["algebra"], "algebra_quadratic.json"),
    (["algebra"], "algebra_nilpotent.json"),
    (["branes"], "branes_small.json"),
    (["branes"], "branes_degenerate.json"),
    (["family"], "family_circle.json"),
    (["bdr"], "bdr_disk.json"),
    (["twisted", "validate"], "twisted_omega.json"),
    (["twisted", "tensor"], "twisted_pair.json"),
    (["twisted", "dual"], "twisted_omega.json"),
    (["twisted", "hom"], "twisted_pair.json"),
    (["twisted", "iso"], "twisted_iso.json"),
    (["twisted", "azumaya"], "twisted_azumaya.json"),
    (["twisted", "psi"], "twisted_psi.json"),
    (["pipeline"], "pipeline_circle.json"),
]
MUTANTS = [2.5, 1e308, -1, 0, True, None, "x", [], {}, [1], [[1]], [1.0, 2.0, 3.0]]
PATHS_PER_FIXTURE = 3
SEED = 7


def json_paths(x, prefix=()):
    """Every path below `x`, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def replaced(obj, path, value):
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return out


def resolves(obj, pointer):
    for part in pointer.split("/")[1:]:
        if isinstance(obj, dict) and part in obj:
            obj = obj[part]
        elif isinstance(obj, list) and part.isdigit() and int(part) < len(obj):
            obj = obj[int(part)]
        else:
            return False
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,fname", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_one_field_mutants_exit_cleanly(tmp_path, capsys, argv, fname):
    with open(os.path.join(FIXTURES, fname), encoding="utf-8") as fh:
        base = json.load(fh)
    paths = list(json_paths(base))
    rng = random.Random(f"{SEED}:{fname}")
    chosen = [()] + rng.sample(paths, min(PATHS_PER_FIXTURE, len(paths)))
    bad = tmp_path / "mutated.json"
    for path in chosen:
        for mutant in MUTANTS:
            obj = replaced(base, path, mutant)
            bad.write_text(json.dumps(obj))
            case = f"{'/'.join(map(str, path))} := {mutant!r}"
            try:
                code = main(argv + [str(bad)])
            except Exception as exc:  # an escape is the failure under test
                pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), case
            message = err.rpartition("error: ")[2]
            if code == 2 and message.startswith("/"):
                pointer = message.split(": ", 1)[0]
                assert resolves(obj, pointer.rpartition("/")[0]), f"{case}: {message}"
