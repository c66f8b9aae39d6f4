"""`branekit branes` runs each check once over all labels or label pairs; its
records must be byte-identical to those of the per-pair checks it replaced,
kept in `brane_reference`."""

import json
import os

import numpy as np
import pytest

import brane_reference
from branekit import branes, jsonio
from branekit.cli import main

CASES = 40
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def label_set(k):
    """The `branes` input of random label set k: n = 1..4 indices, dims 0..3,
    with a duplicate label, the zero label or explicit roots with a flipped
    branch in turn."""
    rng = np.random.default_rng([k, 27])
    n = 1 + k % 4
    w = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    labels = [rng.integers(0, 4, n).tolist() for _ in range(int(rng.integers(1, 5)))]
    if k % 3 == 0:
        labels.append(list(labels[0]))
    if k % 4 == 1:
        labels.insert(int(rng.integers(0, len(labels) + 1)), [0] * n)
    sector = {"weights": [[z.real, z.imag] for z in w]}
    if k % 2:
        roots = np.sqrt(w)
        roots[k % n] *= -1
        sector["roots"] = [[z.real, z.imag] for z in roots]
    return {"sector": sector, "labels": [{"dims": d} for d in labels]}


def test_label_sets_cover_the_cases():
    objs = [label_set(k) for k in range(CASES)]
    dims = [[tuple(l["dims"]) for l in obj["labels"]] for obj in objs]
    assert {len(d[0]) for d in dims} == {1, 2, 3, 4}
    assert {x for d in dims for label in d for x in label} == {0, 1, 2, 3}
    assert any(len(set(d)) < len(d) for d in dims)                        # a duplicate
    assert any(any(label == (0,) * len(label) for label in d) for d in dims)  # the zero label
    assert any(0 in label and any(label) for d in dims for label in d)     # a zero index
    assert any("roots" in obj["sector"] for obj in objs)


def inputs():
    """The random label sets, then the `branes` fixtures that pass."""
    yield from map(label_set, range(CASES))
    for name in ("branes_small.json", "branes_labels.json"):
        yield jsonio.read_json(os.path.join(FIXTURES, name))


@pytest.mark.parametrize("seed, batch", [(0, branes._BATCH), (3, branes._BATCH), (3, 1)])
def test_batched_suite_matches_the_per_pair_checks(tmp_path, capsys, monkeypatch, seed, batch):
    # a batch of one entry runs every group one pair at a time
    monkeypatch.setattr(branes, "_BATCH", batch)
    path = tmp_path / "branes.json"
    for k, obj in enumerate(inputs()):
        path.write_text(json.dumps(obj))
        code = main(["branes", str(path), "--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        sec, labels = jsonio.parse_branes(obj)
        want = brane_reference.suite(sec, labels, seed=seed)
        assert code == (0 if want.passed else 1), k
        assert (json.dumps(report["checks"], sort_keys=True)
                == json.dumps(want.to_dict()["checks"], sort_keys=True)), k
