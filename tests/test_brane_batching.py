"""`branekit branes` runs each check once over all labels or label pairs; its
records must be byte-identical to those of the per-pair checks it replaced,
kept in `brane_reference`."""

import json
import os

import numpy as np
import pytest

import brane_reference
from branekit import branes, jsonio
from branekit.branes import BraneLabel, ClosedSector, check_cardy, matrix_unit_basis
from branekit.cli import main

CASES = 40
WIDE_CASES = 12  # label sets with dims up to 5, for blocks of up to 25 units
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def label_set(k, top=3):
    """The `branes` input of random label set k: n = 1..4 indices, dims
    0..top, with a duplicate label, the zero label or explicit roots with a
    flipped branch in turn."""
    rng = np.random.default_rng([k, 27])
    n = 1 + k % 4
    w = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    labels = [rng.integers(0, top + 1, n).tolist() for _ in range(int(rng.integers(1, 5)))]
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
    for cases, top in ((CASES, 3), (WIDE_CASES, 5)):
        objs = [label_set(k, top) for k in range(cases)]
        dims = [[tuple(l["dims"]) for l in obj["labels"]] for obj in objs]
        assert {len(d[0]) for d in dims} == {1, 2, 3, 4}
        assert {x for d in dims for label in d for x in label} == set(range(top + 1))
        assert any(len(set(d)) < len(d) for d in dims)                        # a duplicate
        assert any(any(label == (0,) * len(label) for label in d) for d in dims)  # the zero label
        assert any(0 in label and any(label) for d in dims for label in d)     # a zero index
        assert any("roots" in obj["sector"] for obj in objs)


def inputs():
    """The random label sets, the wider ones, then the `branes` fixtures that pass."""
    yield from map(label_set, range(CASES))
    yield from (label_set(k, 5) for k in range(WIDE_CASES))
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


# -- the Gram matrix, one block at a time -------------------------------------
# The pairing never couples two indices, so the checks invert and take the
# SVD of each pair's Gram matrix block by block, once per distinct (index,
# block shape).

def block_grams(sec, pairs):
    """{(pair, index): Gram block} of `branes._block_grams` over `pairs`."""
    out = {}
    for index, members, _, grams in branes._block_grams(sec, *branes._pair_dims(sec, pairs)):
        for i, ps, gram in zip(index.tolist(), members, grams):
            for p in ps.tolist():
                out[p, i] = gram
    return out


def test_pairing_gram_is_block_diagonal_with_the_per_block_grams():
    for k in range(WIDE_CASES):
        sec, labels = jsonio.parse_branes(label_set(k, 5))
        pairs = [(a, b) for a in labels for b in labels]
        blocks = block_grams(sec, pairs)
        for p, (a, b) in enumerate(pairs):
            basis_ab, basis_ba = matrix_unit_basis(a, b), matrix_unit_basis(b, a)
            if not basis_ab:
                continue
            # the slow reference: theta_a of every product of matrix units
            gram = branes.pairing_gram(sec, branes._stacks(basis_ab), branes._stacks(basis_ba))
            want = np.zeros_like(gram)
            sizes = np.multiply(a.dims, b.dims)
            ends = np.cumsum(sizes)
            for i, (start, end) in enumerate(zip(ends - sizes, ends)):
                if end > start:
                    want[start:end, start:end] = blocks.pop((p, i))
            assert np.array_equal(gram, want), (k, a.dims, b.dims)
        assert not blocks, k  # no block for an index of size zero


@pytest.mark.parametrize("batch", [branes._BATCH, 1])
def test_a_nan_block_inverse_fails_exactly_the_pairs_that_hold_it(monkeypatch, batch):
    monkeypatch.setattr(branes, "_BATCH", batch)
    sec = ClosedSector([2.0 + 1.0j, 0.5j, 1.5])
    labels = sorted((BraneLabel(d) for d in ((1, 2, 0), (2, 3, 1), (0, 2, 2), (1, 3, 0))),
                    key=lambda l: l.dims)
    pairs = [(a, b) for a in labels for b in labels]
    # the Gram block of index 1 and shape (d(b,1), d(a,1)) = (3, 2), as the
    # one-index pair (0, 2, 0) -> (0, 3, 0) has it; its transpose (2, 3) differs
    target = branes.pairing_gram(sec, *branes._unit_stacks(BraneLabel((0, 2, 0)),
                                                            BraneLabel((0, 3, 0))))
    exact, hits = branes._dual_coefficients, []

    def poisoned(grams):
        inverse = exact(grams)
        hit = [k for k, g in enumerate(grams) if g.shape == target.shape and np.array_equal(g, target)]
        inverse[hit] = np.nan
        hits.extend(hit)
        return inverse

    monkeypatch.setattr(branes, "_dual_coefficients", poisoned)
    report = check_cardy(sec, pairs)
    assert len(hits) == 1  # one Gram per distinct (index, block shape)
    failed = [(a.dims, b.dims) for (a, b), r in zip(pairs, report.records) if not r.passed]
    assert failed == [(a.dims, b.dims) for a, b in pairs if (b.dims[1], a.dims[1]) == (3, 2)]
    assert len(failed) == 4
    assert all(np.isnan(r.residual) for r in report.records if not r.passed)
