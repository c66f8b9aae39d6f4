import json
import os

import numpy as np
import pytest

from branekit.branes import BraneLabel
from branekit.errors import InputError
from branekit.family import Chart, Nerve
from branekit.jsonio import (
    bdr_to_json,
    expect_int,
    expect_list,
    matrix_to_json,
    nerve_to_json,
    parse_algebra,
    parse_bdr,
    parse_dim_matrix,
    parse_family,
    parse_matrix,
    parse_morphism,
    parse_nerve,
    parse_pipeline,
    parse_scalar,
    parse_sector,
    parse_twisted,
    parse_vector,
    scalar_to_json,
    twisted_to_json,
)

FAMILY = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "family_circle.json")


def test_scalar_forms():
    assert parse_scalar(2, "") == 2 + 0j
    assert parse_scalar([1, -3], "") == 1 - 3j
    with pytest.raises(InputError):
        parse_scalar("x", "/z")
    assert scalar_to_json(1 - 3j) == [1.0, -3.0]


def test_scalar_rejects_non_finite():
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")], 10 ** 400):
        with pytest.raises(InputError) as exc:
            parse_scalar(bad, "/z")
        assert exc.value.location == "/z"


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0], [3, -1j]])
    assert np.allclose(parse_matrix(matrix_to_json(m), ""), m)


def test_parse_algebra_locations():
    with pytest.raises(InputError) as exc:
        parse_algebra({"dim": 2, "c": [[[0, 0]]], "unit": [0, 0], "trace": [0, 0]})
    assert exc.value.location == "/c"


def test_parse_sector_degenerate():
    with pytest.raises(InputError) as exc:
        parse_sector({"weights": [[1, 0], [0, 0]]})
    assert "degenerate trace" in str(exc.value)


def test_parse_morphism_shapes():
    a = BraneLabel((2, 0))
    b = BraneLabel((1, 3))
    m = parse_morphism({"blocks": [[[ [1, 0], [0, 1] ]], []]}, a, b)
    assert m.blocks[0].shape == (1, 2)
    assert m.blocks[1].shape == (3, 0)
    with pytest.raises(InputError):
        parse_morphism({"blocks": [[[ [1, 0] ]], []]}, a, b)


def test_parse_dim_matrix():
    d = parse_dim_matrix({"rows": 2, "cols": 3, "entries": [[1, 0, 2], [0, 1, 0]]})
    assert d.rows == 2 and d.cols == 3
    with pytest.raises(InputError) as exc:
        parse_dim_matrix({"rows": 2, "cols": 2, "entries": [[1, -1], [0, 1]]})
    assert "/entries/0/1" in exc.value.location


def test_nerve_round_trip():
    nerve = Nerve(
        [Chart("a", ((0.0, 1.0 + 1j),)), Chart("b", ((0.0, 1.0 + 1j),))],
        edges=[("a", "b")],
    )
    again = parse_nerve(nerve_to_json(nerve))
    assert again.chart_order == nerve.chart_order
    assert again.edges == nerve.edges
    assert again.charts["a"].samples == nerve.charts["a"].samples


def test_twisted_round_trip():
    from branekit.twisted import random_twisted_bundle
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "012"],
                  [("0", "1"), ("0", "2"), ("1", "2")],
                  triangles=[("0", "1", "2")])
    e = random_twisted_bundle(nerve, 2, seed=1)
    again = parse_twisted(twisted_to_json(e), nerve)
    assert again.rank == 2
    for key in e.g:
        assert np.max(np.abs(again.g[key] - e.g[key])) < 1e-12
    for t in nerve.triangles:
        assert abs(again.twist_of(*t) - e.twist_of(*t)) < 1e-12


def test_bdr_round_trip():
    from branekit.bdr import BDRCocycle, EdgeData, LineClass
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "ab"], [("a", "b")])
    edges = {("a", "b"): EdgeData(np.array([[0, 1], [1, 0]]),
                                  [[None, LineClass((2, -1))],
                                   [LineClass((0, 3)), None]])}
    c = BDRCocycle(2, 2, edges)
    again, nerve2 = parse_bdr(bdr_to_json(c, nerve))
    assert np.array_equal(again.edge("a", "b").rank, c.edge("a", "b").rank)
    assert again.edge("a", "b").lines[0][1] == LineClass((2, -1))


def location_of(fn, *args):
    with pytest.raises(InputError) as exc:
        fn(*args)
    return exc.value.location


def test_readers_reject_booleans():
    assert location_of(parse_scalar, True, "/z") == "/z"
    assert location_of(parse_scalar, [False, True], "/z") == "/z"
    assert location_of(expect_int, True, "/n") == "/n"
    assert location_of(expect_int, 2.0, "/n") == "/n"
    assert location_of(expect_int, -1, "/n", 0) == "/n"
    assert expect_int(0, "/n", 0) == 0


def test_list_readers_check_lengths():
    assert location_of(expect_list, {}, "/x") == "/x"
    assert location_of(expect_list, [1], "/x", 2) == "/x"
    assert location_of(expect_list, [1], "/x", None, 2) == "/x"
    assert location_of(parse_vector, [1, 2], "/v", 3) == "/v"
    assert location_of(parse_matrix, [[1, 2], [3]], "/m", (2, 2)) == "/m/1"
    assert location_of(parse_matrix, [[1, 2]], "/m", (2, 2)) == "/m"
    assert location_of(parse_matrix, [[1, 2], [3]], "/m") == "/m"


def two_chart_bdr():
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "ab"], [("a", "b")])
    from branekit.bdr import BDRCocycle, EdgeData, LineClass
    edges = {("a", "b"): EdgeData(np.eye(2, dtype=int), [[LineClass((1,)), None],
                                                        [None, LineClass((-1,))]])}
    return bdr_to_json(BDRCocycle(2, 1, edges), nerve)


def test_parse_bdr_requires_square_rank_and_lines():
    assert parse_bdr(two_chart_bdr())[0].n == 2
    obj = two_chart_bdr()
    obj["edges"][0]["rank"][1] = [0]  # used to be zero-padded
    assert location_of(parse_bdr, obj) == "/edges/0/rank/1"
    obj = two_chart_bdr()
    obj["edges"][0]["lines"] = [[None, None]]
    assert location_of(parse_bdr, obj) == "/edges/0/lines"
    obj = two_chart_bdr()
    obj["edges"][0]["rank"][0][0] = True
    assert location_of(parse_bdr, obj) == "/edges/0/rank/0/0"


@pytest.mark.parametrize("key", ["charts", "samples", "edges", "triangles", "quadruples"])
def test_parse_nerve_requires_lists(key):
    obj = nerve_to_json(Nerve([Chart(c, ((0.0,),)) for c in "ab"], [("a", "b")]))
    if key == "samples":
        obj["charts"][1]["samples"] = 5
        assert location_of(parse_nerve, obj) == "/charts/1/samples"
    else:
        obj[key] = 5
        assert location_of(parse_nerve, obj) == f"/{key}"


def family_json():
    with open(FAMILY, encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_family_requires_n_coordinates_per_sample():
    obj = family_json()
    obj["nerve"]["charts"][2]["samples"][3] = [[0.0, 0.0]]
    assert location_of(parse_family, obj) == "/nerve/charts/2/samples/3"


@pytest.mark.parametrize("field,value", [("generators", 2.5), ("generators", -1),
                                         ("generators", True), ("label_dim", 0),
                                         ("label_dim", 2.0)])
def test_parse_pipeline_checks_label_dim_and_generators(field, value):
    obj = {"family": family_json(), "label_dim": 2, field: value}
    assert location_of(parse_pipeline, obj) == f"/{field}"
    assert parse_pipeline({"family": family_json(), "label_dim": 2})[4] == 1
