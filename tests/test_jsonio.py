import json
import os

import numpy as np
import pytest

from branekit.errors import InputError
from branekit.family import Chart, Nerve
from branekit.jsonio import (
    _complex_array,
    _entries,
    array_to_json,
    bdr_to_json,
    expect_int,
    expect_list,
    nerve_to_json,
    parse_algebra,
    parse_bdr,
    parse_family,
    parse_matrix,
    parse_nerve,
    parse_pipeline,
    parse_scalar,
    parse_sector,
    parse_twisted,
    parse_vector,
    twisted_to_json,
)

FAMILY = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "family_circle.json")


def test_scalar_forms():
    assert parse_scalar(2, "") == 2 + 0j
    assert parse_scalar([1, -3], "") == 1 - 3j
    with pytest.raises(InputError):
        parse_scalar("x", "/z")


def test_scalar_rejects_non_finite():
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")], 10 ** 400):
        with pytest.raises(InputError) as exc:
            parse_scalar(bad, "/z")
        assert exc.value.location == "/z"


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0], [3, -1j]])
    assert np.allclose(parse_matrix(array_to_json(m), ""), m)


def per_entry_vector_to_json(v) -> list:
    """The writer `array_to_json` replaced, for vectors: one entry at a time."""
    return [[complex(z).real, complex(z).imag] for z in v]


def per_entry_matrix_to_json(m) -> list:
    return [per_entry_vector_to_json(row) for row in np.asarray(m)]


def test_whole_array_writer_matches_the_per_entry_writer():
    tiny = 5e-324  # the smallest subnormal
    parts = [0.0, -0.0, tiny, -tiny, 2.5e-310, 1e308, -1e308, 1.5, -0.0, 3.0, 0.0, -7.25]
    z = np.array([complex(a, b) for a, b in zip(parts, parts[::-1])])
    cases = [(per_entry_vector_to_json, z), (per_entry_vector_to_json, np.zeros(0)),
             (per_entry_vector_to_json, np.array([-0.0, 1e308, -3])),
             (per_entry_matrix_to_json, z.reshape(3, 4)), (per_entry_matrix_to_json, z[:1, None]),
             (per_entry_matrix_to_json, np.zeros((3, 0), dtype=complex)),
             (per_entry_matrix_to_json, np.array([[1, -2], [0, 7]])),
             (per_entry_matrix_to_json, [[1, 2.5], [-0.0, 3j]])]
    for reference, a in cases:
        want = reference(a)
        assert json.dumps(array_to_json(a)) == json.dumps(want)  # -0.0 and int -> float kept
    # a stack writes as its matrices do
    stack = z.reshape(3, 2, 2)
    assert json.dumps(array_to_json(stack)) == json.dumps([per_entry_matrix_to_json(m)
                                                           for m in stack])


def test_parse_algebra_locations():
    with pytest.raises(InputError) as exc:
        parse_algebra({"dim": 2, "c": [[[0, 0]]], "unit": [0, 0], "trace": [0, 0]})
    assert exc.value.location == "/c"


def test_parse_sector_degenerate():
    with pytest.raises(InputError) as exc:
        parse_sector({"weights": [[1, 0], [0, 0]]})
    assert "degenerate trace" in str(exc.value)


def test_nerve_round_trip():
    nerve = Nerve(
        [Chart("a", ((0.0, 1.0 + 1j),)), Chart("b", ((0.0, 1.0 + 1j),))],
        edges=[("a", "b")],
    )
    again = parse_nerve(nerve_to_json(nerve))
    assert again.chart_order == nerve.chart_order
    assert again.edges == nerve.edges
    assert again.charts["a"].samples.tolist() == nerve.charts["a"].samples.tolist()


def test_twisted_round_trip():
    from branekit.twisted import random_twisted_bundle
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "012"],
                  [("0", "1"), ("0", "2"), ("1", "2")],
                  triangles=[("0", "1", "2")])
    e = random_twisted_bundle(nerve, 2, seed=1)
    again = parse_twisted(twisted_to_json(e), nerve)
    assert again.rank == 2 and again.keys == e.keys
    assert np.max(np.abs(again.g - e.g)) < 1e-12
    assert not again.g.flags.owndata  # the bundle keeps the reader's array, not a copy
    assert again.twists.shape == (1,) and abs(again.twists[0] - e.twists[0]) < 1e-12


def test_bdr_round_trip():
    from branekit.bdr import BDRCocycle
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "ab"], [("a", "b")])
    lines = [[[[7, 7], [2, -1]], [[0, 3], [7, 7]]]]  # cells at rank 0 are not read
    c = BDRCocycle(nerve, [("a", "b")], [[[0, 1], [1, 0]]], lines)
    obj = bdr_to_json(c)
    assert obj["edges"][0]["lines"] == [[None, [2, -1]], [[0, 3], None]]
    again = parse_bdr(obj)
    assert again.keys == c.keys and again.nerve.edges == nerve.edges
    assert np.array_equal(again.rank, c.rank)
    assert again.lines[0, 0, 1].tolist() == [2, -1] and again.lines[0, 1, 0].tolist() == [0, 3]
    assert not again.lines[0, 0, 0].any()


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
    from branekit.bdr import BDRCocycle
    return bdr_to_json(BDRCocycle(nerve, [("a", "b")], [np.eye(2)], [[[[1], [0]], [[0], [-1]]]]))


def test_parse_bdr_requires_square_rank_and_lines():
    assert parse_bdr(two_chart_bdr()).n == 2
    obj = two_chart_bdr()
    obj["edges"][0]["rank"][1] = [0]  # used to be zero-padded
    assert location_of(parse_bdr, obj) == "/edges/0/rank/1"
    obj = two_chart_bdr()
    obj["edges"][0]["lines"] = [[None, None]]
    assert location_of(parse_bdr, obj) == "/edges/0/lines"
    obj = two_chart_bdr()
    obj["edges"][0]["rank"][0][0] = True
    assert location_of(parse_bdr, obj) == "/edges/0/rank/0/0"


def bdr_error(obj):
    with pytest.raises(InputError) as exc:
        parse_bdr(obj)
    return exc.value.location, exc.value.reason


def test_parse_bdr_refuses_missing_lines_and_entries_beyond_int64_sums():
    obj = two_chart_bdr()
    obj["edges"][0]["lines"][1][1] = None
    assert bdr_error(obj) == ("/edges/0/lines/1/1",
                              "edge ('a', 'b'): missing line class at (1,1)")
    obj = two_chart_bdr()
    obj["edges"][0]["lines"][0][1] = None  # rank zero there: no class needed
    assert parse_bdr(obj).n == 2
    obj = two_chart_bdr()
    obj["edges"][0]["rank"][0][0] = 2 ** 61 + 1
    assert bdr_error(obj) == ("/edges/0/rank/0/0", f"expected an integer <= {2 ** 61}")
    obj = two_chart_bdr()
    obj["edges"][0]["lines"][0][0] = [-2 ** 61 - 1]
    assert bdr_error(obj) == ("/edges/0/lines/0/0/0", f"expected an integer >= {-2 ** 61}")
    obj["edges"][0]["lines"][0][0] = [-2 ** 61]  # the sum of three stays within int64
    assert parse_bdr(obj).lines[0, 0, 0, 0] == -2 ** 61


def test_parse_bdr_refuses_repeated_and_unknown_edges():
    obj = two_chart_bdr()
    obj["edges"].append(dict(obj["edges"][0], rank=[[2, 0], [0, 2]]))
    assert bdr_error(obj) == ("", "edge ('a', 'b') is given twice")
    obj = two_chart_bdr()
    obj["edges"][0]["from"] = "nowhere"
    assert bdr_error(obj) == ("", "edge ('nowhere', 'b') names unknown charts")


def test_parse_bdr_without_generators_or_edges():
    obj = two_chart_bdr()
    obj["generators"] = 0
    obj["edges"][0]["lines"] = [[[], None], [None, []]]
    assert parse_bdr(obj).lines.shape == (1, 2, 2, 0)
    obj["edges"] = []
    assert bdr_error(obj) == ("", "no edge data for edge ('a', 'b')")
    obj["nerve"]["edges"] = []
    c = parse_bdr(obj)
    assert c.keys == [] and c.rank.shape == (0, 2, 2) and c.lines.shape == (0, 2, 2, 0)


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
    # label_dim is checked; `generators` is not read, so any value is ignored
    obj = {"family": family_json(), "label_dim": 2, field: value}
    if field == "label_dim":
        assert location_of(parse_pipeline, obj) == "/label_dim"
    else:
        assert parse_pipeline(obj)[3] == 2


# -- the whole-array reader against the per-entry reader --------------------------

def pairs(shape, value=0.25):
    """Nested lists of [re, im] float pairs of `shape`."""
    if not shape:
        return [value, -value]
    return [pairs(shape[1:], value + i) for i in range(shape[0])]


def put(x, path, value):
    for i in path[:-1]:
        x = x[i]
    x[path[-1]] = value
    return x


def c_with(path, value, dim=40):
    c = pairs((dim, dim, dim))
    put(c, path, value)
    return c


def outcome(read, x, shape):
    """(shape, dtype, bytes) of the array `read` returns, or the message and
    pointer of its InputError."""
    try:
        a = read(x, "/c", shape)
    except InputError as exc:
        return str(exc), exc.location
    return a.shape, a.dtype, a.tobytes()


def missed(x, shape):
    """Whether `_complex_array` hands `x` to its per-entry reader."""
    calls = []
    _complex_array(x, "/c", shape, lambda *args: calls.append(args))
    return bool(calls)


READS = {
    "true deep in a 40x40x40 c": (c_with((17, 23, 31, 1), True), (40, 40, 40), True),
    "valid 40x40x40 c": (pairs((40, 40, 40)), (40, 40, 40), False),
    "NaN literal": (json.loads("[[0.5, 1.0], [NaN, 0.0]]"), (None,), True),
    "Infinity literal": (json.loads("[[0.5, Infinity]]"), (None,), True),
    "-Infinity literal": (json.loads("[[[-Infinity, 0]]]"), (1, 1), True),
    "int 10**400": ([[1.0, 0.0], [10 ** 400, 0]], (2,), True),
    "ints above 2**53": ([[2 ** 53 + 1, -(2 ** 53 + 3)], [2 ** 53 + 5, 7]], (2,), False),
    "ints above 2**63": ([[2 ** 63 + 1025, -(2 ** 63 + 1)], [2 ** 64 + 3, 2 ** 70 + 1]],
                         (2,), False),
    "-0.0 and 5e-324": ([[[-0.0, 5e-324], [0.0, -0.0]], [[-5e-324, 1e308], [0, -0]]],
                        (2, 2), False),
    "bare number for a pair": ([1.5, [0.0, 1.0], -2], (3,), True),
    "ragged row": ([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]], (None, None), True),
    "ragged row of a square": ([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]], (2, 2), True),
    "3-entry pair": ([[1.0, 2.0], [1.0, 2.0, 3.0]], (2,), True),
    "string leaf": ([["x", 0.0]], (1,), True),
    "dict leaf": ([[0.0, {}]], (1,), True),
    "null leaf": ([[None, 0.0]], (1,), True),
    "null pair": ([[0.0, 0.0], None], (2,), True),
    "empty vector": ([], (None,), True),
    "empty matrix": ([], (None, None), True),
    "empty row": ([[]], (None, None), True),
    "wrong dim": (pairs((2, 2, 2)), (3, 3, 3), True),
    "wrong inner dim": (pairs((3, 3, 2)), (3, 3, 3), True),
}


@pytest.mark.parametrize("case", READS)
def test_whole_array_read_matches_per_entry_read(case):
    x, shape, miss = READS[case]
    assert outcome(_complex_array, x, shape) == outcome(_entries, x, shape)
    assert missed(x, shape) == miss


def test_whole_array_read_names_the_deep_boolean():
    with pytest.raises(InputError) as exc:
        parse_algebra({"dim": 40, "c": c_with((17, 23, 31, 1), True),
                       "unit": pairs((40,)), "trace": pairs((40,))})
    assert exc.value.location == "/c/17/23/31"


def test_parse_twisted_names_the_first_bad_edge_in_input_order():
    pt = ((0.0,),)
    nerve = Nerve([Chart(c, pt) for c in "01"], [("0", "1")])
    one = [[[1.0, 0.0]]]
    obj = {"rank": 1, "g": {"0,1": one}}
    e = parse_twisted(obj, nerve)
    assert e.keys == [("0", "1")] and e.g.shape == (1, 1, 1)
    obj["g"] = {"0,1": one, "0": one, "1,0": [[True]]}
    assert location_of(parse_twisted, obj, nerve) == "/g/0"
    obj["g"] = {"0,1": [[True]], "0": one}
    assert location_of(parse_twisted, obj, nerve) == "/g/0,1/0/0"


def test_parse_nerve_refuses_empty_charts_and_ragged_samples():
    obj = {"charts": [{"id": "a", "samples": [[[0.0, 1.0]], [[2.0, 0.0]]]},
                      {"id": "b", "samples": [[[0.0, 1.0]]]}],
           "edges": [["a", "b"]]}
    nerve = parse_nerve(obj)
    assert nerve.charts["a"].samples.tolist() == [[1j], [2]]
    assert nerve.shared == {("a", "b"): ((0, 0),)}
    assert nerve.offsets == [0, 2, 3]
    assert nerve.points.tolist() == [[1j], [2], [1j]]
    # a chart with no samples, missing or empty
    for chart, message in (({"id": "e"}, "missing required field"),
                           ({"id": "e", "samples": []}, "expected at least 1 entries, got 0")):
        with pytest.raises(InputError) as exc:
            parse_nerve({**obj, "charts": obj["charts"] + [chart]}, "/nerve")
        assert (exc.value.location, exc.value.reason) == ("/nerve/charts/2/samples", message)
    # points of different lengths inside one chart, whole-array or per-entry read
    for extra in ([3.0, 0.0], 3.0):
        obj["charts"][0]["samples"][1].append(extra)
        with pytest.raises(InputError) as exc:
            parse_nerve(obj, "/nerve")
        assert (exc.value.location, str(exc.value)) == (
            "/nerve/charts/0/samples", "/nerve/charts/0/samples: rows have inconsistent lengths")
        obj["charts"][0]["samples"][1].pop()
    # a chart whose points are all longer than the first chart's points
    obj["charts"][1]["samples"][0].append([3.0, 0.0])
    with pytest.raises(InputError) as exc:
        parse_nerve(obj, "/nerve")
    assert (exc.value.location, str(exc.value)) == (
        "/nerve", "/nerve: chart b has 2 coordinates per sample, chart a has 1")
