"""JSON reading, parsing and serialization for the CLI.

Every input value goes through a few typed readers: `expect_dict`,
`expect_list` (optionally of a fixed length), `expect_int` (a JSON integer,
never a boolean or a float), `int_list`, `parse_scalar`, `parse_vector` and
`parse_matrix` (optionally of a fixed length or shape).  Complex scalars
travel as [re, im] pairs (bare numbers are accepted on input) and must be
finite.  Each reader raises `InputError` with the JSON pointer of the value
it rejects, and the `parse_*` functions report a constructor's refusal at
the pointer of the object being built, so malformed input never ends in a
traceback.
"""

import cmath
import json
import os

from contextlib import contextmanager

import numpy as np

from .bdr import BDRCocycle, EdgeData, LineClass
from .branes import BraneLabel, ClosedSector, HomSpace
from .errors import BranekitError, InputError
from .family import Chart, Nerve, PotentialFamily
from .frobenius import FrobeniusAlgebra
from .poly import Polynomial
from .twisted import TwistedBundle
from .twovector import DimMatrix


def _fail(loc, message):
    raise InputError(message, location=loc)


@contextmanager
def _errors_at(loc, prefix=""):
    """Report a constructor's BranekitError as an InputError at `loc`."""
    try:
        yield
    except BranekitError as exc:
        _fail(loc, prefix + str(exc))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}", location=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


# -- typed readers ----------------------------------------------------------------

def expect_dict(x, loc) -> dict:
    if not isinstance(x, dict):
        _fail(loc, "expected an object")
    return x


def get_field(obj, key, loc):
    if key not in expect_dict(obj, loc):
        _fail(f"{loc}/{key}", "missing required field")
    return obj[key]


def expect_list(x, loc, length=None, min_length=0) -> list:
    if not isinstance(x, list):
        _fail(loc, "expected a list")
    if length is not None and len(x) != length:
        _fail(loc, f"expected {length} entries, got {len(x)}")
    if len(x) < min_length:
        _fail(loc, f"expected at least {min_length} entries, got {len(x)}")
    return x


def expect_int(x, loc, low=None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(loc, "expected an integer")
    if low is not None and x < low:
        _fail(loc, f"expected an integer >= {low}")
    return x


def int_list(x, loc, length=None, low=None) -> list:
    return [expect_int(v, f"{loc}/{i}", low)
            for i, v in enumerate(expect_list(x, loc, length))]


def parse_scalar(x, loc) -> complex:
    """A finite complex number from a number or an [re, im] pair (booleans,
    JSON's NaN and Infinity literals, and ints too large for a float, are
    refused)."""
    parts = x if isinstance(x, list) and len(x) == 2 else [x, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        _fail(loc, "expected a number or an [re, im] pair")
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an int beyond the float range
        _fail(loc, "expected a finite number")
    if not cmath.isfinite(z):
        _fail(loc, "expected a finite number")
    return z


def _scalars(x, loc, length=None) -> list:
    return [parse_scalar(v, f"{loc}/{i}")
            for i, v in enumerate(expect_list(x, loc, length))]


def parse_vector(x, loc, length=None) -> np.ndarray:
    return np.array(_scalars(x, loc, length), dtype=complex)


def parse_matrix(x, loc, shape=None) -> np.ndarray:
    rows, cols = shape or (None, None)
    m = [_scalars(r, f"{loc}/{i}", cols)
         for i, r in enumerate(expect_list(x, loc, rows, min_length=1))]
    if len({len(r) for r in m}) != 1:
        _fail(loc, "rows have inconsistent lengths")
    return np.array(m, dtype=complex)


def _square(x, loc, n, read) -> list:
    """An n x n list of lists, each cell passed through read(cell, pointer)."""
    return [[read(cell, f"{loc}/{r}/{c}")
             for c, cell in enumerate(expect_list(row, f"{loc}/{r}", n))]
            for r, row in enumerate(expect_list(x, loc, n))]


def _simplex_key(key, size, loc) -> tuple:
    """An object key 'i,j' (or 'i,j,k') naming an edge (or triangle)."""
    parts = tuple(key.split(","))
    if len(parts) != size:
        _fail(f"{loc}/{key}", f"expected a key of {size} comma-separated chart ids")
    return parts


def scalar_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v) -> list:
    return [scalar_to_json(z) for z in v]


def matrix_to_json(m) -> list:
    return [vector_to_json(row) for row in np.asarray(m)]


# -- frobenius ----------------------------------------------------------------

def parse_algebra(obj, loc="") -> FrobeniusAlgebra:
    dim = expect_int(get_field(obj, "dim", loc), f"{loc}/dim", low=1)
    slabs = expect_list(get_field(obj, "c", loc), f"{loc}/c", dim)
    c = np.array([parse_matrix(s, f"{loc}/c/{i}", (dim, dim))
                  for i, s in enumerate(slabs)])
    unit = parse_vector(get_field(obj, "unit", loc), f"{loc}/unit", dim)
    trace = parse_vector(get_field(obj, "trace", loc), f"{loc}/trace", dim)
    with _errors_at(loc):
        return FrobeniusAlgebra(c, unit, trace)


# -- branes -------------------------------------------------------------------

def parse_sector(obj, loc="") -> ClosedSector:
    weights = parse_vector(get_field(obj, "weights", loc), f"{loc}/weights")
    roots = obj.get("roots")
    if roots is not None:
        roots = parse_vector(roots, f"{loc}/roots", len(weights))
    with _errors_at(f"{loc}/weights", "degenerate trace: "):
        return ClosedSector(weights, roots=roots)


def parse_label(obj, n, loc="") -> BraneLabel:
    dims = int_list(get_field(obj, "dims", loc), f"{loc}/dims", n, low=0)
    return BraneLabel(tuple(dims))


def parse_branes(obj):
    """Returns (ClosedSector, labels in input order)."""
    sec = parse_sector(get_field(obj, "sector", ""), "/sector")
    labels = expect_list(get_field(obj, "labels", ""), "/labels")
    return sec, [parse_label(l, sec.n, f"/labels/{i}") for i, l in enumerate(labels)]


def parse_morphism(obj, source: BraneLabel, target: BraneLabel, loc="") -> HomSpace:
    blocks_raw = expect_list(get_field(obj, "blocks", loc), f"{loc}/blocks", source.n)
    blocks = []
    for i, raw in enumerate(blocks_raw):
        shape = (target.dims[i], source.dims[i])
        blocks.append(np.zeros(shape, dtype=complex) if 0 in shape
                      else parse_matrix(raw, f"{loc}/blocks/{i}", shape))
    with _errors_at(loc):
        return HomSpace(source, target, blocks)


# -- two-vector ----------------------------------------------------------------

def parse_dim_matrix(obj, loc="") -> DimMatrix:
    rows = expect_int(get_field(obj, "rows", loc), f"{loc}/rows", low=0)
    cols = expect_int(get_field(obj, "cols", loc), f"{loc}/cols", low=0)
    entries = expect_list(get_field(obj, "entries", loc), f"{loc}/entries", rows)
    entries = [int_list(r, f"{loc}/entries/{i}", cols, low=0)
               for i, r in enumerate(entries)]
    with _errors_at(loc):
        return DimMatrix(entries)


# -- family -------------------------------------------------------------------

def parse_nerve(obj, loc="", coords=None) -> Nerve:
    """A nerve; with `coords` given, every sample must have that many
    coordinates."""
    charts = []
    for i, ch in enumerate(expect_list(get_field(obj, "charts", loc), f"{loc}/charts",
                                       min_length=1)):
        cloc = f"{loc}/charts/{i}"
        cid = get_field(ch, "id", cloc)
        samples = expect_list(ch.get("samples", []), f"{cloc}/samples")
        charts.append(Chart(str(cid), tuple(_scalars(pt, f"{cloc}/samples/{j}", coords)
                                            for j, pt in enumerate(samples))))

    simplices = [[tuple(str(x) for x in expect_list(s, f"{loc}/{key}/{i}", size))
                  for i, s in enumerate(expect_list(obj.get(key, []), f"{loc}/{key}"))]
                 for key, size in (("edges", 2), ("triangles", 3), ("quadruples", 4))]
    with _errors_at(loc):
        return Nerve(charts, *simplices)


def parse_family(obj, loc=""):
    """Returns (PotentialFamily, Nerve, loops)."""
    n = expect_int(get_field(obj, "n", loc), f"{loc}/n", low=1)
    terms = []
    potential = expect_list(get_field(obj, "potential", loc), f"{loc}/potential")
    for i, term in enumerate(potential):
        tloc = f"{loc}/potential/{i}"
        coeff = parse_scalar(get_field(term, "coeff", tloc), f"{tloc}/coeff")
        mono = int_list(get_field(term, "monomial", tloc), f"{tloc}/monomial", n, low=0)
        terms.append((coeff, tuple(mono)))
    metric = parse_matrix(get_field(obj, "metric", loc), f"{loc}/metric", (n, n))
    unit_direction = expect_int(get_field(obj, "unit_direction", loc),
                                f"{loc}/unit_direction")
    nerve = parse_nerve(get_field(obj, "nerve", loc), f"{loc}/nerve", coords=n)
    loops = [[str(x) for x in expect_list(loop, f"{loc}/loops/{i}", min_length=2)]
             for i, loop in enumerate(expect_list(obj.get("loops", []), f"{loc}/loops"))]
    with _errors_at(loc):
        fam = PotentialFamily(n, Polynomial.from_term_list(n, terms), metric,
                              unit_direction)
    return fam, nerve, loops


def parse_pipeline(obj):
    """Returns (PotentialFamily, Nerve, loops, label_dim, generators)."""
    fam, nerve, loops = parse_family(get_field(obj, "family", ""), "/family")
    label_dim = expect_int(get_field(obj, "label_dim", ""), "/label_dim", low=1)
    generators = expect_int(obj.get("generators", 1), "/generators", low=0)
    return fam, nerve, loops, label_dim, generators


# -- bdr ----------------------------------------------------------------------

def parse_bdr(obj, loc=""):
    """Returns (BDRCocycle, Nerve)."""
    n = expect_int(get_field(obj, "n", loc), f"{loc}/n", low=1)
    generators = expect_int(get_field(obj, "generators", loc), f"{loc}/generators",
                            low=0)
    nerve = parse_nerve(get_field(obj, "nerve", loc), f"{loc}/nerve")

    def line(cell, cloc):
        return None if cell is None else LineClass(tuple(int_list(cell, cloc, generators)))

    edges = {}
    for i, e in enumerate(expect_list(get_field(obj, "edges", loc), f"{loc}/edges")):
        eloc = f"{loc}/edges/{i}"
        key = (str(get_field(e, "from", eloc)), str(get_field(e, "to", eloc)))
        rank = _square(get_field(e, "rank", eloc), f"{eloc}/rank", n,
                       lambda v, vloc: expect_int(v, vloc, low=0))
        lines = _square(get_field(e, "lines", eloc), f"{eloc}/lines", n, line)
        edges[key] = EdgeData(np.array(rank, dtype=np.int64), lines)
    with _errors_at(loc):
        return BDRCocycle(n, generators, edges), nerve


# -- twisted ------------------------------------------------------------------

def parse_nerve_field(obj, input_path) -> Nerve:
    """The inline `nerve`, or the file `nerve_ref` relative to the input's directory."""
    if "nerve" in expect_dict(obj, ""):
        return parse_nerve(obj["nerve"], "/nerve")
    if "nerve_ref" in obj:
        ref = obj["nerve_ref"]
        if not isinstance(ref, str):
            _fail("/nerve_ref", "expected a path string")
        path = os.path.join(os.path.dirname(input_path), ref)
        return parse_nerve(read_json(path), ref)
    _fail("/nerve", "missing required field")


def parse_twisted(obj, nerve, loc="") -> TwistedBundle:
    rank = expect_int(get_field(obj, "rank", loc), f"{loc}/rank", low=1)
    g = {_simplex_key(key, 2, f"{loc}/g"):
         parse_matrix(m, f"{loc}/g/{key}", (rank, rank))
         for key, m in expect_dict(get_field(obj, "g", loc), f"{loc}/g").items()}
    twists = obj.get("lambda")
    if twists is not None:
        twists = {_simplex_key(key, 3, f"{loc}/lambda"):
                  parse_scalar(v, f"{loc}/lambda/{key}")
                  for key, v in expect_dict(twists, f"{loc}/lambda").items()}
    with _errors_at(loc):
        return TwistedBundle(nerve, rank, g, twists)


def parse_twisted_list(obj, key, nerve) -> list:
    """The bundles listed under the top-level field `key`."""
    return [parse_twisted(b, nerve, f"/{key}/{i}")
            for i, b in enumerate(expect_list(get_field(obj, key, ""), f"/{key}"))]


def parse_witness(obj, nerve, rank, loc="/witness") -> dict:
    """Chart id -> the rank x rank gauge matrix u_i, for every chart."""
    return {cid: parse_matrix(get_field(obj, cid, loc), f"{loc}/{cid}", (rank, rank))
            for cid in nerve.chart_order}


def twisted_to_json(e: TwistedBundle) -> dict:
    return {
        "rank": e.rank,
        "g": {f"{i},{j}": matrix_to_json(m) for (i, j), m in sorted(e.g.items())},
        "lambda": {",".join(t): scalar_to_json(e.twist_of(*t))
                   for t in e.nerve.triangles},
    }


def nerve_to_json(nerve: Nerve) -> dict:
    out = {
        "charts": [{"id": cid,
                    "samples": [[scalar_to_json(x) for x in pt]
                                for pt in nerve.charts[cid].samples]}
                   for cid in nerve.chart_order],
        "edges": [list(e) for e in nerve.edges],
    }
    if nerve.triangles:
        out["triangles"] = [list(t) for t in nerve.triangles]
    if nerve.quadruples:
        out["quadruples"] = [list(q) for q in nerve.quadruples]
    return out


def bdr_to_json(cocycle: BDRCocycle, nerve: Nerve) -> dict:
    edges = []
    for (a, b) in sorted(cocycle.edges):
        data = cocycle.edges[(a, b)]
        edges.append({
            "from": a,
            "to": b,
            "rank": data.rank.tolist(),
            "lines": [[None if cell is None else list(cell.exponents)
                       for cell in row] for row in data.lines],
        })
    return {"n": cocycle.n, "generators": cocycle.generators,
            "nerve": nerve_to_json(nerve), "edges": edges}
