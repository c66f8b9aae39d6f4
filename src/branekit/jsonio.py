"""JSON parsing and serialization for the CLI.

Complex scalars travel as [re, im] pairs (bare numbers are accepted on
input).  Parse errors carry JSON-pointer-style locations so the CLI can
report exactly where a file is malformed.
"""

import cmath

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


def get_field(obj, key, loc):
    if not isinstance(obj, dict):
        _fail(loc, "expected an object")
    if key not in obj:
        _fail(f"{loc}/{key}", "missing required field")
    return obj[key]


def expect_dict(x, loc) -> dict:
    if not isinstance(x, dict):
        _fail(loc, "expected an object")
    return x


def parse_scalar(x, loc) -> complex:
    """A finite complex number from a number or an [re, im] pair (JSON's
    NaN and Infinity literals, and ints too large for a float, are refused)."""
    parts = x if isinstance(x, list) and len(x) == 2 else [x, 0.0]
    if not all(isinstance(v, (int, float)) for v in parts):
        _fail(loc, "expected a number or an [re, im] pair")
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an int beyond the float range
        _fail(loc, "expected a finite number")
    if not cmath.isfinite(z):
        _fail(loc, "expected a finite number")
    return z


def parse_vector(x, loc) -> np.ndarray:
    if not isinstance(x, list):
        _fail(loc, "expected a list")
    return np.array([parse_scalar(v, f"{loc}/{i}") for i, v in enumerate(x)],
                    dtype=complex)


def parse_matrix(x, loc) -> np.ndarray:
    if not isinstance(x, list) or not x:
        _fail(loc, "expected a nonempty list of rows")
    rows = [parse_vector(r, f"{loc}/{i}") for i, r in enumerate(x)]
    width = {len(r) for r in rows}
    if len(width) != 1:
        _fail(loc, "rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def scalar_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v) -> list:
    return [scalar_to_json(z) for z in v]


def matrix_to_json(m) -> list:
    return [vector_to_json(row) for row in np.asarray(m)]


# -- frobenius ----------------------------------------------------------------

def parse_algebra(obj, loc="") -> FrobeniusAlgebra:
    dim = get_field(obj, "dim", loc)
    if not isinstance(dim, int) or dim < 1:
        _fail(f"{loc}/dim", "dim must be a positive integer")
    c_raw = get_field(obj, "c", loc)
    if not isinstance(c_raw, list) or len(c_raw) != dim:
        _fail(f"{loc}/c", f"expected {dim} slices")
    c = np.empty((dim, dim, dim), dtype=complex)
    for i, slab in enumerate(c_raw):
        c[i] = parse_matrix(slab, f"{loc}/c/{i}")
        if c[i].shape != (dim, dim):
            _fail(f"{loc}/c/{i}", f"expected a {dim}x{dim} matrix")
    unit = parse_vector(get_field(obj, "unit", loc), f"{loc}/unit")
    trace = parse_vector(get_field(obj, "trace", loc), f"{loc}/trace")
    try:
        return FrobeniusAlgebra(c, unit, trace)
    except BranekitError as exc:
        _fail(loc, str(exc))


# -- branes -------------------------------------------------------------------

def parse_sector(obj, loc="") -> ClosedSector:
    weights = parse_vector(get_field(obj, "weights", loc), f"{loc}/weights")
    roots = None
    if obj.get("roots") is not None:
        roots = parse_vector(obj["roots"], f"{loc}/roots")
    try:
        return ClosedSector(weights, roots=roots)
    except BranekitError as exc:
        _fail(f"{loc}/weights", f"degenerate trace: {exc}")


def parse_label(obj, n, loc="") -> BraneLabel:
    dims = get_field(obj, "dims", loc)
    if (not isinstance(dims, list) or len(dims) != n
            or not all(isinstance(d, int) and d >= 0 for d in dims)):
        _fail(f"{loc}/dims", f"expected {n} nonnegative integers")
    return BraneLabel(tuple(dims))


def parse_morphism(obj, source: BraneLabel, target: BraneLabel, loc="") -> HomSpace:
    blocks_raw = get_field(obj, "blocks", loc)
    if not isinstance(blocks_raw, list) or len(blocks_raw) != source.n:
        _fail(f"{loc}/blocks", f"expected {source.n} blocks")
    blocks = []
    for i, raw in enumerate(blocks_raw):
        shape = (target.dims[i], source.dims[i])
        if shape[0] == 0 or shape[1] == 0:
            blocks.append(np.zeros(shape, dtype=complex))
            continue
        m = parse_matrix(raw, f"{loc}/blocks/{i}")
        if m.shape != shape:
            _fail(f"{loc}/blocks/{i}", f"expected shape {shape}, got {m.shape}")
        blocks.append(m)
    try:
        return HomSpace(source, target, blocks)
    except BranekitError as exc:
        _fail(loc, str(exc))


# -- two-vector ----------------------------------------------------------------

def parse_dim_matrix(obj, loc="") -> DimMatrix:
    rows = get_field(obj, "rows", loc)
    cols = get_field(obj, "cols", loc)
    entries = get_field(obj, "entries", loc)
    if not isinstance(rows, int) or not isinstance(cols, int):
        _fail(loc, "rows and cols must be integers")
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)):
        _fail(f"{loc}/entries", f"expected a {rows}x{cols} integer matrix")
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if not isinstance(v, int) or v < 0:
                _fail(f"{loc}/entries/{i}/{j}", "expected a nonnegative integer")
    try:
        return DimMatrix(entries)
    except BranekitError as exc:
        _fail(loc, str(exc))


# -- family -------------------------------------------------------------------

def parse_nerve(obj, loc="") -> Nerve:
    charts_raw = get_field(obj, "charts", loc)
    if not isinstance(charts_raw, list) or not charts_raw:
        _fail(f"{loc}/charts", "expected a nonempty list")
    charts = []
    for i, ch in enumerate(charts_raw):
        cid = get_field(ch, "id", f"{loc}/charts/{i}")
        samples_raw = ch.get("samples", [])
        samples = []
        for j, pt in enumerate(samples_raw):
            if not isinstance(pt, list):
                _fail(f"{loc}/charts/{i}/samples/{j}", "expected a coordinate list")
            samples.append(tuple(parse_scalar(x, f"{loc}/charts/{i}/samples/{j}/{k}")
                                 for k, x in enumerate(pt)))
        charts.append(Chart(str(cid), tuple(samples)))
    def pairs(key, size):
        out = []
        for i, e in enumerate(obj.get(key, [])):
            if not isinstance(e, list) or len(e) != size:
                _fail(f"{loc}/{key}/{i}", f"expected {size} chart ids")
            out.append(tuple(str(x) for x in e))
        return out
    try:
        return Nerve(charts, pairs("edges", 2), pairs("triangles", 3),
                     pairs("quadruples", 4))
    except BranekitError as exc:
        _fail(loc, str(exc))


def parse_family(obj, loc=""):
    """Returns (PotentialFamily, Nerve, loops)."""
    n = get_field(obj, "n", loc)
    if not isinstance(n, int) or n < 1:
        _fail(f"{loc}/n", "n must be a positive integer")
    terms = []
    for i, term in enumerate(get_field(obj, "potential", loc)):
        coeff = parse_scalar(get_field(term, "coeff", f"{loc}/potential/{i}"),
                             f"{loc}/potential/{i}/coeff")
        mono = get_field(term, "monomial", f"{loc}/potential/{i}")
        if (not isinstance(mono, list) or len(mono) != n
                or not all(isinstance(e, int) and e >= 0 for e in mono)):
            _fail(f"{loc}/potential/{i}/monomial", f"expected {n} nonnegative integers")
        terms.append((coeff, tuple(mono)))
    metric = parse_matrix(get_field(obj, "metric", loc), f"{loc}/metric")
    unit_direction = get_field(obj, "unit_direction", loc)
    if not isinstance(unit_direction, int):
        _fail(f"{loc}/unit_direction", "expected an integer index")
    nerve = parse_nerve(get_field(obj, "nerve", loc), f"{loc}/nerve")
    loops = []
    for i, loop in enumerate(obj.get("loops", [])):
        if not isinstance(loop, list) or len(loop) < 2:
            _fail(f"{loc}/loops/{i}", "expected a list of chart ids")
        loops.append([str(x) for x in loop])
    try:
        fam = PotentialFamily(n, Polynomial.from_term_list(n, terms), metric,
                              unit_direction)
    except BranekitError as exc:
        _fail(loc, str(exc))
    return fam, nerve, loops


# -- bdr ----------------------------------------------------------------------

def parse_bdr(obj, loc=""):
    """Returns (BDRCocycle, Nerve)."""
    n = get_field(obj, "n", loc)
    generators = get_field(obj, "generators", loc)
    if not isinstance(n, int) or n < 1:
        _fail(f"{loc}/n", "n must be a positive integer")
    if not isinstance(generators, int) or generators < 0:
        _fail(f"{loc}/generators", "generators must be a nonnegative integer")
    nerve = parse_nerve(get_field(obj, "nerve", loc), f"{loc}/nerve")
    edges = {}
    for i, e in enumerate(get_field(obj, "edges", loc)):
        eloc = f"{loc}/edges/{i}"
        a = str(get_field(e, "from", eloc))
        b = str(get_field(e, "to", eloc))
        rank_raw = get_field(e, "rank", eloc)
        rank = np.zeros((n, n), dtype=np.int64)
        for r, row in enumerate(rank_raw):
            for c_, val in enumerate(row):
                if not isinstance(val, int) or val < 0:
                    _fail(f"{eloc}/rank/{r}/{c_}", "expected a nonnegative integer")
                rank[r, c_] = val
        lines_raw = get_field(e, "lines", eloc)
        lines = [[None] * n for _ in range(n)]
        for r in range(n):
            for c_ in range(n):
                cell = lines_raw[r][c_]
                if cell is None:
                    continue
                if (not isinstance(cell, list) or len(cell) != generators
                        or not all(isinstance(x, int) for x in cell)):
                    _fail(f"{eloc}/lines/{r}/{c_}",
                          f"expected null or {generators} integers")
                lines[r][c_] = LineClass(tuple(cell))
        edges[(a, b)] = EdgeData(rank, lines)
    try:
        return BDRCocycle(n, generators, edges), nerve
    except BranekitError as exc:
        _fail(loc, str(exc))


# -- twisted ------------------------------------------------------------------

def parse_twisted(obj, nerve, loc="") -> TwistedBundle:
    rank = get_field(obj, "rank", loc)
    if not isinstance(rank, int) or rank < 1:
        _fail(f"{loc}/rank", "rank must be a positive integer")
    g = {}
    for key, mat in expect_dict(get_field(obj, "g", loc), f"{loc}/g").items():
        parts = key.split(",")
        if len(parts) != 2:
            _fail(f"{loc}/g/{key}", "edge keys look like 'i,j'")
        g[(parts[0], parts[1])] = parse_matrix(mat, f"{loc}/g/{key}")
    twists = None
    if obj.get("lambda") is not None:
        twists = {}
        for key, val in expect_dict(obj["lambda"], f"{loc}/lambda").items():
            parts = key.split(",")
            if len(parts) != 3:
                _fail(f"{loc}/lambda/{key}", "triangle keys look like 'i,j,k'")
            twists[tuple(parts)] = parse_scalar(val, f"{loc}/lambda/{key}")
    try:
        return TwistedBundle(nerve, rank, g, twists)
    except BranekitError as exc:
        _fail(loc, str(exc))


def parse_witness(obj, nerve, rank, loc="/witness") -> dict:
    """Chart id -> the rank x rank gauge matrix u_i, for every chart."""
    u = {}
    for cid in nerve.chart_order:
        u[cid] = parse_matrix(get_field(obj, cid, loc), f"{loc}/{cid}")
        if u[cid].shape != (rank, rank):
            _fail(f"{loc}/{cid}", f"expected a {rank}x{rank} matrix")
    return u


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
