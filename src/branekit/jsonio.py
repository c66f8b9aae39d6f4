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

Complex arrays (vectors, matrices, structure constants, a chart's samples)
are read whole by `_complex_array`: one type check per list level and one
`np.array` over the leaves.  Whatever that read does not accept goes to the
per-entry readers, which decide and, on bad input, name the first bad entry.
A chart's samples are one nonempty (k, coords) array, and every sample of a
nerve has the same coordinate count (`family.Nerve` holds both rules); every
complex array is written by `array_to_json`.
"""

import cmath
import json

from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from .bdr import MAX_ENTRY, BDRCocycle
from .branes import BraneLabel, ClosedSector
from .errors import BranekitError, InputError
from .family import Chart, Nerve, PotentialFamily
from .frobenius import FrobeniusAlgebra
from .poly import Polynomial
from .twisted import TwistedBundle


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


def expect_int(x, loc, low=None, high=None) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(loc, "expected an integer")
    if low is not None and x < low:
        _fail(loc, f"expected an integer >= {low}")
    if high is not None and x > high:
        _fail(loc, f"expected an integer <= {high}")
    return x


def int_list(x, loc, length=None, low=None, high=None) -> list:
    return [expect_int(v, f"{loc}/{i}", low, high)
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


def _entries(x, loc, shape) -> np.ndarray:
    """The per-entry reader of a complex array of `shape` (None: any length).
    A vector reads each entry with `parse_scalar`; a deeper array needs at
    least one row, reads each row as an array of `shape[1:]`, and needs rows
    of one length.  It raises at the first bad entry in reading order."""
    if len(shape) == 1:
        return np.array([parse_scalar(v, f"{loc}/{i}")
                         for i, v in enumerate(expect_list(x, loc, shape[0]))], dtype=complex)
    rows = [_entries(r, f"{loc}/{i}", shape[1:])
            for i, r in enumerate(expect_list(x, loc, shape[0], min_length=1))]
    if len({len(r) for r in rows}) != 1:
        _fail(loc, "rows have inconsistent lengths")
    return np.array(rows)


def _complex_array(x, loc, shape, read=_entries) -> np.ndarray:
    """A complex array of `shape` (None: any length), read whole when it is
    nested nonempty lists, of one length at each level, down to [re, im]
    pairs whose parts are all exactly float or int and finite as floats.
    Anything else (a boolean, a bare number, a NaN, an int beyond the float
    range, a ragged or empty list, ...) goes to `read(x, loc, shape)`, a
    per-entry reader that decides: it parses bare numbers, and names the
    first bad entry of bad input."""
    level, dims = [x], []
    for length in (*shape, 2):
        if set(map(type, level)) != {list}:
            break
        n, *others = set(map(len, level))
        if others or n == 0 or length not in (None, n):
            break
        dims.append(n)
        level = list(chain.from_iterable(level))
    else:  # every level matched: `level` holds the leaves
        if set(map(type, level)) <= {float, int}:
            with suppress(OverflowError):  # an int beyond the float range
                parts = np.array(level, dtype=float)
                if np.isfinite(parts).all():
                    return parts.view(complex).reshape(dims[:-1])
    return read(x, loc, shape)


def parse_vector(x, loc, length=None) -> np.ndarray:
    return _complex_array(x, loc, (length,))


def parse_matrix(x, loc, shape=None) -> np.ndarray:
    return _complex_array(x, loc, shape or (None, None))


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


def array_to_json(a) -> list:
    """A complex (or real, or int) array as nested lists of [re, im] float pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


# -- frobenius ----------------------------------------------------------------

def parse_algebra(obj, loc="") -> FrobeniusAlgebra:
    dim = expect_int(get_field(obj, "dim", loc), f"{loc}/dim", low=1)
    c = _complex_array(get_field(obj, "c", loc), f"{loc}/c", (dim, dim, dim))
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


# Largest sum_i d(a,i)^2 of a label.  By Cauchy-Schwarz it bounds every
# dim E_ab, so a pairing Gram matrix is at most 1024 x 1024 (16 MB).
MAX_LABEL_SQUARES = 1024


def parse_label(obj, n, loc="") -> BraneLabel:
    dims = int_list(get_field(obj, "dims", loc), f"{loc}/dims", n, low=0)
    squares = sum(d * d for d in dims)
    if squares > MAX_LABEL_SQUARES:
        _fail(f"{loc}/dims", f"sum of squared dims is {squares}, above {MAX_LABEL_SQUARES}")
    return BraneLabel(tuple(dims))


def parse_branes(obj):
    """Returns (ClosedSector, labels in input order)."""
    sec = parse_sector(get_field(obj, "sector", ""), "/sector")
    labels = expect_list(get_field(obj, "labels", ""), "/labels")
    return sec, [parse_label(l, sec.n, f"/labels/{i}") for i, l in enumerate(labels)]


# -- family -------------------------------------------------------------------

def parse_nerve(obj, loc="", coords=None) -> Nerve:
    """A nerve whose charts each have a nonempty list of samples, of `coords`
    coordinates each when given.  `Nerve` refuses charts of different
    coordinate counts, at `loc`."""
    charts = []
    for i, ch in enumerate(expect_list(get_field(obj, "charts", loc), f"{loc}/charts",
                                       min_length=1)):
        cloc = f"{loc}/charts/{i}"
        cid = get_field(ch, "id", cloc)
        samples = _complex_array(get_field(ch, "samples", cloc), f"{cloc}/samples",
                                 (None, coords))
        charts.append(Chart(str(cid), samples))

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
    """Returns (PotentialFamily, Nerve, loops, label_dim)."""
    fam, nerve, loops = parse_family(get_field(obj, "family", ""), "/family")
    label_dim = expect_int(get_field(obj, "label_dim", ""), "/label_dim", low=1)
    return fam, nerve, loops, label_dim


# -- bdr ----------------------------------------------------------------------

def parse_bdr(obj, loc="") -> BDRCocycle:
    n = expect_int(get_field(obj, "n", loc), f"{loc}/n", low=1)
    generators = expect_int(get_field(obj, "generators", loc), f"{loc}/generators",
                            low=0)
    nerve = parse_nerve(get_field(obj, "nerve", loc), f"{loc}/nerve")

    def line(cell, cloc):
        return None if cell is None else int_list(cell, cloc, generators, -MAX_ENTRY, MAX_ENTRY)

    keys, ranks, lines = [], [], []
    for i, e in enumerate(expect_list(get_field(obj, "edges", loc), f"{loc}/edges")):
        eloc = f"{loc}/edges/{i}"
        keys.append((str(get_field(e, "from", eloc)), str(get_field(e, "to", eloc))))
        ranks.append(_square(get_field(e, "rank", eloc), f"{eloc}/rank", n,
                             lambda v, vloc: expect_int(v, vloc, 0, MAX_ENTRY)))
        cells = _square(get_field(e, "lines", eloc), f"{eloc}/lines", n, line)
        for r, c in zip(*np.nonzero(ranks[-1])):
            if cells[r][c] is None:
                _fail(f"{eloc}/lines/{r}/{c}", f"edge {keys[-1]}: missing line class at ({r},{c})")
        lines.append([[[0] * generators if x is None else x for x in row] for row in cells])
    with _errors_at(loc):
        return BDRCocycle(nerve, keys, np.reshape(ranks, (len(keys), n, n)),
                          np.reshape(lines, (len(keys), n, n, generators)))


# -- twisted ------------------------------------------------------------------

def parse_twisted(obj, nerve, loc="") -> TwistedBundle:
    rank = expect_int(get_field(obj, "rank", loc), f"{loc}/rank", low=1)
    gloc = f"{loc}/g"
    g = expect_dict(get_field(obj, "g", loc), gloc)

    def each_edge(*_) -> np.ndarray:
        """Each key, then its matrix, in input order: the first bad one is named."""
        mats = []
        for key, m in g.items():
            _simplex_key(key, 2, gloc)
            mats.append(parse_matrix(m, f"{gloc}/{key}", (rank, rank)))
        return np.array(mats, dtype=complex).reshape(-1, rank, rank)

    mats = _complex_array(list(g.values()), gloc, (None, rank, rank), each_edge)
    keys = [_simplex_key(key, 2, gloc) for key in g]
    twists = obj.get("lambda")
    if twists is not None:
        lloc, values = f"{loc}/lambda", {}
        for key, v in expect_dict(twists, lloc).items():
            if (tri := _simplex_key(key, 3, lloc)) not in nerve.triangle_row:
                _fail(f"{lloc}/{key}", f"{tri} is not a triangle of the nerve")
            values[tri] = parse_scalar(v, f"{lloc}/{key}")
        twists = [values.get(tri, np.nan) for tri in nerve.triangles]
    with _errors_at(loc):
        return TwistedBundle(nerve, rank, keys, mats, twists)


def parse_twisted_list(obj, key, nerve) -> list:
    """The bundles listed under the top-level field `key`."""
    return [parse_twisted(b, nerve, f"/{key}/{i}")
            for i, b in enumerate(expect_list(get_field(obj, key, ""), f"/{key}"))]


def parse_witness(obj, nerve, rank, loc="/witness") -> dict:
    """Chart id -> the rank x rank gauge matrix u_i, for every chart."""
    return {cid: parse_matrix(get_field(obj, cid, loc), f"{loc}/{cid}", (rank, rank))
            for cid in nerve.chart_order}


def twisted_to_json(e: TwistedBundle) -> dict:
    order = sorted(range(len(e.keys)), key=e.keys.__getitem__)
    return {
        "rank": e.rank,
        "g": {"%s,%s" % e.keys[n]: m for n, m in zip(order, array_to_json(e.g[order]))},
        "lambda": dict(zip(map(",".join, e.nerve.triangles), array_to_json(e.twists))),
    }


def nerve_to_json(nerve: Nerve) -> dict:
    out = {
        "charts": [{"id": cid, "samples": array_to_json(nerve.charts[cid].samples)}
                   for cid in nerve.chart_order],
        "edges": [list(e) for e in nerve.edges],
    }
    if nerve.triangles:
        out["triangles"] = [list(t) for t in nerve.triangles]
    if nerve.quadruples:
        out["quadruples"] = [list(q) for q in nerve.quadruples]
    return out


def bdr_to_json(c: BDRCocycle) -> dict:
    edges = []
    for e in sorted(range(len(c.keys)), key=c.keys.__getitem__):
        held = (c.rank[e] > 0).tolist()
        edges.append({
            "from": c.keys[e][0],
            "to": c.keys[e][1],
            "rank": c.rank[e].tolist(),
            "lines": [[cell if h else None for cell, h in zip(*row)]
                      for row in zip(c.lines[e].tolist(), held)],
        })
    return {"n": c.n, "generators": c.generators, "nerve": nerve_to_json(c.nerve),
            "edges": edges}
