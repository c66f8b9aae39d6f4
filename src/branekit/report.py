"""Check records and reports.

Every verification operation returns a CheckReport: a flat, ordered list of
named records with a pass/fail status, the worst residual observed, its
bound, and a location string (chart / edge / triangle / label ids) so
failures can be pinpointed from the CLI output.  `dumps` writes a report
as JSON.
"""

from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _string

from .tolerances import Tolerance, meets


@dataclass
class CheckRecord:
    name: str
    passed: bool
    residual: float | None = None
    location: str | None = None
    detail: str | None = None
    bound: float | None = None

    def to_dict(self):
        d = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.residual is not None:
            d["residual"] = float(self.residual)
        if self.bound is not None:
            d["bound"] = float(self.bound)
        if self.location is not None:
            d["location"] = self.location
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass
class CheckReport:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, name, passed, residual=None, location=None, detail=None):
        self.records.append(CheckRecord(name, bool(passed), residual, location, detail))

    def check(self, name, value, tol: Tolerance, scale=1.0, location=None, detail=None):
        """Record `value` against the policy's bound for `name` at `scale`."""
        bound = tol.bound(name, scale)
        self.records.append(CheckRecord(name, bool(meets(name, value, bound)), value,
                                        location, detail, bound))

    def extend(self, other: "CheckReport"):
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        vals = [r.residual for r in self.records if r.residual is not None]
        return max(vals) if vals else 0.0

    def failures(self):
        return [r for r in self.records if not r.passed]

    def to_dict(self):
        return {"passed": self.passed, "checks": [r.to_dict() for r in self.records]}


# -- JSON text ----------------------------------------------------------------

_INF = float("inf")


def dumps(obj) -> str:
    """Exactly the text of `json.dumps(obj, sort_keys=True, indent=2)`, built
    by joins instead of the pure-Python encoder that `indent` selects: each
    list or object (a check record, say) in one join over its items, and a
    vector or matrix row of floats in one join over `float.__repr__`."""
    return _dumps(obj, "\n")


def _scalar(o):
    """The JSON text of a str, None, bool, int or float, tested in the order
    of `json.encoder`; None for anything else."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _key(k) -> str:
    """An object key: a str, or the text of a scalar, as a JSON string."""
    return _string(k if isinstance(k, str) else _scalar(k))


def _numeric_list(o, nl, inner):
    """The text of a list of finite floats, or of [re, im] pairs of them (the
    vectors and matrices of a report), in one join; None for other lists."""
    kinds = set(map(type, o))
    if kinds == {float}:
        body = ("," + inner).join(map(float.__repr__, o))
        head, tail = "[" + inner, nl + "]"
    elif (kinds == {list} and set(map(len, o)) == {2}
          and set(map(type, parts := list(chain.from_iterable(o)))) == {float}):
        leaf = inner + "  "
        reprs = iter(map(float.__repr__, parts))
        body = (inner + "]," + inner + "[" + leaf).join(map(("," + leaf).join,
                                                            zip(reprs, reprs)))
        head, tail = "[" + inner + "[" + leaf, inner + "]" + nl + "]"
    else:
        return None
    # only 'nan' and 'inf' hold an 'n'; those go to _scalar for NaN and Infinity
    return None if "n" in body else head + body + tail


def _dumps(o, nl) -> str:
    """The JSON text of `o`, where `nl` is the newline and indent of its line."""
    text = _scalar(o)
    if text is not None:
        return text
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _numeric_list(o, nl, inner)
        if text is not None:
            return text
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())]) + nl + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
