"""Check records and reports.

Every verification operation returns a CheckReport: a flat, ordered list of
named records with a pass/fail status, the worst residual observed, its
bound, and a location string (chart / edge / triangle / label ids) so
failures can be pinpointed from the CLI output.  `to_dict` gives the plain
value that the CLI writes as JSON.
"""

from dataclasses import dataclass, field

from .tolerances import Tolerance, meets, worst


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
        """The largest residual recorded (`tolerances.worst`): 0.0 when there
        is none, NaN when any is NaN."""
        return worst([r.residual for r in self.records if r.residual is not None])

    def failures(self):
        return [r for r in self.records if not r.passed]

    def to_dict(self):
        return {"passed": self.passed, "checks": [r.to_dict() for r in self.records]}
