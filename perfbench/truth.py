"""Compare a job's report with the truth known from how its input was built.

Only verdicts and values are checked, never whole-report bytes, so that a
report schema change (an added field, say) leaves the benchmark working.

Every job gets one of three verdicts:

- OK: the exit code and the values match the truth.
- FAILED: the program missed the right answer and said so.  That is a
  failing exit code on an input that must pass (a false `NotSemisimple`, an
  isomorphism search that finds no witness), exit 2, or an uncaught
  exception.  These count in `failed` but leave the run `correct`.
- WRONG: the program claimed something false without flagging it.  That is
  a passing report with wrong values, a pass on an input that must fail, or
  a failure for the wrong reason.  Any WRONG job makes the run incorrect.
"""

import json

import numpy as np

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Agreement required between reported and constructed values, relative to
# the size of the constructed value.  Loose against rounding, tight against
# any real mistake.
VALUE_TOL = 1e-6


def check(job, code, out):
    """(verdict, reason) for one run of `job`: exit code `code` (None for an
    uncaught exception) and standard output `out`."""
    if code is None:
        return FAILED, "uncaught exception"
    if code == 2:
        return FAILED, "exit 2"
    if code not in (0, 1):
        return WRONG, f"exit {code}"
    try:
        report = json.loads(out)
        records = report["checks"]
        statuses = [(r["name"], r["status"]) for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"unreadable report: {exc}"
    failing = [name for name, status in statuses if status != "pass"]
    if bool(report.get("passed")) != (not failing) or (code == 0) != (not failing):
        return WRONG, "exit code, 'passed' and check statuses disagree"
    truth = job.truth
    if truth["kind"] == "not_semisimple":
        if code == 0:
            return WRONG, "nilpotent algebra reported semisimple"
        if failing != ["semisimple"]:
            return WRONG, f"expected only 'semisimple' to fail, got {failing}"
        return OK, ""
    if code != 0:
        return FAILED, f"failing checks {sorted(set(failing))[:4]}"
    try:
        problem = _VALUE_CHECKS[truth["kind"]](truth, report, statuses)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problem = f"report lacks expected values: {type(exc).__name__}: {exc}"
    return (WRONG, problem) if problem else (OK, "")


def _complex(pair):
    return complex(pair[0], pair[1])


def _matrix(rows):
    return np.array([[_complex(z) for z in row] for row in rows], dtype=complex)


def _close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and float(np.max(np.abs(got - want))) <= VALUE_TOL * (1.0 + float(np.max(np.abs(want)))))


def _count(statuses, name) -> int:
    return sum(1 for n, _ in statuses if n == name)


def _semisimple(truth, report, statuses):
    if _count(statuses, "semisimple") != 1:
        return "no 'semisimple' record"
    got = _matrix(report["extras"]["idempotents"])
    weights = np.array([_complex(z) for z in report["extras"]["weights"]])
    want, want_w = truth["idempotents"], truth["weights"]
    if got.shape != want.shape or weights.shape != want_w.shape:
        return f"idempotents have shape {got.shape}, expected {want.shape}"
    unused = list(range(want.shape[0]))
    for row, w in zip(got, weights):
        dist = [float(np.max(np.abs(row - want[j]))) for j in unused]
        j = unused.pop(int(np.argmin(dist)))
        if not _close(row, want[j]) or not _close(w, want_w[j]):
            return "an idempotent or its weight differs from P e_i"
    return None


def _branes(truth, report, statuses):
    labels = sorted(tuple(d) for d in truth["labels"])
    if sorted(tuple(d) for d in report["extras"]["labels"]) != labels:
        return "label list differs"
    k = len(labels)
    expected = {"adjoint": k, "sewing_symmetry": k * (k + 1) // 2,
                "pairing_nondegenerate": k * (k + 1) // 2,
                "centrality": k * (k + 1) // 2, "cardy": k * k}
    for name, count in expected.items():
        if _count(statuses, name) != count:
            return f"{_count(statuses, name)} '{name}' records, expected {count}"
    return None


def _pipeline(truth, report, statuses):
    extras = report["extras"]
    cycles = [m["cycles"] for m in extras["monodromy"]]
    if cycles != ["(1 2)", "()"]:
        return f"monodromy {cycles}, expected ['(1 2)', '()']"
    if extras["sheets"] != 2:
        return f"{extras['sheets']} sheets, expected 2"
    ranks = [b["rank"] for b in extras["bundles"]]
    if ranks != [truth["label_dim"]]:
        return f"bundle ranks {ranks}, expected [{truth['label_dim']}]"
    return None


def _transitions(bundle):
    return {tuple(key.split(",")): _matrix(m) for key, m in bundle["g"].items()}


def _iso(truth, report, statuses):
    if ("witness_found", "pass") not in statuses:
        return "no passing 'witness_found' record"
    u = {cid: _matrix(m) for cid, m in report["extras"]["witness"].items()}
    for (i, j), e_ij in truth["e"].items():
        if not _close(u[i] @ e_ij @ np.linalg.inv(u[j]), truth["f"][(i, j)]):
            return f"witness fails to conjugate edge {(i, j)}"
    return None


def _azumaya(truth, report, statuses):
    result = report["extras"]["result"]
    if result["rank"] != truth["rank"]:
        return f"extracted rank {result['rank']}, expected {truth['rank']}"
    for key, g in _transitions(result).items():
        if not _close(np.kron(g, np.linalg.inv(g).T), truth["a"][key]):
            return f"END of the extracted bundle differs on edge {key}"
    return None


def _hom(truth, report, statuses):
    result = report["extras"]["result"]
    for key, h in _transitions(result).items():
        want = np.kron(truth["f"][key], np.linalg.inv(truth["e"][key]).T)
        if not _close(h, want):
            return f"Hom transition differs on edge {key}"
    twists = [_complex(z) for z in result["lambda"].values()]
    if not _close(twists, np.ones(len(twists))):
        return "Hom of isomorphic bundles has a nontrivial twist"
    return None


def _validate(truth, report, statuses):
    if _count(statuses, "triangle_relation") != truth["triangles"]:
        return "one 'triangle_relation' record per triangle expected"
    return None


_VALUE_CHECKS = {
    "semisimple": _semisimple,
    "branes": _branes,
    "pipeline": _pipeline,
    "iso": _iso,
    "azumaya": _azumaya,
    "hom": _hom,
    "validate": _validate,
}
