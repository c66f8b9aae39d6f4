"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces the public functions of each branekit layer with
wrappers that record a span (calls, self time, calls that raised).  A name a
module re-exports (`branekit.cli` imports most of them) is replaced too,
wherever the same function object is bound, so calls through any module see
the wrapper.  Leaving the `with` block restores every original.

Self time is a span's duration minus the durations of the spans it directly
encloses, so the self times of one job sum to its `cli.main` total.
Inclusive time of a layer is the time inside its outermost spans, other
layers' spans included.
"""

import functools
import importlib
import time

from contextlib import contextmanager

LAYERS = ("cli", "jsonio", "frobenius", "branes", "family", "bdr", "spectral",
          "twisted")

# (module, attribute or Class.method, metric name)
SPANS = [
    ("jsonio", "parse_algebra", "jsonio.parse"),
    ("jsonio", "parse_sector", "jsonio.parse"),
    ("jsonio", "parse_label", "jsonio.parse"),
    ("jsonio", "parse_family", "jsonio.parse"),
    ("jsonio", "parse_nerve", "jsonio.parse"),
    ("jsonio", "parse_bdr", "jsonio.parse"),
    ("jsonio", "parse_twisted", "jsonio.parse"),
    ("frobenius", "FrobeniusAlgebra.validate", "frobenius.validate"),
    ("frobenius", "FrobeniusAlgebra.idempotent_basis", "frobenius.idempotent_basis"),
    ("branes", "check_cardy", "branes.check_cardy"),
    ("branes", "check_sewing", "branes.check_sewing"),
    ("branes", "check_centrality", "branes.check_centrality"),
    ("branes", "check_adjoint", "branes.check_adjoint"),
    ("branes", "dual_basis", "branes.dual_basis"),
    ("branes", "basis_sum", "branes.basis_sum"),
    ("branes", "pairing_gram", "branes.pairing_gram"),
    ("branes", "matrix_unit_basis", "branes.matrix_unit_basis"),
    ("family", "from_potential", "family.from_potential"),
    ("family", "idempotent_frames", "family.idempotent_frames"),
    ("family", "transition_permutations", "family.transition_permutations"),
    ("family", "check_cocycle", "family.check_cocycle"),
    ("family", "monodromy", "family.monodromy"),
    ("bdr", "assemble", "bdr.assemble"),
    ("bdr", "check_det", "bdr.check_det"),
    ("bdr", "check_triple", "bdr.check_triple"),
    ("spectral", "lift_label", "spectral.lift_label"),
    ("spectral", "sheet_nerve", "spectral.sheet_nerve"),
    ("spectral", "brane_to_twisted", "spectral.brane_to_twisted"),
    ("twisted", "validate", "twisted.validate"),
    ("twisted", "hom", "twisted.hom"),
    ("twisted", "solve_iso", "twisted.solve_iso"),
    ("twisted", "verify_iso", "twisted.verify_iso"),
    ("twisted", "azumaya_extract", "twisted.azumaya_extract"),
]
ROOT = "cli.main"
SPAN_NAMES = [ROOT] + list(dict.fromkeys(name for _, _, name in SPANS))

# Spans whose raising is part of normal control flow; their `.failed` count
# is reported.
RAISING = ["cli.main", "jsonio.parse", "frobenius.idempotent_basis",
           "branes.dual_basis", "family.from_potential", "family.idempotent_frames",
           "family.transition_permutations", "spectral.lift_label",
           "twisted.solve_iso", "twisted.azumaya_extract"]

# Count-only hooks: no span, so their time stays in the enclosing span.
COUNTERS = [
    ("frobenius", "FrobeniusAlgebra.multiply", "frobenius.multiply"),
    ("frobenius", "FrobeniusAlgebra.mult_operator", "frobenius.mult_operator"),
    ("poly", "Polynomial.__call__", "poly.evaluations"),
]


def metric_names():
    """Every per-layer metric `Tracer.metrics` reports, in order, with unit
    and direction."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in RAISING:
            out.append((f"{name}.failed", "count", "lower"))
    out += [("frobenius.multiply.calls", "count", "lower"),
            ("frobenius.eig_attempts", "count", "lower"),
            ("frobenius.idempotent_yield", "ratio", "higher"),
            ("poly.evaluations", "count", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.failed = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = {"frobenius.multiply": 0, "frobenius.eig_attempts": 0,
                       "poly.evaluations": 0}
        self.inclusive_s = dict.fromkeys(LAYERS, 0.0)
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack = []  # [span name, time spent in child spans]
        self.last_root_s = 0.0  # duration of the last outermost span

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn):
        stack, depth = self._stack, self._depth
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    self.inclusive_s[layer] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.last_root_s = duration
        return wrapper

    def counter(self, name, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "frobenius.mult_operator":
                # one operator per retry of the eigenvalue step
                if stack and stack[-1][0] == "frobenius.idempotent_basis":
                    counts["frobenius.eig_attempts"] += 1
            else:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    @contextmanager
    def install(self):
        """Wrap every traced function for the duration of the block."""
        modules = [importlib.import_module(f"branekit.{m}") for m in LAYERS + ("poly",)]
        undo = []
        try:
            for module, attr, name in SPANS:
                self._patch(modules, module, attr, self.span(name, _lookup(module, attr)),
                            undo)
            for module, attr, name in COUNTERS:
                self._patch(modules, module, attr,
                            self.counter(name, _lookup(module, attr)), undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @staticmethod
    def _patch(modules, module, attr, wrapper, undo):
        original = _lookup(module, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(importlib.import_module(f"branekit.{module}"), cls_name)
            undo.append((owner, method, original))
            setattr(owner, method, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    # -- results ----------------------------------------------------------------

    def root(self, main):
        """`main` wrapped as the `cli.main` span."""
        return self.span(ROOT, main)

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return out

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric, averaged over `passes` traced passes."""
        attempts = self.counts["frobenius.eig_attempts"]
        bases = (self.calls["frobenius.idempotent_basis"]
                 - self.failed["frobenius.idempotent_basis"])
        values = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = self.calls[name] / passes
            values[f"{name}.self_s"] = self.self_s[name] / passes
            if name in RAISING:
                values[f"{name}.failed"] = self.failed[name] / passes
        values["frobenius.multiply.calls"] = self.counts["frobenius.multiply"] / passes
        values["frobenius.eig_attempts"] = attempts / passes
        values["frobenius.idempotent_yield"] = bases / attempts if attempts else 0.0
        values["poly.evaluations"] = self.counts["poly.evaluations"] / passes
        return values


def _lookup(module, attr):
    obj = importlib.import_module(f"branekit.{module}")
    for part in attr.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj
