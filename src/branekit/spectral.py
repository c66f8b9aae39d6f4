"""Brane labels over a spectral cover and their twisted-bundle classes.

A label assigns the rank d(a, i) to sheet i of each chart; along an edge
with permutation u the ranks must agree sheetwise (d on sheet i over chart a
equals d on sheet u(i) over chart b).  On a connected cover this forces a
single constant rank.  The endomorphism algebra of such a label is a bundle
of d x d matrix algebras over the cover, and the label maps to a twisted
bundle E on the sheet nerve of the cover with END(E) isomorphic to it.

Labels are classified by the multiset of their sheet ranks (the isomorphism
class of the blockwise endomorphism algebra); their bundles are compared
modulo twisted-line tensoring, which is exactly isomorphism of the END
algebra bundles.

The sheet nerve is lifted from the base nerve by index arithmetic: chart
a#i shares chart a's checked sample array and each lifted simplex its base
simplex's shared rows, so no sample is converted or compared again.  The
transitions, one (E, n) stack read through `SpectralCoverGraph.perms`, come
from the cover's stacked tracking (`family.transition_permutations`).  The
algebra bundle is glued by the identity on every sheet-nerve edge, so each
component's twisted bundle is the trivial one, stated rather than extracted
(`twisted.azumaya_extract` is for a gluing given as data).
"""

import numpy as np

from dataclasses import dataclass

from .errors import InconsistentDims, InputError, NoWitnessFound
from .family import Chart, Nerve, SpectralCoverGraph
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance
from .twisted import TwistedBundle, end, same_nerve, solve_iso


@dataclass
class LiftedLabel:
    """Sheet ranks of a label pulled up to the cover: ranks[(chart, sheet)],
    plus the connected components of the sheet graph with their (constant)
    rank."""

    cover: SpectralCoverGraph
    ranks: dict
    components: list  # list of (frozenset of (chart, sheet), rank)

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def constant_rank(self) -> int:
        if not self.connected:
            raise InputError("cover is not connected; no single constant rank")
        return self.components[0][1]


def lift_label(dims_per_chart: dict, cover: SpectralCoverGraph) -> LiftedLabel:
    """Assemble sheet ranks and analyze connectivity.

    `dims_per_chart` maps chart id -> tuple of d(a, i) in that chart's sheet
    order.  Raises InconsistentDims when an edge permutation maps sheets of
    different rank onto each other.
    """
    nerve = cover.nerve
    ranks = {}
    for cid in nerve.chart_order:
        if cid not in dims_per_chart:
            raise InputError(f"no label dims for chart {cid}")
        dims = tuple(int(d) for d in dims_per_chart[cid])
        if len(dims) != cover.n or any(d < 0 for d in dims):
            raise InputError(f"chart {cid}: expected {cover.n} nonnegative sheet ranks")
        for i, d in enumerate(dims):
            ranks[(cid, i)] = d

    adjacency = {node: [] for node in ranks}
    for (a, b), u in zip(cover.keys, cover.transitions.tolist()):
        for i in range(cover.n):
            x, y = (a, i), (b, u[i])
            if ranks[x] != ranks[y]:
                raise InconsistentDims(
                    f"edge {(a, b)}: sheet {i} of {a} has rank {ranks[x]} but maps to "
                    f"sheet {u[i]} of {b} with rank {ranks[y]}")
            adjacency[x].append(y)
            adjacency[y].append(x)

    seen = set()
    components = []
    for node in sorted(ranks):
        if node in seen:
            continue
        stack, comp = [node], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adjacency[cur])
        seen |= comp
        components.append((frozenset(comp), ranks[node]))
    return LiftedLabel(cover, ranks, components)


def sheet_chart_id(cid, sheet: int) -> str:
    return f"{cid}#{sheet}"


def sheet_nerve(cover: SpectralCoverGraph) -> Nerve:
    """The total space of the cover as a nerve: one chart per (base chart,
    sheet), glued along the transition permutations.

    Chart a#i holds chart a's samples, and a lifted simplex (a#i, x#u_ax[i],
    ...) shares exactly the points of its base simplex, so the base nerve's
    checks and shared rows carry over and nothing is checked again."""
    base = cover.nerve
    names = {cid: [sheet_chart_id(cid, i) for i in range(cover.n)] for cid in base.chart_order}
    charts = [Chart(name, base.charts[cid].samples) for cid in base.chart_order
              for name in names[cid]]
    shared = {}

    def lift(simplices):
        """Simplex (a, x...) on sheet i lifts to (a#i, x#u_ax[i]...)."""
        out = []
        perms = iter(cover.perms([(s[0], x) for s in simplices for x in s[1:]]).tolist())
        for s in simplices:
            lifted = list(zip(names[s[0]], *[map(names[x].__getitem__, next(perms))
                                             for x in s[1:]]))
            rows = base.shared.get(s)  # None for a quadruple
            if rows is not None:
                for t in lifted:
                    shared[t] = rows
            out += lifted
        return out

    return Nerve._checked(charts, lift(cover.keys), lift(base.triangles),
                          lift(base.quadruples), shared)


def component_nerve(full: Nerve, component: frozenset) -> Nerve:
    """Restriction of the sheet nerve `full` to one connected component,
    keeping `full`'s shared rows."""
    if len(component) == len(full.charts):
        return full
    keep = {sheet_chart_id(cid, i) for (cid, i) in component}
    charts = [full.charts[cid] for cid in full.chart_order if cid in keep]
    edges, triangles, quadruples = ([s for s in kind if keep.issuperset(s)]
                                    for kind in (full.edges, full.triangles, full.quadruples))
    shared = {s: full.shared[s] for s in edges + triangles}
    return Nerve._checked(charts, edges, triangles, quadruples, shared)


def brane_to_twisted(lifted: LiftedLabel):
    """Twisted bundle E_a on the sheet nerve with END(E_a) isomorphic to the
    label's algebra bundle of d x d matrices, glued by identity conjugation.
    Returns (bundle, report).
    """
    if not lifted.connected:
        raise InputError("cover is not connected; lift each component separately")
    if lifted.constant_rank < 1:
        raise InputError("label has rank 0; no endomorphism bundle")
    return brane_to_twisted_components(lifted)[0]


def brane_to_twisted_components(lifted: LiftedLabel) -> list:
    """One (bundle, report) per connected component of the cover with
    positive rank, in component order; a connected cover gives one.

    Identity gluing gives the trivial twisted bundle, so it is stated, not
    extracted: rank d on the component's sheet nerve, g = I on each sorted
    edge and twist 1 on each triangle, reported as one `bundle_trivial` record."""
    full = sheet_nerve(lifted.cover)
    out = []
    for n, (component, rank) in enumerate(lifted.components):
        if rank < 1:
            continue
        nerve_c = component_nerve(full, component)
        edges = sorted(nerve_c.edges)
        g = np.broadcast_to(np.eye(rank, dtype=complex), (len(edges), rank, rank))
        report = CheckReport()
        report.add("bundle_trivial", True, None, location=f"component {n}",
                   detail=f"rank {rank} on {len(nerve_c.charts)} sheet charts: "
                          "identity gluing, twist 1")
        out.append((TwistedBundle(nerve_c, rank, edges, g, np.ones(len(nerve_c.triangles))),
                    report))
    return out


@dataclass
class ClassificationReport:
    groups: list          # list of dicts: label_class, members, bundle_ranks
    checks: CheckReport

    def to_dict(self):
        return {"groups": self.groups, **self.checks.to_dict()}


def phi_classify(labels: list, bundles: list,
                 tol: Tolerance = DEFAULT_TOL) -> ClassificationReport:
    """Group labels by endomorphism-algebra class and check the brane-to-
    bundle map is injective on classes.

    Two labels are equivalent iff their blockwise endomorphism algebras are
    isomorphic, i.e. their sheet-rank multisets agree.  Each entry of
    `bundles` is the bundle of the matching label (a single TwistedBundle on
    a connected cover, or one per positive-rank component).  Bundle classes
    are compared modulo twisted-line tensoring: component ranks must match
    as multisets, and same-nerve components must have isomorphic END
    algebras (the spanning-tree witness search; components on distinct
    nerves are compared by rank alone).
    """
    if len(labels) != len(bundles):
        raise InputError("labels and bundles must come in matched lists")
    tuples = [_as_bundle_tuple(b) for b in bundles]
    group_map = {}
    for idx, lab in enumerate(labels):
        first_chart = lab.cover.nerve.chart_order[0]
        key = tuple(sorted(lab.ranks[(first_chart, i)] for i in range(lab.cover.n)))
        group_map.setdefault(key, []).append(idx)

    checks = CheckReport()
    groups = []
    for key in sorted(group_map):
        members = group_map[key]
        ranks = sorted({r for i in members for r in _ranks(tuples[i])})
        groups.append({"label_class": list(key), "members": members,
                       "bundle_ranks": ranks})
        base = tuples[members[0]]
        for other_idx in members[1:]:
            same = _bundle_tuples_equivalent(base, tuples[other_idx], tol)
            checks.add("class_well_defined", same, None,
                       location=f"label_class={list(key)}",
                       detail=f"members {members[0]} and {other_idx}")
    keys = sorted(group_map)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            ta = tuples[group_map[ka][0]]
            tb = tuples[group_map[kb][0]]
            distinct = not _bundle_tuples_equivalent(ta, tb, tol)
            checks.add("injective_on_classes", distinct, None,
                       location=f"{list(ka)} vs {list(kb)}")
    if len(keys) < 2:
        checks.add("injective_on_classes", True, None,
                   detail="fewer than two classes; vacuous")
    return ClassificationReport(groups, checks)


def _as_bundle_tuple(b) -> tuple:
    if b is None:
        return ()
    if isinstance(b, TwistedBundle):
        return (b,)
    return tuple(b)


def _ranks(t) -> list:
    return [b.rank for b in t]


def _bundle_tuples_equivalent(ta: tuple, tb: tuple, tol: Tolerance) -> bool:
    """Componentwise equivalence modulo line twist, matching by rank."""
    if sorted(_ranks(ta)) != sorted(_ranks(tb)):
        return False
    unmatched = list(tb)
    for a in ta:
        hit = None
        for b in unmatched:
            if b.rank != a.rank:
                continue
            if same_nerve(a, b):
                if _end_isomorphic(a, b, tol):
                    hit = b
                    break
            else:
                hit = b  # distinct components: rank is the available invariant
                break
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


def _end_isomorphic(e: TwistedBundle, f: TwistedBundle, tol: Tolerance) -> bool:
    try:
        solve_iso(end(e), end(f), tol)
    except NoWitnessFound:
        return False
    return True
