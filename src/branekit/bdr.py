"""2-vector-bundle cocycles of permuted-diagonal type.

An edge (a, b) of the cover carries a matrix of vector bundles, recorded at
isomorphism-class level as a nonnegative integer rank matrix R and a matrix
of line classes L (entries of a free abelian group on user-declared
generators, written additively; absent where the rank is zero).

A cocycle assembled from a spectral cover places the line class of sheet i
at position (i, u(i)) for the edge permutation u, so R is the permutation
matrix of u.  The cocycle laws are: det R = +-1 per edge, R_ab R_bg = R_ag
with line classes adding along the unique contributing path on triangles,
and agreement of both bracketings on quadruples.
"""

import numpy as np

from dataclasses import dataclass

from .errors import InputError, MissingLine, ShapeMismatch
from .family import Nerve, SpectralCoverGraph
from .report import CheckReport


@dataclass(frozen=True)
class LineClass:
    """Element of the free abelian group Z^generators (tensor product of
    line-bundle classes is addition of exponent vectors)."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    def __add__(self, other: "LineClass") -> "LineClass":
        if len(self.exponents) != len(other.exponents):
            raise ShapeMismatch("line classes live in different groups")
        return LineClass(tuple(x + y for x, y in zip(self.exponents, other.exponents)))

    def __neg__(self) -> "LineClass":
        return LineClass(tuple(-x for x in self.exponents))

    @classmethod
    def zero(cls, generators: int) -> "LineClass":
        return cls((0,) * generators)


@dataclass
class EdgeData:
    rank: np.ndarray        # (n, n) nonnegative integers
    lines: list             # n x n nested list of LineClass | None


class BDRCocycle:
    """Rank and twist matrices per ordered edge."""

    def __init__(self, n: int, generators: int, edges: dict):
        self.n = int(n)
        self.generators = int(generators)
        self.edges = {}
        for key, data in edges.items():
            rank = np.asarray(data.rank, dtype=np.int64)
            if rank.shape != (self.n, self.n) or np.any(rank < 0):
                raise ShapeMismatch(f"edge {key}: rank matrix must be {self.n}x{self.n} "
                                    "nonnegative integers")
            lines = data.lines
            for i in range(self.n):
                for j in range(self.n):
                    has_line = lines[i][j] is not None
                    if rank[i, j] > 0 and not has_line:
                        raise MissingLine(f"edge {key}: missing line class at ({i},{j})")
            self.edges[tuple(key)] = EdgeData(rank, lines)

    def edge(self, a, b) -> EdgeData:
        """Data of edge (a, b).  When only (b, a) is stored and its rank matrix
        is a permutation matrix, its strict inverse: the transposed rank matrix
        with negated line classes."""
        if (a, b) in self.edges:
            return self.edges[(a, b)]
        back = self.edges.get((b, a))
        if back is None or not is_permutation_matrix(back.rank):
            raise InputError(f"cocycle has no data for edge {(a, b)}")
        return EdgeData(back.rank.T.copy(), [[None if back.lines[j][i] is None else -back.lines[j][i]
                                              for j in range(self.n)] for i in range(self.n)])


def is_permutation_matrix(rank) -> bool:
    """Strict invertibility of a rank matrix in the 2-vector calculus: a
    nonnegative integer matrix has a nonnegative integer two-sided inverse
    iff it is a permutation matrix.  This is stronger than `check_det`'s
    det = +-1 ([[1, 1], [k-1, k]] has det 1 and no such inverse)."""
    rank = np.asarray(rank)
    return bool(np.all((rank == 0) | (rank == 1)) and np.all(rank.sum(axis=0) == 1)
                and np.all(rank.sum(axis=1) == 1))


def assemble(cover: SpectralCoverGraph, lines: dict, generators: int) -> BDRCocycle:
    """Cocycle of a spectral cover: for each edge with permutation u, the rank
    matrix is the permutation matrix with 1 at (i, u(i)) and the line class of
    sheet i sits at that position.

    `lines` maps (edge, sheet_index) -> LineClass and must cover every pair.
    """
    n = cover.n
    edges = {}
    for key, u in cover.transitions.items():
        rank = np.zeros((n, n), dtype=np.int64)
        lmat = [[None] * n for _ in range(n)]
        for i in range(n):
            if (key, i) not in lines:
                raise MissingLine(f"no line class for edge {key}, sheet {i}")
            rank[i, u[i]] = 1
            lmat[i][u[i]] = lines[(key, i)]
        edges[key] = EdgeData(rank, lmat)
    return BDRCocycle(n, generators, edges)


def trivial_lines(cover: SpectralCoverGraph, generators: int = 1) -> dict:
    """All-zero line classes for every (edge, sheet)."""
    zero = LineClass.zero(generators)
    return {(key, i): zero for key in cover.transitions for i in range(cover.n)}


def int_det(matrix) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def check_det(c: BDRCocycle) -> CheckReport:
    """Every edge's rank matrix must have determinant +1 or -1."""
    report = CheckReport()
    for key in sorted(c.edges):
        d = int_det(c.edges[key].rank)
        report.add("det_pm_one", d in (1, -1), float(abs(d) - 1),
                   location=f"edge {key}", detail=f"det={d}")
    if not c.edges:
        report.add("det_pm_one", True, 0.0, detail="no edges; vacuous")
    return report


def _compose_edges(e1: EdgeData, e2: EdgeData, n: int):
    """Iso-class product of two edge matrices: ranks multiply as integer
    matrices; an entry's line class is defined when all contributing paths
    agree.  Returns (EdgeData of the product, conflicting entries)."""
    rank = e1.rank @ e2.rank
    lines = [[None] * n for _ in range(n)]
    conflicts = []
    for i in range(n):
        for k in range(n):
            paths = []
            for j in range(n):
                if e1.rank[i, j] > 0 and e2.rank[j, k] > 0:
                    paths.append(e1.lines[i][j] + e2.lines[j][k])
            if not paths:
                continue
            if any(p != paths[0] for p in paths[1:]):
                conflicts.append((i, k))
                continue
            lines[i][k] = paths[0]
    return EdgeData(rank, lines), conflicts


def check_triple(c: BDRCocycle, nerve: Nerve) -> CheckReport:
    """R_ab R_bg = R_ag exactly, and line classes add along triangles:
    L_i^{ab} + L_{u(i)}^{bg} = L_i^{ag} in the free abelian group."""
    report = CheckReport()
    for (a, b, g) in nerve.triangles:
        loc = f"triangle {(a, b, g)}"
        try:
            e_ab, e_bg, e_ag = c.edge(a, b), c.edge(b, g), c.edge(a, g)
        except InputError as exc:
            report.add("triple_rank", False, None, location=loc, detail=str(exc))
            continue
        composed, conflicts = _compose_edges(e_ab, e_bg, c.n)
        rank_ok = np.array_equal(composed.rank, e_ag.rank)
        report.add("triple_rank", rank_ok,
                   float(np.max(np.abs(composed.rank - e_ag.rank))), location=loc)
        bad = []
        for i in range(c.n):
            for k in range(c.n):
                if e_ag.rank[i, k] > 0 and composed.lines[i][k] != e_ag.lines[i][k]:
                    bad.append((i, k))
        bad = bad + conflicts
        report.add("triple_lines", not bad, float(len(bad)), location=loc,
                   detail=f"mismatched entries {bad[:4]}" if bad else None)
    if not nerve.triangles:
        report.add("triple", True, 0.0, detail="no triangles; vacuous")
    return report


def check_quadruple(c: BDRCocycle, nerve: Nerve) -> CheckReport:
    """Both bracketings of the three-edge composite around a quadruple give
    the same rank matrix and the same summed line classes, and they agree
    with the direct edge data."""
    report = CheckReport()
    for (a, b, g, d) in nerve.quadruples:
        loc = f"quadruple {(a, b, g, d)}"
        try:
            e_ab, e_bg, e_gd = c.edge(a, b), c.edge(b, g), c.edge(g, d)
            e_ad = c.edge(a, d)
        except InputError as exc:
            report.add("quadruple", False, None, location=loc, detail=str(exc))
            continue
        left, conf1 = _compose_edges(_compose_edges(e_ab, e_bg, c.n)[0], e_gd, c.n)
        right, conf2 = _compose_edges(e_ab, _compose_edges(e_bg, e_gd, c.n)[0], c.n)
        agree = (np.array_equal(left.rank, right.rank)
                 and np.array_equal(left.rank, e_ad.rank) and not conf1 and not conf2)
        bad = []
        for i in range(c.n):
            for k in range(c.n):
                want = e_ad.lines[i][k]
                if e_ad.rank[i, k] > 0 and (left.lines[i][k] != want or right.lines[i][k] != want):
                    bad.append((i, k))
        report.add("quadruple", agree and not bad, float(len(bad)), location=loc,
                   detail=f"mismatched entries {bad[:4]}" if bad else None)
    if not nerve.quadruples:
        report.add("quadruple", True, 0.0, detail="no quadruples; vacuous")
    return report
