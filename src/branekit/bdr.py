"""2-vector-bundle cocycles of permuted-diagonal type.

An edge (a, b) of the cover carries a matrix of vector bundles, recorded at
isomorphism-class level as a nonnegative integer rank matrix R and a matrix
of line classes L (exponent vectors in the free abelian group on G
user-declared generators, written additively; read only where the rank is
positive).  A cocycle holds both as integer stacks over its edges, read
through `family.EdgeIndex`; every law below is checked on whole stacks.

A cocycle assembled from a spectral cover places the line class of sheet i
at position (i, u(i)) for the edge permutation u, so R is the permutation
matrix of u.  The cocycle laws are: det R = +-1 per edge, R_ab R_bg = R_ag
with line classes adding along the contributing paths on triangles, and
agreement of both bracketings on quadruples.
"""

import numpy as np

from .errors import ShapeMismatch
from .family import EdgeIndex, Nerve, SpectralCoverGraph, blocks
from .report import CheckReport

# Input ranks and line exponents are at most this in magnitude, so the sum of
# three line classes (a quadruple's composite) is exact in int64.
MAX_ENTRY = 2 ** 61


class BDRCocycle:
    """Rank and line-class stacks over ordered chart pairs of a nerve.

    `rank` is an (E, n, n) stack of nonnegative integers and `lines` an
    (E, n, n, G) integer stack, row e of both the data of the pair
    `keys[e]`; a line cell is read only where its rank is positive.
    """

    def __init__(self, nerve: Nerve, keys, rank, lines):
        self.nerve = nerve
        self.keys = [tuple(key) for key in keys]
        self.rank = np.asarray(rank, dtype=np.int64)
        self.lines = np.asarray(lines, dtype=np.int64)
        count = len(self.keys)
        if (self.rank.ndim != 3 or self.lines.shape[:3] != self.rank.shape
                or self.rank.shape[:2] != (count, self.rank.shape[2]) or self.lines.ndim != 4):
            raise ShapeMismatch(f"rank and lines have shapes {self.rank.shape} and "
                                f"{self.lines.shape}, expected ({count},n,n) and ({count},n,n,G)")
        self.n, self.generators = self.rank.shape[2], self.lines.shape[3]
        self.index = EdgeIndex(nerve, self.keys, "edge", (self.rank < 0).any(axis=(1, 2)).tolist(),
                               lambda key: ShapeMismatch(f"edge {key}: rank matrix must be "
                                                         f"{self.n}x{self.n} nonnegative integers"))

    def edges(self, pairs) -> tuple:
        """(rank, lines, absent) over the ordered pairs (a, b) of `pairs`, as
        (N, n, n), (N, n, n, G) and (N,) stacks: the stored row, else the
        strict inverse of a stored (b, a) whose rank is a permutation matrix
        (the transposed rank, with negated lines).  `absent` marks every
        other pair, whose rows are zero."""
        rows, flip = self.index.rows(pairs)
        rows[flip] = np.where(is_permutation_matrix(self.rank[rows[flip]]), rows[flip], -1)
        flip &= rows >= 0
        absent = rows < 0
        rank = np.zeros((len(pairs), self.n, self.n), dtype=np.int64)
        lines = np.zeros(rank.shape + (self.generators,), dtype=np.int64)
        rank[~absent], lines[~absent] = self.rank[rows[~absent]], self.lines[rows[~absent]]
        rank[flip] = rank[flip].swapaxes(1, 2)
        lines[flip] = -lines[flip].swapaxes(1, 2)
        return rank, lines, absent


def is_permutation_matrix(rank):
    """Strict invertibility of a rank matrix in the 2-vector calculus: a
    nonnegative integer matrix has a nonnegative integer two-sided inverse
    iff it is a permutation matrix.  This is stronger than `check_det`'s
    det = +-1 ([[1, 1], [k-1, k]] has det 1 and no such inverse).  One bool
    for a matrix, an array for a stack of them."""
    rank = np.asarray(rank)
    ok = (np.all((rank == 0) | (rank == 1), axis=(-2, -1))
          & np.all(rank.sum(axis=-2) == 1, axis=-1) & np.all(rank.sum(axis=-1) == 1, axis=-1))
    return ok if ok.ndim else bool(ok)


def assemble(cover: SpectralCoverGraph, lines) -> BDRCocycle:
    """Cocycle of a spectral cover: for each edge with permutation u, the rank
    matrix is the permutation matrix with 1 at (i, u(i)) and the line class of
    sheet i sits at that position.

    `lines` is an (E, n, G) integer stack, row e the line classes of the
    sheets of the e-th edge of `cover.keys`.
    """
    perms, (count, n) = cover.transitions, cover.transitions.shape
    lines = np.asarray(lines, dtype=np.int64)
    if lines.ndim != 3 or lines.shape[:2] != (count, n):
        raise ShapeMismatch(f"lines have shape {lines.shape}, expected ({count},{n},G)")
    rank = (perms[:, :, None] == np.arange(n)).astype(np.int64)
    full = np.zeros(rank.shape + lines.shape[2:], dtype=np.int64)
    full[np.arange(count)[:, None], np.arange(n), perms] = lines
    return BDRCocycle(cover.nerve, cover.keys, rank, full)


def int_det(matrix):
    """Exact integer determinants of an (n, n) matrix or an (E, n, n) stack,
    by fraction-free (Bareiss) elimination on Python integers: one int, or
    an (E,) array of them."""
    m = np.array(matrix, dtype=object)
    single = m.ndim == 2
    m = m[None] if single else m
    rows, n = np.arange(len(m)), m.shape[-1]
    sign, prev = np.ones(len(m), dtype=object), np.ones(len(m), dtype=object)
    for k in range(n - 1):
        pivot = k + (m[:, k:, k] != 0).argmax(axis=1)  # the first nonzero row at or below k
        m[rows, k], m[rows, pivot] = m[rows, pivot], m[rows, k]
        sign = np.where(pivot != k, -sign, sign)
        # a zero pivot zeroes the trailing block for good, so the det reads 0
        m[:, k + 1:, k + 1:] = ((m[:, k + 1:, k + 1:] * m[:, k, k, None, None]
                                 - m[:, k + 1:, k, None] * m[:, k, None, k + 1:])
                                // prev[:, None, None])
        prev = np.where(m[:, k, k] == 0, 1, m[:, k, k])
    det = sign * m[:, n - 1, n - 1]
    return det[0] if single else det


def check_det(c: BDRCocycle) -> CheckReport:
    """Every edge's rank matrix must have determinant +1 or -1."""
    report = CheckReport()
    order = sorted(range(len(c.keys)), key=c.keys.__getitem__)
    for e, d in zip(order, int_det(c.rank[order]).tolist()):
        report.add("det_pm_one", d in (1, -1), float(abs(d) - 1),
                   location=f"edge {c.keys[e]}", detail=f"det={d}")
    if not c.keys:
        report.add("det_pm_one", True, 0.0, detail="no edges; vacuous")
    return report


def _sides(c: BDRCocycle, simplices, sides) -> tuple:
    """Edge data (rank, lines, defined) of each side (i, j) of every simplex,
    one triple of stacks per side, and per simplex the message naming its
    first side with no data (None when every side has data)."""
    pairs = [(x[i], x[j]) for i, j in sides for x in simplices]
    rank, lines, absent = c.edges(pairs)
    k, s = len(sides), len(simplices)
    rank, lines = rank.reshape(k, s, c.n, c.n), lines.reshape(k, s, c.n, c.n, c.generators)
    absent = absent.reshape(k, s)
    missing = [f"cocycle has no data for edge {pairs[f * s + x]}" if absent[f, x] else None
               for x, f in enumerate(absent.argmax(axis=0).tolist())]
    defined = np.ones((s, c.n, c.n), dtype=bool)
    return [(r, l, defined) for r, l in zip(rank, lines)], missing


def _compose(first, second) -> tuple:
    """Iso-class product of two stacks of edge data (rank, lines, defined):
    ranks multiply as integer matrices, and entry (i, k) of the product is
    defined when it has a path i -> j -> k of positive rank, every such path
    runs through defined entries, and all of them give the same sum of line
    classes (the entry's class).  Every other entry with a path is a
    conflict.  Returns ((rank, lines, defined), conflict)."""
    (r1, l1, d1), (r2, l2, d2) = first, second
    rank = r1.astype(object) @ r2  # Python integers: a product of ranks never wraps
    lines = np.empty(l1.shape, dtype=np.int64)
    defined = np.empty(rank.shape, dtype=bool)
    n, g = l1.shape[2], l1.shape[3]
    for b in blocks(len(rank), 8 * n ** 3 * (g + 1)):
        path = (r1[b, :, :, None] > 0) & (r2[b, None] > 0)  # (N, i, j, k)
        sums = l1[b, :, :, None] + l2[b, None]  # (N, i, j, k, G)
        ref = np.take_along_axis(sums, path.argmax(axis=2)[:, :, None, :, None], axis=2)
        good = d1[b, :, :, None] & d2[b, None] & np.all(sums == ref, axis=-1)
        defined[b] = (rank[b] > 0) & np.all(good | ~path, axis=2)
        lines[b] = ref[:, :, 0]
    return (rank, lines, defined), (rank > 0) & ~defined


def check_triple(c: BDRCocycle) -> CheckReport:
    """R_ab R_bg = R_ag exactly, and line classes add along triangles:
    L_i^{ab} + L_{u(i)}^{bg} = L_i^{ag} in the free abelian group."""
    report = CheckReport()
    triangles = c.nerve.triangles
    (ab, bg, (r_ag, l_ag, _)), missing = _sides(c, triangles, ((0, 1), (1, 2), (0, 2)))
    (rank, lines, defined), conflict = _compose(ab, bg)
    rank_gap = np.abs(rank - r_ag).max(axis=(1, 2), initial=0).tolist()
    wrong = (r_ag > 0) & ~(defined & np.all(lines == l_ag, axis=-1))
    for t, tri in enumerate(triangles):
        loc = f"triangle {tri}"
        if missing[t]:
            report.add("triple_rank", False, None, location=loc, detail=missing[t])
            continue
        report.add("triple_rank", rank_gap[t] == 0, float(rank_gap[t]), location=loc)
        bad = [tuple(p) for p in np.argwhere(wrong[t]).tolist() + np.argwhere(conflict[t]).tolist()]
        report.add("triple_lines", not bad, float(len(bad)), location=loc,
                   detail=f"mismatched entries {bad[:4]}" if bad else None)
    if not triangles:
        report.add("triple", True, 0.0, detail="no triangles; vacuous")
    return report


def check_quadruple(c: BDRCocycle) -> CheckReport:
    """Both bracketings of the three-edge composite around a quadruple give
    the same rank matrix and the same summed line classes, and they agree
    with the direct edge data."""
    report = CheckReport()
    quadruples = c.nerve.quadruples
    (ab, bg, gd, (r_ad, l_ad, _)), missing = _sides(c, quadruples, ((0, 1), (1, 2), (2, 3), (0, 3)))
    (r_left, l_left, d_left), c_left = _compose(_compose(ab, bg)[0], gd)
    (r_right, l_right, d_right), c_right = _compose(ab, _compose(bg, gd)[0])
    agree = (np.all((r_left == r_right) & (r_left == r_ad), axis=(1, 2))
             & ~(c_left | c_right).any(axis=(1, 2))).tolist()
    wrong = (r_ad > 0) & ~(d_left & d_right & np.all(l_left == l_ad, axis=-1)
                           & np.all(l_right == l_ad, axis=-1))
    for q, quad in enumerate(quadruples):
        loc = f"quadruple {quad}"
        if missing[q]:
            report.add("quadruple", False, None, location=loc, detail=missing[q])
            continue
        bad = [tuple(p) for p in np.argwhere(wrong[q]).tolist()]
        report.add("quadruple", agree[q] and not bad, float(len(bad)), location=loc,
                   detail=f"mismatched entries {bad[:4]}" if bad else None)
    if not quadruples:
        report.add("quadruple", True, 0.0, detail="no quadruples; vacuous")
    return report
