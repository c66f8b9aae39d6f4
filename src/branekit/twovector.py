"""Matrix calculus of 2-vector spaces at the level of isomorphism classes.

Objects of rank n are n-tuples of vector spaces, recorded by their dimension
vectors; morphisms are matrices of vector spaces, recorded by nonnegative
integer dimension matrices and composed by integer matrix multiplication.

A dimension matrix is an equivalence iff it is a permutation matrix: a
nonnegative integer matrix with a nonnegative integer two-sided inverse has
exactly one 1 per row and column.  Unimodularity alone is not enough (the
matrices [[1,1],[k-1,k]] all have determinant 1 and no inverse in this
calculus).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .family import invert_perm


def _as_int_matrix(entries):
    m = np.asarray(entries)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2d matrix, got ndim={m.ndim}")
    if not np.issubdtype(m.dtype, np.integer):
        mi = np.rint(m).astype(np.int64)
        if np.max(np.abs(m - mi)) > 0:
            raise ShapeMismatch("entries must be integers")
        m = mi
    if np.any(m < 0):
        raise ShapeMismatch("entries must be nonnegative")
    return m.astype(np.int64)


@dataclass(frozen=True)
class TwoVectorObject:
    """An object of Vect^n: the tuple of dimensions (dim V_1, .., dim V_n)."""

    dims: tuple

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ShapeMismatch("object dimensions must be nonnegative")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


class DimMatrix:
    """Dimension matrix of a morphism Vect^cols -> Vect^rows."""

    def __init__(self, entries):
        self.entries = _as_int_matrix(entries)
        self.rows, self.cols = self.entries.shape

    def apply(self, v: TwoVectorObject) -> TwoVectorObject:
        """result[i] = sum_j entries[i][j] * v[j]  (dim of a sum of tensors)."""
        if self.cols != len(v.dims):
            raise ShapeMismatch(f"matrix has {self.cols} columns, object has rank {len(v.dims)}")
        return TwoVectorObject(tuple(self.entries @ np.array(v.dims, dtype=np.int64)))

    def compose(self, other: "DimMatrix") -> "DimMatrix":
        """self o other, by integer matrix product."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot compose {self.rows}x{self.cols} with "
                                f"{other.rows}x{other.cols}")
        return DimMatrix(self.entries @ other.entries)

    def __eq__(self, other):
        return (isinstance(other, DimMatrix)
                and self.entries.shape == other.entries.shape
                and np.array_equal(self.entries, other.entries))

    def __repr__(self):
        return f"DimMatrix({self.entries.tolist()})"


@dataclass(frozen=True)
class EquivalenceResult:
    ok: bool
    # inverse permutation (certificate[i] = j means row i inverts to column j)
    certificate: tuple | None = None
    obstruction: str | None = None


def identity(n: int) -> DimMatrix:
    return DimMatrix(np.eye(n, dtype=np.int64))


def is_equivalence(a: DimMatrix) -> EquivalenceResult:
    """Decide invertibility in the dimension-matrix calculus.

    Accepts exactly the permutation matrices and returns the inverse
    permutation as certificate.  Rejections name the first constraint of the
    two-sided-inverse system delta_ij that cannot be met by nonnegative
    integers.
    """
    m = a.entries
    if a.rows != a.cols:
        return EquivalenceResult(False, obstruction="NonSquare")
    n = a.rows
    perm = [-1] * n
    for i in range(n):
        row = m[i]
        nz = np.flatnonzero(row)
        if len(nz) != 1 or row[nz[0]] != 1:
            return EquivalenceResult(False, obstruction=_delta_obstruction(m, i))
        perm[i] = int(nz[0])
    if sorted(perm) != list(range(n)):
        dup = next(j for j in range(n) if perm.count(j) > 1)
        return EquivalenceResult(
            False,
            obstruction=f"rows {[i for i in range(n) if perm[i] == dup]} both supported on "
                        f"column {dup}: delta constraints force a zero diagonal")
    return EquivalenceResult(True, certificate=invert_perm(perm))


def certificate_matrix(result: EquivalenceResult, n: int) -> DimMatrix:
    """Permutation matrix of the certificate (the two-sided inverse)."""
    m = np.zeros((n, n), dtype=np.int64)
    for j, i in enumerate(result.certificate):
        m[j, i] = 1
    return DimMatrix(m)


def _delta_obstruction(m, i) -> str:
    """Name the delta_ij equation a non-permutation row i makes unsolvable."""
    n = m.shape[0]
    row = m[i]
    if not row.any():
        return (f"row {i} is zero: sum_k A[{i}][k] B[k][{i}] = 1 "
                f"(delta[{i}][{i}]) has no solution")
    # a row with two supported columns, or an entry >= 2, forces every B
    # column to vanish against it by some off-diagonal delta equation, and
    # then the diagonal equation fails
    j = int(np.flatnonzero(row)[0])
    return (f"row {i} of A is not a unit vector (A[{i}][{j}]={int(row[j])}, "
            f"row sum {int(row.sum())}): the system "
            f"sum_k A[{i}][k] B[k][j] = delta[{i}][j] has no nonnegative "
            f"integer solution")
