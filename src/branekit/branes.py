"""Brane categories over a semisimple closed sector.

The closed sector is a list of nonzero weights w_i = theta(e_i) with chosen
square roots lambda_i.  A brane label is a vector of nonnegative dimensions
d(a, i); the morphism space E_ab is the direct sum of Hom(C^d(a,i), C^d(b,i)),
stored as one matrix block per index i with shape d(b,i) x d(a,i).

Structure maps, in the idempotent frame:

    theta_a(sigma) = sum_i lambda_i tr(sigma_i)
    iota_a(X)_i    = X_i * Id
    iota^a(sigma)  = sum_i tr(sigma_i) / lambda_i * e_i
    pi_b^a(sigma)  = sum_nu psi_nu sigma psi^nu      (dual bases of E_ab, E_ba)

The check_* functions verify, over a list of labels (`check_adjoint`) or of
label pairs (the others; one pair is a list of one), the Cardy condition
pi_b^a = iota_b o iota^a (in operator form: per index i, K_i = sum_nu
psi_nu (x) psi^nu must equal delta_yz delta_xw / lambda_i), sewing symmetry,
centrality, and the adjoint relation, each in one call and one report with
its records in list order.

The sewing, centrality and adjoint checks of one pair (or label) draw their
8 trials from `default_rng(seed)` as a per-trial loop of `random_hom` would,
so every check's draws are a prefix of one stream: a check reads them from
one standard_normal call by index arithmetic (`_draws`), and its block
products run as one batched matrix product per group of pairs that share an
index i and a block shape.  The pairing never couples two indices, so a
pair's matrix-unit pairing Gram matrix is block diagonal.  The Cardy check
builds one Gram block per distinct index and block shape, stacked per shape,
and reads each K_i off the stack's batched inverse; `unit_pairing_sv` takes
the extreme singular values over a pair's blocks from one batched SVD per
shape.  `branekit branes` computes them once per unordered label pair and
hands them to both the sewing and the Cardy check.
"""

import copy
import math

import numpy as np

from dataclasses import dataclass

from .errors import (
    DegeneratePairing,
    DegenerateWeight,
    LabelMismatch,
    NotEndomorphism,
    NotIdempotent,
    ShapeMismatch,
)
from .frobenius import FrobeniusAlgebra
from .report import CheckReport
from .tolerances import DEFAULT_TOL, Tolerance, singular_values, sv_ratio, worst

_TRIALS = 8  # random pairs drawn by the sewing, centrality and adjoint checks
# Entries a check stacks at a time (its draws and products, or its Gram
# matrices): longer lists of pairs run in slices, so memory does not grow
# with the number of labels.  One pair may exceed it.
_BATCH = 1 << 18


class ClosedSector:
    """Idempotent weights w_i and square roots lambda_i with lambda_i^2 = w_i."""

    def __init__(self, weights, roots=None, tol: Tolerance = DEFAULT_TOL):
        w = np.asarray(weights, dtype=complex)
        if w.ndim != 1 or w.size < 1:
            raise ShapeMismatch("weights must be a nonempty vector")
        if not tol.passes("idempotent_weight", np.min(np.abs(w))):
            raise DegenerateWeight("closed sector has a (numerically) zero weight")
        if roots is None:
            r = np.sqrt(w)  # principal branch; any branch gives the same checks
        else:
            r = np.asarray(roots, dtype=complex)
            if r.shape != w.shape:
                raise ShapeMismatch("roots must match weights in length")
            res = float(np.max(np.abs(r * r - w)))
            if not tol.passes("square_roots", res, 1.0 + float(np.max(np.abs(w)))):
                raise ShapeMismatch(f"roots are not square roots of the weights (residual {res:.3e})")
        self.n = w.shape[0]
        self.weights = w
        self.roots = r

    @classmethod
    def from_algebra(cls, algebra: FrobeniusAlgebra, tol: Tolerance = DEFAULT_TOL,
                     seed: int = 0, roots=None) -> "ClosedSector":
        basis = algebra.idempotent_basis(tol, seed)
        return cls(basis.weights, roots=roots, tol=tol)

    def flip_root(self, i: int) -> "ClosedSector":
        """Same sector with the other branch of sqrt(w_i).  The weights were
        validated under this sector's tolerance and are kept as they are."""
        flipped = copy.copy(self)
        flipped.roots = self.roots.copy()
        flipped.roots[i] = -flipped.roots[i]
        return flipped

    def __repr__(self):
        return f"ClosedSector(n={self.n})"


@dataclass(frozen=True)
class BraneLabel:
    """Dimension vector d(a, i); the all-zero label is the additive unit."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise ShapeMismatch("label dimensions must be nonnegative")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)


def zero_label(n: int) -> BraneLabel:
    return BraneLabel((0,) * n)


@dataclass(frozen=True)
class ClosedState:
    """Coefficients in the idempotent basis of the closed algebra."""

    coords: np.ndarray

    def __mul__(self, other: "ClosedState") -> "ClosedState":
        return ClosedState(self.coords * other.coords)


def unit_state(n: int) -> ClosedState:
    return ClosedState(np.ones(n, dtype=complex))


def basis_state(n: int, i: int) -> ClosedState:
    coords = np.zeros(n, dtype=complex)
    coords[i] = 1.0
    return ClosedState(coords)


def _block_shapes(a: BraneLabel, b: BraneLabel) -> list:
    """Block shapes (d(b,i), d(a,i)) of E_ab."""
    if a.n != b.n:
        raise LabelMismatch("source and target live over different sectors")
    return list(zip(b.dims, a.dims))


class HomSpace:
    """Element of E_ab: one d(b,i) x d(a,i) block per index i."""

    def __init__(self, source: BraneLabel, target: BraneLabel, blocks):
        shapes = _block_shapes(source, target)
        blocks = [np.asarray(m, dtype=complex) for m in blocks]
        if len(blocks) != source.n:
            raise ShapeMismatch(f"expected {source.n} blocks, got {len(blocks)}")
        for i, (m, want) in enumerate(zip(blocks, shapes)):
            if m.shape != want:
                raise ShapeMismatch(f"block {i} has shape {m.shape}, expected {want}")
        self.source = source
        self.target = target
        self.blocks = blocks

    @property
    def is_endo(self) -> bool:
        return self.source == self.target

    def add(self, other: "HomSpace") -> "HomSpace":
        if self.source != other.source or self.target != other.target:
            raise LabelMismatch("cannot add morphisms with different labels")
        return HomSpace(self.source, self.target,
                        [x + y for x, y in zip(self.blocks, other.blocks)])

    def sub(self, other: "HomSpace") -> "HomSpace":
        return self.add(other.scale(-1.0))

    def scale(self, z) -> "HomSpace":
        return HomSpace(self.source, self.target, [z * m for m in self.blocks])

    def norm(self) -> float:
        """Largest entry modulus over the blocks: 0 when they have none, NaN when any is NaN."""
        return worst([worst(np.abs(m)) for m in self.blocks])

    def __repr__(self):
        return f"HomSpace({self.source.dims} -> {self.target.dims})"


def zero_hom(a: BraneLabel, b: BraneLabel) -> HomSpace:
    return HomSpace(a, b, [np.zeros(shape, dtype=complex) for shape in _block_shapes(a, b)])


def identity_hom(a: BraneLabel) -> HomSpace:
    return HomSpace(a, a, [np.eye(d, dtype=complex) for d in a.dims])


def compose(sigma: HomSpace, tau: HomSpace) -> HomSpace:
    """Diagrammatic composition: sigma in E_ab then tau in E_bc, block i of
    the result is tau_i @ sigma_i."""
    if sigma.target != tau.source:
        raise LabelMismatch(f"cannot compose {sigma} with {tau}")
    return HomSpace(sigma.source, tau.target,
                    [t @ s for s, t in zip(sigma.blocks, tau.blocks)])


def _carve(rows: np.ndarray, shapes: list) -> list:
    """Consecutive column ranges of `rows`, one (len(rows), *shape) stack per shape."""
    stacks, k = [], 0
    for shape in shapes:
        size = math.prod(shape)
        stacks.append(rows[:, k:k + size].reshape((len(rows),) + tuple(shape)))
        k += size
    return stacks


# -- random draws -----------------------------------------------------------
# One check draws its trials as rows of one standard_normal array: per trial,
# each block's real part, then its imaginary part, then the next block.

def _layout(sizes: np.ndarray) -> tuple:
    """Row widths (P,) and block offsets (P, K) of the draws of P checks whose
    K blocks have `sizes` (P, K) entries."""
    return 2 * sizes.sum(axis=1), 2 * (np.cumsum(sizes, axis=1) - sizes)


def _draws(z: np.ndarray, widths: np.ndarray, offsets: np.ndarray, shape,
           trials: int = _TRIALS) -> np.ndarray:
    """Complex (P, trials, *shape) stack: for check p and trial t, the block
    whose real part starts at z[t * widths[p] + offsets[p]] and whose
    imaginary part follows it.  Gathered contiguous, as a per-pair stack is:
    numpy's matmul rounds strided operands differently."""
    size = math.prod(shape)
    real = (np.arange(trials) * widths[:, None] + offsets[:, None])[:, :, None] + np.arange(size)
    return (z[real] + 1j * z[real + size]).reshape(real.shape[:2] + tuple(shape))


def _stream(seed: int, sizes: np.ndarray):
    """draw(members, k, shape): block k, of that shape, of the checks
    `members` among P checks with block sizes `sizes` (P, K).  Each check's
    draws are the prefix of `default_rng(seed)`'s stream that a fresh
    generator gives it, so one standard_normal call, as long as the widest
    check needs, serves them all."""
    widths, offsets = _layout(sizes)
    z = np.random.default_rng(seed).standard_normal(_TRIALS * int(widths.max(initial=0)))
    return lambda members, k, shape: _draws(z, widths[members], offsets[members, k], shape)


def random_hom(rng, a: BraneLabel, b: BraneLabel) -> HomSpace:
    """Random element of E_ab: the one-trial case of the checks' draws."""
    shapes = _block_shapes(a, b)
    widths, offsets = _layout(np.array([[math.prod(s) for s in shapes]]))
    z = rng.standard_normal(int(widths[0]))
    return HomSpace(a, b, [_draws(z, widths, offsets[:, k], s, 1)[0, 0]
                           for k, s in enumerate(shapes)])


# -- structure maps ---------------------------------------------------------

def _theta(sec: ClosedSector, tr: np.ndarray) -> np.ndarray:
    """theta_a of endomorphisms given by their block traces tr (..., n).  The
    products are spelled out and the sum runs in index order, so each value
    rounds as the Python scalar sum of lambda_i tr(sigma_i) does (numpy's
    array complex product fuses multiply-adds)."""
    r = sec.roots
    terms = (tr.real * r.real - tr.imag * r.imag) + 1j * (tr.real * r.imag + tr.imag * r.real)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def theta_a(sec: ClosedSector, sigma: HomSpace) -> complex:
    """theta_a(sigma) = sum_i lambda_i tr(sigma_i)."""
    _require_endo(sigma)
    return complex(_theta(sec, np.array([np.trace(m) for m in sigma.blocks])))


def iota_a(sec: ClosedSector, a: BraneLabel, x: ClosedState) -> HomSpace:
    """Closed-to-open map: block i is x_i times the identity."""
    return HomSpace(a, a, [z * np.eye(d, dtype=complex) for z, d in zip(x.coords, a.dims)])


def iota_upper_a(sec: ClosedSector, sigma: HomSpace) -> ClosedState:
    """Open-to-closed map: coordinate i is tr(sigma_i) / lambda_i."""
    _require_endo(sigma)
    return ClosedState(np.array([np.trace(m) / r for r, m in zip(sec.roots, sigma.blocks)]))


def pi_formula(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
               sigma: HomSpace) -> HomSpace:
    """Double-twist map in closed local form: block i of the output is
    (tr(sigma_i) / lambda_i) Id over b."""
    _require_endo(sigma)
    return iota_a(sec, b, iota_upper_a(sec, sigma))


def hom_dimension(a: BraneLabel, b: BraneLabel) -> int:
    """dim E_ab = sum_i d(a,i) d(b,i)."""
    return sum(db * da for db, da in _block_shapes(a, b))


def _unit_stacks(a: BraneLabel, b: BraneLabel) -> tuple:
    """Matrix units of E_ab and of E_ba, one (m, rows, cols) stack per index i
    each, as views of one m x m identity: unit nu is row nu of the identity on
    the concatenated flattened blocks, so the units are enumerated block-major
    then row-major."""
    eye = np.eye(hom_dimension(a, b), dtype=complex)
    return _carve(eye, _block_shapes(a, b)), _carve(eye, _block_shapes(b, a))


def matrix_unit_basis(a: BraneLabel, b: BraneLabel) -> list:
    """Basis of E_ab: matrix units enumerated block-major then row-major."""
    stacks, _ = _unit_stacks(a, b)
    return [HomSpace(a, b, [s[nu] for s in stacks]) for nu in range(hom_dimension(a, b))]


def _stacks(homs: list) -> list:
    """Per-index stacks (len(homs), d(b,i), d(a,i)) of a nonempty list of morphisms."""
    return [np.stack(blocks) for blocks in zip(*(h.blocks for h in homs))]


def _contract_basis(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n x[n, ...] y[n, ...] as one matrix product."""
    return (x.reshape(len(x), -1).T @ y.reshape(len(y), -1)).reshape(x.shape[1:] + y.shape[1:])


def pairing_gram(sec: ClosedSector, stacks_ab: list, stacks_ba: list) -> np.ndarray:
    """gram[nu, mu] = theta_a(psi_nu . phi_mu) for bases of E_ab and E_ba
    given as per-index stacks."""
    m = len(stacks_ab[0])
    gram = np.zeros((m, m), dtype=complex)
    for root, p, q in zip(sec.roots, stacks_ab, stacks_ba):
        if p.shape[1] * p.shape[2]:
            # sum_xy p[nu, y, x] q[mu, x, y] as one matrix product, scaled in
            # place: one (m, m) temporary per block, not two
            prod = p.reshape(m, -1) @ q.transpose(0, 2, 1).reshape(m, -1).T
            prod *= root
            gram += prod
    return gram


def _dual_coefficients(grams: np.ndarray) -> np.ndarray:
    """Inverse of a pairing Gram matrix, or of each of a stack: column nu
    holds the coordinates of the dual psi^nu in the paired basis of E_ba.
    The one source of the duals of `dual_basis` and `check_cardy`."""
    return np.linalg.inv(grams)


def _require_nondegenerate(ratio, tol: Tolerance):
    """DegeneratePairing for the first of the sv ratios `ratio` (one, or an
    array in check order) that fails `pairing_nondegenerate`."""
    ratio = np.atleast_1d(ratio)
    bad = np.flatnonzero(~tol.passes("pairing_nondegenerate", ratio))
    if bad.size:
        raise DegeneratePairing(f"pairing Gram matrix is singular (sv ratio {ratio[bad[0]]:.3e})")


def dual_basis(sec: ClosedSector, basis_ab: list, basis_ba: list,
               tol: Tolerance = DEFAULT_TOL) -> list:
    """Basis of E_ba dual to basis_ab under the pairing, by inverting the
    pairing Gram matrix: block i of dual nu is sum_r coeff[r, nu] phi_r[i]."""
    m = len(basis_ab)
    if m != len(basis_ba):
        raise DegeneratePairing("spaces E_ab and E_ba have different dimensions")
    if m == 0:
        return []
    stacks_ba = _stacks(basis_ba)
    gram = pairing_gram(sec, _stacks(basis_ab), stacks_ba)
    _require_nondegenerate(sv_ratio(singular_values(gram)), tol)
    coeff = _dual_coefficients(gram)
    duals = [_contract_basis(coeff, q) for q in stacks_ba]
    b_label, a_label = basis_ba[0].source, basis_ba[0].target
    return [HomSpace(b_label, a_label, [s[nu] for s in duals]) for nu in range(m)]


def basis_sum(basis_ab: list, duals: list, sigma: HomSpace) -> HomSpace:
    """sum_nu psi_nu sigma psi^nu: block i contracts sigma_i with the twist
    operator K_i[x,y,z,w] = sum_nu psi_nu[x,y] psi^nu[z,w]."""
    b = basis_ab[0].target
    twists = map(_contract_basis, _stacks(basis_ab), _stacks(duals))
    return HomSpace(b, b, [np.einsum("xyzw,yz->xw", k, s) for k, s in zip(twists, sigma.blocks)])


def pi_basis(sec: ClosedSector, a: BraneLabel, b: BraneLabel, sigma: HomSpace,
             basis_ab: list | None = None, tol: Tolerance = DEFAULT_TOL) -> HomSpace:
    """Double-twist map by the basis sum: sum_nu psi_nu sigma psi^nu with
    {psi_nu} any basis of E_ab and {psi^nu} its dual in E_ba.

    Independent of the choice of basis; with the default matrix units the
    pairing Gram matrix is diagonal.
    """
    _require_endo(sigma)
    if basis_ab is None:
        basis_ab = matrix_unit_basis(a, b)
    if not basis_ab:
        return zero_hom(b, b)
    basis_ba = matrix_unit_basis(b, a)
    duals = dual_basis(sec, basis_ab, basis_ba, tol)
    return basis_sum(basis_ab, duals, sigma)


def _require_endo(sigma: HomSpace):
    if not sigma.is_endo:
        raise NotEndomorphism(f"{sigma} is not an endomorphism")


# -- verification suite -----------------------------------------------------

def _dims(sec: ClosedSector, labels: list) -> np.ndarray:
    """(len(labels), n) array of the labels' dimensions."""
    for label in labels:
        if label.n != sec.n:
            raise LabelMismatch(f"label {label.dims} does not live over {sec.n} indices")
    return np.array([label.dims for label in labels], dtype=int).reshape(len(labels), sec.n)


def _pair_dims(sec: ClosedSector, pairs: list) -> tuple:
    """Dimensions (P, n) of the sources and of the targets of label pairs."""
    return _dims(sec, [a for a, _ in pairs]), _dims(sec, [b for _, b in pairs])


def _slices(costs: np.ndarray):
    """Consecutive slices of rows whose `costs` sum to at most _BATCH entries
    (a row above it alone): a check builds its stacks one slice at a time."""
    start, total = 0, 0
    for k, cost in enumerate(costs.tolist()):
        if total + cost > _BATCH and k > start:
            yield slice(start, k)
            start, total = k, 0
        total += cost
    yield slice(start, len(costs))


def _trial_entries(sec: ClosedSector, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries a random-trial check stacks per pair of dims rows, cols (P, n):
    a bound on its draws, products and closed states."""
    return _TRIALS * (sec.n + ((rows + cols) ** 2).sum(axis=1))


def _groups(rows: np.ndarray, cols: np.ndarray):
    """(i, (r, c), members) for each index i and each block shape (r, c) =
    (rows[p, i], cols[p, i]) of positive size: the checks p that share it, as
    an index array in check order."""
    for i in range(rows.shape[1]):
        members = {}
        for p, shape in enumerate(zip(rows[:, i].tolist(), cols[:, i].tolist())):
            members.setdefault(shape, []).append(p)
        for (r, c), ps in members.items():
            if r * c:
                yield i, (r, c), np.array(ps)


def _block_grams(sec: ClosedSector, da: np.ndarray, db: np.ndarray):
    """Pairing Gram matrices of the matrix units of E_ab and E_ba, one block
    at a time, for the pairs with dims da, db (P, n).  The pairing never
    couples two indices, so a pair's Gram matrix is block diagonal, and its
    block i depends only on lambda_i and the shape (r, c) = (d(b,i), d(a,i)):
    one Gram per distinct (i, r, c), stacked per shape in slices of at most
    _BATCH entries.  Yields (index, members, partner, grams): the index i of
    each stacked block, the pairs that hold it (index arrays in check
    order), partner[nu] the unit of E_ba at the transposed position of unit
    nu of E_ab, and the (g, rc, rc) Grams.  Unit (x, y), at x c + y, pairs
    with its partner at y r + x only, to lambda_i, and is entered as
    `pairing_gram`'s sum enters it: zero plus the root."""
    by_shape = {}
    for i, shape, members in _groups(db, da):
        by_shape.setdefault(shape, []).append((i, members))
    for (r, c), blocks in by_shape.items():
        x, y = np.divmod(np.arange(r * c), c)
        partner = y * r + x
        for rows in _slices(np.full(len(blocks), (r * c) ** 2)):
            index = np.array([i for i, _ in blocks[rows]])
            grams = np.zeros((len(index), r * c, r * c), dtype=complex)
            grams[:, np.arange(r * c), partner] += sec.roots[index, None]
            yield index, [ps for _, ps in blocks[rows]], partner, grams


def unit_pairing_sv(sec: ClosedSector, pairs: list) -> list:
    """Largest and smallest singular value of the pairing of the matrix units
    of E_ab and E_ba for each pair (a, b), the same for (b, a); empty for a
    zero morphism space.  The extremes over the pair's Gram blocks, from one
    batched SVD per block shape."""
    da, db = _pair_dims(sec, pairs)
    top, low = np.zeros(len(pairs)), np.full(len(pairs), np.inf)
    for _, members, _, grams in _block_grams(sec, da, db):
        for ps, s in zip(members, singular_values(grams)):
            top[ps], low[ps] = np.maximum(top[ps], s[0]), np.minimum(low[ps], s[-1])
    return [np.array(v) if m else np.zeros(0)
            for v, m in zip(zip(top, low), (da * db).any(axis=1).tolist())]


def _scalar_residual(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """max |lhs - rhs| and the scale max(1, |lhs|, |rhs|) over the last axis,
    by the scalar `abs` (hypot), which numpy's array `abs` of complex misses
    by an ulp."""
    lhs_m, rhs_m, diff_m = (np.hypot(z.real, z.imag) for z in (lhs, rhs, lhs - rhs))
    return np.max(diff_m, axis=-1), np.maximum(1.0, np.maximum(np.max(lhs_m, axis=-1),
                                                               np.max(rhs_m, axis=-1)))


def check_cardy(sec: ClosedSector, pairs: list, tol: Tolerance = DEFAULT_TOL,
                sv: list | None = None) -> CheckReport:
    """max |K_i - delta_yz delta_xw / lambda_i| over the twist operators
    K_i = sum_nu psi_nu (x) psi^nu of the matrix units and their duals, for
    each pair (a, b): the max over matrix units sigma of E_aa of
    || pi_b^a(sigma) - iota_b(iota^a(sigma)) ||.  `sv` is the
    `unit_pairing_sv` of the pairs when the caller has it; the first pair
    whose pairing is singular raises DegeneratePairing."""
    sv = unit_pairing_sv(sec, pairs) if sv is None else sv
    _require_nondegenerate(sv_ratio(np.array([(s[0], s[-1]) for s in sv if s.size])
                                    .reshape(-1, 2)), tol)
    residual = np.zeros(len(pairs))
    for index, members, partner, grams in _block_grams(sec, *_pair_dims(sec, pairs)):
        # K_i[x, y, z, w] is coeff[mu, nu] for unit nu at (x, y) and unit mu of
        # E_ba at (z, w) of block i; its closed form is 1 / lambda_i where mu
        # is nu's partner, and zero elsewhere in the block
        diff = _dual_coefficients(grams)
        diff[:, partner, np.arange(len(partner))] -= (1.0 / sec.roots)[index, None]
        for ps, w in zip(members, np.abs(diff).max(axis=(1, 2))):
            residual[ps] = np.maximum(residual[ps], w)
    report = CheckReport()
    for (a, b), w in zip(pairs, residual.tolist()):
        report.check("cardy", w, tol, location=_loc(a, b))
    return report


def _sewing(sec: ClosedSector, da: np.ndarray, db: np.ndarray, seed: int) -> tuple:
    """Sewing residual and scale of each pair with dims da, db (P, n)."""
    n = sec.n
    draw = _stream(seed, np.concatenate([da * db, da * db], axis=1))  # E_ab's blocks, E_ba's
    tr_aa = np.zeros((len(da), _TRIALS, n), dtype=complex)  # block traces of phi . psi
    tr_bb = np.zeros_like(tr_aa)                             # and of psi . phi
    for i, (r, c), members in _groups(db, da):
        phi, psi = draw(members, i, (r, c)), draw(members, n + i, (c, r))
        tr_aa[members, :, i] = np.trace(psi @ phi, axis1=2, axis2=3)
        tr_bb[members, :, i] = np.trace(phi @ psi, axis1=2, axis2=3)
    return _scalar_residual(_theta(sec, tr_aa), _theta(sec, tr_bb))


def check_sewing(sec: ClosedSector, pairs: list, tol: Tolerance = DEFAULT_TOL,
                 seed: int = 0, sv: list | None = None) -> CheckReport:
    """Sewing symmetry theta_a(phi.psi) = theta_b(psi.phi) on random pairs,
    plus invertibility of the pairing Gram matrix between matrix-unit bases
    (`sv`: the `unit_pairing_sv` of the pairs when the caller has it): two
    records per pair (a, b)."""
    da, db = _pair_dims(sec, pairs)
    sv = unit_pairing_sv(sec, pairs) if sv is None else sv
    report = CheckReport()
    for rows in _slices(_trial_entries(sec, da, db)):
        residual, scale = _sewing(sec, da[rows], db[rows], seed)
        for (a, b), w, s, v in zip(pairs[rows], residual.tolist(), scale.tolist(), sv[rows]):
            report.check("sewing_symmetry", w, tol, s, location=_loc(a, b))
            if v.size:
                report.check("pairing_nondegenerate", float(v[-1]), tol, v[0],
                             location=_loc(a, b),
                             detail="smallest singular value of the pairing Gram matrix")
            else:
                report.add("pairing_nondegenerate", True, 0.0, location=_loc(a, b),
                           detail="zero morphism space; vacuous")
    return report


def _centrality(sec: ClosedSector, da: np.ndarray, db: np.ndarray, seed: int) -> np.ndarray:
    """Centrality residual of each pair with dims da, db (P, n)."""
    n = sec.n
    draw = _stream(seed, np.concatenate([np.full((len(da), 1), n), da * db], axis=1))
    x = draw(np.arange(len(da)), 0, (n,))
    residual = np.zeros(len(da))
    for i, (r, c), members in _groups(db, da):
        sigma, xi = draw(members, 1 + i, (r, c)), x[members, :, i, None, None]
        diff = sigma @ (xi * np.eye(c, dtype=complex)) - (xi * np.eye(r, dtype=complex)) @ sigma
        residual[members] = np.maximum(residual[members], np.abs(diff).max(axis=(1, 2, 3)))
    return residual


def check_centrality(sec: ClosedSector, pairs: list, tol: Tolerance = DEFAULT_TOL,
                     seed: int = 0) -> CheckReport:
    """sigma . iota_a(X) = iota_b(X) . sigma over random X and sigma in E_ab,
    for each pair (a, b)."""
    da, db = _pair_dims(sec, pairs)
    report = CheckReport()
    for rows in _slices(_trial_entries(sec, da, db)):
        for (a, b), w in zip(pairs[rows], _centrality(sec, da[rows], db[rows], seed).tolist()):
            report.check("centrality", w, tol, location=_loc(a, b))
    return report


def _adjoint(sec: ClosedSector, d: np.ndarray, seed: int) -> tuple:
    """Adjoint residual and scale of each label with dims d (P, n)."""
    n = sec.n
    draw = _stream(seed, np.concatenate([d * d, np.full((len(d), 1), n)], axis=1))
    x = draw(np.arange(len(d)), n, (n,))
    tr = np.zeros((len(d), _TRIALS, n), dtype=complex)  # block traces of sigma
    tr_x = np.zeros_like(tr)                             # and of sigma . iota_a(X)
    for i, (r, _), members in _groups(d, d):
        sigma = draw(members, i, (r, r))
        tr[members, :, i] = np.trace(sigma, axis1=2, axis2=3)
        xa = x[members, :, i, None, None] * np.eye(r, dtype=complex)
        tr_x[members, :, i] = np.trace(sigma @ xa, axis1=2, axis2=3)
    # theta on the closed sector, sum_i x_i w_i: one dot per trial
    lhs = ((tr / sec.roots * x)[..., None, :] @ sec.weights[:, None])[..., 0, 0]
    return _scalar_residual(lhs, _theta(sec, tr_x))


def check_adjoint(sec: ClosedSector, labels: list, tol: Tolerance = DEFAULT_TOL,
                  seed: int = 0) -> CheckReport:
    """theta(iota^a(sigma) X) = theta_a(sigma iota_a(X)) on random pairs, for
    each label a."""
    d = _dims(sec, labels)
    report = CheckReport()
    for rows in _slices(_trial_entries(sec, d, d)):
        worst, scale = _adjoint(sec, d[rows], seed)
        for a, w, s in zip(labels[rows], worst.tolist(), scale.tolist()):
            report.check("adjoint", w, tol, s, location=f"a={a.dims}")
    return report


# -- enlargements -----------------------------------------------------------

def direct_sum_label(a: BraneLabel, b: BraneLabel) -> BraneLabel:
    if a.n != b.n:
        raise LabelMismatch("labels live over different sectors")
    return BraneLabel(tuple(x + y for x, y in zip(a.dims, b.dims)))


def embed_endomorphism(a: BraneLabel, b: BraneLabel, s11: HomSpace,
                       s22: HomSpace) -> HomSpace:
    """diag(s11, s22) as an endomorphism of a (+) b."""
    ab = direct_sum_label(a, b)
    blocks = []
    for i in range(a.n):
        m = np.zeros((ab.dims[i], ab.dims[i]), dtype=complex)
        da = a.dims[i]
        m[:da, :da] = s11.blocks[i]
        m[da:, da:] = s22.blocks[i]
        blocks.append(m)
    return HomSpace(ab, ab, blocks)


def split_endomorphism(a: BraneLabel, b: BraneLabel, sigma: HomSpace):
    """Corner blocks (s11: a->a, s21: b->a, s12: a->b, s22: b->b) of an
    endomorphism of a (+) b, with the a-summand indexed first."""
    _require_endo(sigma)
    s11, s21, s12, s22 = [], [], [], []
    for i in range(a.n):
        da = a.dims[i]
        m = sigma.blocks[i]
        s11.append(m[:da, :da])
        s21.append(m[:da, da:])
        s12.append(m[da:, :da])
        s22.append(m[da:, da:])
    return (HomSpace(a, a, s11), HomSpace(b, a, s21),
            HomSpace(a, b, s12), HomSpace(b, b, s22))


def tensor_label(m, a: BraneLabel) -> BraneLabel:
    """Action of a free module of rank m (an integer, or one integer per
    index i): dims scale as m * d(a, i)."""
    if np.isscalar(m):
        if m < 0 or int(m) != m:
            raise ShapeMismatch("tensor multiplicity must be a nonnegative integer")
        return BraneLabel(tuple(int(m) * d for d in a.dims))
    ranks = tuple(int(x) for x in m)
    if len(ranks) != a.n or any(x < 0 for x in ranks):
        raise ShapeMismatch("rank vector must have one nonnegative entry per index")
    return BraneLabel(tuple(r * d for r, d in zip(ranks, a.dims)))


def split_idempotent(sec: ClosedSector, a: BraneLabel, sigma: HomSpace,
                     tol: Tolerance = DEFAULT_TOL):
    """Kernel and image labels of an idempotent sigma: d(I,i) = rank(sigma_i),
    d(K,i) = d(a,i) - rank(sigma_i)."""
    _require_endo(sigma)
    res = compose(sigma, sigma).sub(sigma).norm()
    if not tol.passes("idempotent_law", res, 1.0 + sigma.norm() ** 2):
        raise NotIdempotent(f"sigma^2 - sigma has norm {res:.3e}")
    image = []
    for m in sigma.blocks:
        if m.size == 0:
            image.append(0)
            continue
        sv = singular_values(m)
        image.append(int(np.sum(tol.passes("image_rank", sv, max(1.0, sv[0])))))
    kernel = tuple(d - r for d, r in zip(a.dims, image))
    return BraneLabel(kernel), BraneLabel(tuple(image))


def generator_labels(sec: ClosedSector) -> list:
    """The labels xi_i supported on a single index: d(xi_i, j) = delta_ij.
    Their morphism spaces satisfy dim E_{xi_i xi_i} = 1 and
    dim E_{xi_i xi_j} = 0 for i != j."""
    return [BraneLabel(tuple(int(i == j) for j in range(sec.n))) for i in range(sec.n)]


def endomorphism_algebra(sec: ClosedSector, a: BraneLabel) -> FrobeniusAlgebra:
    """E_aa as an abstract algebra on the matrix-unit basis, with trace
    theta_a.  Commutative (and then a valid FrobeniusAlgebra input) exactly
    when every d(a, i) <= 1."""
    m = hom_dimension(a, a)
    if m == 0:
        raise ShapeMismatch("the zero label has no endomorphism algebra")
    units, _ = _unit_stacks(a, a)
    # c[i, j] holds the coordinates of the product u_i u_j, block by block
    c = np.concatenate([np.einsum("iab,jbc->ijac", p, p).reshape(m, m, -1) for p in units], axis=2)
    unit = np.concatenate([np.eye(d, dtype=complex).ravel() for d in a.dims])
    traces = np.stack([np.trace(p, axis1=1, axis2=2) for p in units], axis=1)
    return FrobeniusAlgebra(c, unit, _theta(sec, traces))


def _loc(a: BraneLabel, b: BraneLabel) -> str:
    return f"a={a.dims},b={b.dims}"
