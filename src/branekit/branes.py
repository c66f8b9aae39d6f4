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

`theta_stack`, `iota_stack` and `iota_upper_stack` map stacks of T elements
(a morphism stack is one (T, d(b,i), d(a,i)) array per index i, a closed-state
stack one (T, n) array); `theta_a`, `iota_a` and `iota_upper_a` are their
T = 1 case, as `random_hom` is of the checks' draws.

The check_* functions verify the Cardy condition pi_b^a = iota_b o iota^a (in
operator form: per index i, K_i = sum_nu psi_nu (x) psi^nu must equal
delta_yz delta_xw / lambda_i), sewing symmetry, centrality, and the adjoint
relation.  The sewing, centrality and adjoint checks each make one
standard_normal call, carved into (trials, rows, cols) stacks in the order a
per-trial loop of `random_hom` draws them, and compose by batched matrix
products.  The Cardy and sewing checks take the singular values of the
matrix-unit pairing (`unit_pairing_sv`) from the caller when it has them:
`branekit branes` computes them once per label pair in `cmd_branes`.
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
from .tolerances import DEFAULT_TOL, Tolerance, singular_values, sv_ratio

_TRIALS = 8  # random pairs drawn by the sewing, centrality and adjoint checks


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


def _max_abs(arrays) -> float:
    """Largest modulus over the entries of some arrays; 0 when they have none."""
    return max((float(np.max(np.abs(m))) for m in arrays if m.size), default=0.0)


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
        return _max_abs(self.blocks)

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


def _draw_trials(rng, shapes: list, trials: int = _TRIALS) -> list:
    """One complex (trials, *shape) stack per shape from one standard_normal
    call: per trial, each shape's real part, then its imaginary part, then the
    next shape.  Contiguous: numpy rounds complex products of strided operands
    differently."""
    draws = rng.standard_normal(trials * 2 * sum(math.prod(s) for s in shapes)).reshape(trials, -1)
    return [p[:, 0] + 1j * p[:, 1] for p in _carve(draws, [(2,) + tuple(s) for s in shapes])]


def random_hom(rng, a: BraneLabel, b: BraneLabel) -> HomSpace:
    """Random element of E_ab: the one-trial case of the checks' draws."""
    return HomSpace(a, b, [s[0] for s in _draw_trials(rng, _block_shapes(a, b), 1)])


# -- structure maps ---------------------------------------------------------

def theta_stack(sec: ClosedSector, blocks: list) -> np.ndarray:
    """theta_a of each endomorphism of a stack.  The products are spelled out
    and the sum runs in index order, so each value rounds as the Python
    scalar sum of lambda_i tr(sigma_i) does (numpy's array complex product
    fuses multiply-adds)."""
    tr = np.stack([np.trace(m, axis1=1, axis2=2) for m in blocks], axis=1)
    r = sec.roots
    terms = (tr.real * r.real - tr.imag * r.imag) + 1j * (tr.real * r.imag + tr.imag * r.real)
    return np.add.accumulate(terms, axis=1)[:, -1]


def iota_stack(x: np.ndarray, dims) -> list:
    """iota_a of each closed state x[t] of a (T, n) stack: block i is x[t, i] Id."""
    return [x[:, i, None, None] * np.eye(d, dtype=complex) for i, d in enumerate(dims)]


def iota_upper_stack(sec: ClosedSector, blocks: list) -> np.ndarray:
    """iota^a of each endomorphism of a stack: coordinate i is tr(sigma_i) / lambda_i."""
    return np.stack([np.trace(m, axis1=1, axis2=2) / r for r, m in zip(sec.roots, blocks)], axis=1)


def theta_a(sec: ClosedSector, sigma: HomSpace) -> complex:
    """theta_a(sigma) = sum_i lambda_i tr(sigma_i)."""
    _require_endo(sigma)
    return complex(theta_stack(sec, _stacks([sigma]))[0])


def iota_a(sec: ClosedSector, a: BraneLabel, x: ClosedState) -> HomSpace:
    """Closed-to-open map: block i is x_i times the identity."""
    return HomSpace(a, a, [m[0] for m in iota_stack(x.coords[None], a.dims)])


def iota_upper_a(sec: ClosedSector, sigma: HomSpace) -> ClosedState:
    """Open-to-closed map: coordinate i is tr(sigma_i) / lambda_i."""
    _require_endo(sigma)
    return ClosedState(iota_upper_stack(sec, _stacks([sigma]))[0])


def pi_formula(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
               sigma: HomSpace) -> HomSpace:
    """Double-twist map in closed local form: block i of the output is
    (tr(sigma_i) / lambda_i) Id over b."""
    _require_endo(sigma)
    return iota_a(sec, b, iota_upper_a(sec, sigma))


def hom_dimension(a: BraneLabel, b: BraneLabel) -> int:
    """dim E_ab = sum_i d(a,i) d(b,i)."""
    return sum(db * da for db, da in _block_shapes(a, b))


def unit_stacks(a: BraneLabel, b: BraneLabel) -> tuple:
    """Matrix units of E_ab and of E_ba, one (m, rows, cols) stack per index i
    each, as views of one m x m identity: unit nu is row nu of the identity on
    the concatenated flattened blocks, so the units are enumerated block-major
    then row-major."""
    eye = np.eye(hom_dimension(a, b), dtype=complex)
    return _carve(eye, _block_shapes(a, b)), _carve(eye, _block_shapes(b, a))


def matrix_unit_basis(a: BraneLabel, b: BraneLabel) -> list:
    """Basis of E_ab: matrix units enumerated block-major then row-major."""
    stacks, _ = unit_stacks(a, b)
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


def unit_pairing_sv(sec: ClosedSector, a: BraneLabel, b: BraneLabel) -> np.ndarray:
    """Singular values, largest first, of the pairing of the matrix units of
    E_ab and E_ba; the same for (b, a), whose Gram matrix is the transpose."""
    return singular_values(pairing_gram(sec, *unit_stacks(a, b)))


def dual_stacks(gram: np.ndarray, stacks_ba: list, tol: Tolerance = DEFAULT_TOL,
                sv: np.ndarray | None = None) -> list:
    """Per-index stacks of the basis of E_ba dual to the basis of E_ab: block
    i of dual nu is sum_r coeff[r, nu] phi_r[i], where {phi_r} is the paired
    basis of E_ba in `stacks_ba` and coeff the inverse Gram matrix.  `sv` are
    the Gram matrix's singular values when the caller has them."""
    ratio = sv_ratio(singular_values(gram) if sv is None else sv)
    if not tol.passes("pairing_nondegenerate", ratio):
        raise DegeneratePairing(f"pairing Gram matrix is singular (sv ratio {ratio:.3e})")
    coeff = np.linalg.inv(gram)
    return [_contract_basis(coeff, q) for q in stacks_ba]


def dual_basis(sec: ClosedSector, basis_ab: list, basis_ba: list,
               tol: Tolerance = DEFAULT_TOL) -> list:
    """Basis of E_ba dual to basis_ab under the pairing, by inverting the
    pairing Gram matrix."""
    m = len(basis_ab)
    if m != len(basis_ba):
        raise DegeneratePairing("spaces E_ab and E_ba have different dimensions")
    if m == 0:
        return []
    stacks_ba = _stacks(basis_ba)
    duals = dual_stacks(pairing_gram(sec, _stacks(basis_ab), stacks_ba), stacks_ba, tol)
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

def _scalar_residual(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """max |lhs - rhs| and the scale max(1, |lhs|, |rhs|), by the scalar
    `abs` (hypot), which numpy's array `abs` of complex misses by an ulp."""
    lhs_m, rhs_m, diff_m = (np.hypot(z.real, z.imag) for z in (lhs, rhs, lhs - rhs))
    return float(np.max(diff_m)), max(1.0, float(np.max(lhs_m)), float(np.max(rhs_m)))


def check_cardy(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                tol: Tolerance = DEFAULT_TOL, sv: np.ndarray | None = None) -> CheckReport:
    """max |K_i - delta_yz delta_xw / lambda_i| over the twist operators
    K_i = sum_nu psi_nu (x) psi^nu of the matrix units and their duals: the max
    over matrix units sigma of E_aa of || pi_b^a(sigma) - iota_b(iota^a(sigma)) ||.
    `sv` is the `unit_pairing_sv` of (a, b) when the caller has it."""
    report = CheckReport()
    worst = 0.0
    if hom_dimension(a, b):
        units_ab, units_ba = unit_stacks(a, b)
        duals = dual_stacks(pairing_gram(sec, units_ab, units_ba), units_ba, tol, sv)
        for p, d, root in zip(units_ab, duals, sec.roots):
            if p.size:
                k = _contract_basis(p, d)
                target = np.einsum("yz,xw->xyzw", np.eye(k.shape[1]), np.eye(k.shape[0])) / root
                worst = max(worst, float(np.max(np.abs(k - target))))
    report.check("cardy", worst, tol, location=_loc(a, b))
    return report


def check_sewing(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                 tol: Tolerance = DEFAULT_TOL, seed: int = 0,
                 sv: np.ndarray | None = None) -> CheckReport:
    """Sewing symmetry theta_a(phi.psi) = theta_b(psi.phi) on random pairs,
    plus invertibility of the pairing Gram matrix between matrix-unit bases
    (`sv`: the `unit_pairing_sv` of (a, b) when the caller has it)."""
    report = CheckReport()
    draws = _draw_trials(np.random.default_rng(seed), _block_shapes(a, b) + _block_shapes(b, a))
    phi, psi = draws[:a.n], draws[a.n:]
    worst, scale = _scalar_residual(
        theta_stack(sec, [q @ p for p, q in zip(phi, psi)]),   # theta_a(phi . psi) on E_aa
        theta_stack(sec, [p @ q for p, q in zip(phi, psi)]))   # theta_b(psi . phi) on E_bb
    report.check("sewing_symmetry", worst, tol, scale, location=_loc(a, b))

    sv = unit_pairing_sv(sec, a, b) if sv is None else sv
    if sv.size:
        report.check("pairing_nondegenerate", float(sv[-1]), tol, sv[0], location=_loc(a, b),
                     detail="smallest singular value of the pairing Gram matrix")
    else:
        report.add("pairing_nondegenerate", True, 0.0, location=_loc(a, b),
                   detail="zero morphism space; vacuous")
    return report


def check_centrality(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                     tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """sigma . iota_a(X) = iota_b(X) . sigma over random X and sigma in E_ab."""
    report = CheckReport()
    x, *sigma = _draw_trials(np.random.default_rng(seed), [(sec.n,)] + _block_shapes(a, b))
    worst = _max_abs(s @ xa - xb @ s
                     for s, xa, xb in zip(sigma, iota_stack(x, a.dims), iota_stack(x, b.dims)))
    report.check("centrality", worst, tol, location=_loc(a, b))
    return report


def check_adjoint(sec: ClosedSector, a: BraneLabel,
                  tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """theta(iota^a(sigma) X) = theta_a(sigma iota_a(X)) on random pairs."""
    report = CheckReport()
    *sigma, x = _draw_trials(np.random.default_rng(seed), _block_shapes(a, a) + [(sec.n,)])
    # theta on the closed sector, sum_i x_i w_i: one dot per trial
    lhs = ((iota_upper_stack(sec, sigma) * x)[:, None, :] @ sec.weights[:, None])[:, 0, 0]
    rhs = theta_stack(sec, [m @ xa for m, xa in zip(sigma, iota_stack(x, a.dims))])
    worst, scale = _scalar_residual(lhs, rhs)
    report.check("adjoint", worst, tol, scale, location=f"a={a.dims}")
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
    units, _ = unit_stacks(a, a)
    # c[i, j] holds the coordinates of the product u_i u_j, block by block
    c = np.concatenate([np.einsum("iab,jbc->ijac", p, p).reshape(m, m, -1) for p in units], axis=2)
    unit = np.concatenate([np.eye(d, dtype=complex).ravel() for d in a.dims])
    return FrobeniusAlgebra(c, unit, theta_stack(sec, units))


def _loc(a: BraneLabel, b: BraneLabel) -> str:
    return f"a={a.dims},b={b.dims}"
