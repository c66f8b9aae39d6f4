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

The check_* functions verify the Cardy condition pi_b^a = iota_b o iota^a (in
operator form: per index i, K_i = sum_nu psi_nu (x) psi^nu must equal
delta_yz delta_xw / lambda_i), sewing symmetry, centrality, and the adjoint relation.
"""

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
from .tolerances import DEFAULT_TOL, Tolerance, singular_ratio, singular_values

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
        """Same sector with the other branch of sqrt(w_i)."""
        r = self.roots.copy()
        r[i] = -r[i]
        return ClosedSector(self.weights, roots=r)

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


def closed_trace(sec: ClosedSector, x: ClosedState) -> complex:
    """theta on the closed sector: theta(sum x_i e_i) = sum x_i w_i."""
    return complex(np.dot(x.coords, sec.weights))


class HomSpace:
    """Element of E_ab: one d(b,i) x d(a,i) block per index i."""

    def __init__(self, source: BraneLabel, target: BraneLabel, blocks):
        if source.n != target.n:
            raise LabelMismatch("source and target live over different sectors")
        blocks = [np.asarray(m, dtype=complex) for m in blocks]
        if len(blocks) != source.n:
            raise ShapeMismatch(f"expected {source.n} blocks, got {len(blocks)}")
        for i, m in enumerate(blocks):
            want = (target.dims[i], source.dims[i])
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
        vals = [float(np.max(np.abs(m))) for m in self.blocks if m.size]
        return max(vals) if vals else 0.0

    def __repr__(self):
        return f"HomSpace({self.source.dims} -> {self.target.dims})"


def zero_hom(a: BraneLabel, b: BraneLabel) -> HomSpace:
    return HomSpace(a, b, [np.zeros((db, da), dtype=complex)
                           for da, db in zip(a.dims, b.dims)])


def identity_hom(a: BraneLabel) -> HomSpace:
    return HomSpace(a, a, [np.eye(d, dtype=complex) for d in a.dims])


def compose(sigma: HomSpace, tau: HomSpace) -> HomSpace:
    """Diagrammatic composition: sigma in E_ab then tau in E_bc, block i of
    the result is tau_i @ sigma_i."""
    if sigma.target != tau.source:
        raise LabelMismatch(f"cannot compose {sigma} with {tau}")
    return HomSpace(sigma.source, tau.target,
                    [t @ s for s, t in zip(sigma.blocks, tau.blocks)])


def random_hom(rng, a: BraneLabel, b: BraneLabel) -> HomSpace:
    return HomSpace(a, b, [rng.standard_normal((db, da)) + 1j * rng.standard_normal((db, da))
                           for da, db in zip(a.dims, b.dims)])


# -- structure maps ---------------------------------------------------------

def theta_a(sec: ClosedSector, sigma: HomSpace) -> complex:
    """theta_a(sigma) = sum_i lambda_i tr(sigma_i)."""
    _require_endo(sigma)
    return complex(sum(r * np.trace(m) for r, m in zip(sec.roots, sigma.blocks)))


def iota_a(sec: ClosedSector, a: BraneLabel, x: ClosedState) -> HomSpace:
    """Closed-to-open map: block i is x_i times the identity."""
    return HomSpace(a, a, [x.coords[i] * np.eye(a.dims[i], dtype=complex)
                           for i in range(a.n)])


def iota_upper_a(sec: ClosedSector, sigma: HomSpace) -> ClosedState:
    """Open-to-closed map: coordinate i is tr(sigma_i) / lambda_i."""
    _require_endo(sigma)
    coords = np.array([np.trace(m) / r for r, m in zip(sec.roots, sigma.blocks)],
                      dtype=complex)
    return ClosedState(coords)


def pi_formula(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
               sigma: HomSpace) -> HomSpace:
    """Double-twist map in closed local form: block i of the output is
    (tr(sigma_i) / lambda_i) Id over b."""
    _require_endo(sigma)
    return iota_a(sec, b, iota_upper_a(sec, sigma))


def matrix_unit_basis(a: BraneLabel, b: BraneLabel) -> list:
    """Basis of E_ab: matrix units enumerated block-major then row-major."""
    basis = []
    for i in range(a.n):
        da, db = a.dims[i], b.dims[i]
        for r in range(db):
            for s in range(da):
                blocks = [np.zeros((b.dims[j], a.dims[j]), dtype=complex)
                          for j in range(a.n)]
                blocks[i][r, s] = 1.0
                basis.append(HomSpace(a, b, blocks))
    return basis


def hom_dimension(a: BraneLabel, b: BraneLabel) -> int:
    """dim E_ab = sum_i d(a,i) d(b,i)."""
    return int(sum(da * db for da, db in zip(a.dims, b.dims)))


def _stack_blocks(homs: list, i: int) -> np.ndarray:
    return np.stack([h.blocks[i] for h in homs])


def _contract_basis(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n x[n, ...] y[n, ...] as one matrix product."""
    return (x.reshape(len(x), -1).T @ y.reshape(len(y), -1)).reshape(x.shape[1:] + y.shape[1:])


def pairing_gram(sec: ClosedSector, basis_ab: list, basis_ba: list) -> np.ndarray:
    """gram[nu, mu] = theta_a(psi_nu . phi_mu)."""
    m = len(basis_ab)
    gram = np.zeros((m, m), dtype=complex)
    n = basis_ab[0].source.n
    for i in range(n):
        p = _stack_blocks(basis_ab, i)  # (m, db_i, da_i)
        q = _stack_blocks(basis_ba, i)  # (m, da_i, db_i)
        if p.shape[1] * p.shape[2] == 0:
            continue
        # sum_xy p[nu, y, x] q[mu, x, y] as one matrix product
        gram += sec.roots[i] * (p.reshape(m, -1) @ q.transpose(0, 2, 1).reshape(m, -1).T)
    return gram


def dual_basis(sec: ClosedSector, basis_ab: list, basis_ba: list,
               tol: Tolerance = DEFAULT_TOL) -> list:
    """Basis of E_ba dual to basis_ab under the pairing, by inverting the
    pairing Gram matrix."""
    m = len(basis_ab)
    if m != len(basis_ba):
        raise DegeneratePairing("spaces E_ab and E_ba have different dimensions")
    if m == 0:
        return []
    gram = pairing_gram(sec, basis_ab, basis_ba)
    ratio = singular_ratio(gram)
    if not tol.passes("pairing_nondegenerate", ratio):
        raise DegeneratePairing(f"pairing Gram matrix is singular (sv ratio {ratio:.3e})")
    coeff = np.linalg.inv(gram)
    b_label, a_label = basis_ba[0].source, basis_ba[0].target
    # block i of dual nu is sum_r coeff[r, nu] phi_r[i], for every nu at once
    stacked = [_contract_basis(coeff, _stack_blocks(basis_ba, i)) for i in range(b_label.n)]
    return [HomSpace(b_label, a_label, [s[nu] for s in stacked]) for nu in range(m)]


def _twist_operators(basis_ab: list, duals: list) -> list:
    """K_i[x,y,z,w] = sum_nu psi_nu[x,y] psi^nu[z,w] for each index i, so
    that block i of pi_b^a(sigma) is sum_yz K_i[x,y,z,w] sigma_i[y,z]."""
    return [_contract_basis(_stack_blocks(basis_ab, i), _stack_blocks(duals, i))
            for i in range(basis_ab[0].source.n)]


def basis_sum(basis_ab: list, duals: list, sigma: HomSpace) -> HomSpace:
    """sum_nu psi_nu sigma psi^nu: each twist operator contracted with sigma."""
    b = basis_ab[0].target
    return HomSpace(b, b, [np.einsum("xyzw,yz->xw", k, s) for k, s in
                           zip(_twist_operators(basis_ab, duals), sigma.blocks)])


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

def check_cardy(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """max |K_i - delta_yz delta_xw / lambda_i| over the twist operators of
    the basis sum: the max over matrix units sigma of E_aa of
    || pi_b^a(sigma) - iota_b(iota^a(sigma)) ||."""
    report = CheckReport()
    basis_ab = matrix_unit_basis(a, b)
    worst = 0.0
    if basis_ab:
        duals = dual_basis(sec, basis_ab, matrix_unit_basis(b, a), tol)
        for k, root in zip(_twist_operators(basis_ab, duals), sec.roots):
            if k.size:
                target = np.einsum("yz,xw->xyzw", np.eye(k.shape[1]), np.eye(k.shape[0])) / root
                worst = max(worst, float(np.max(np.abs(k - target))))
    report.check("cardy", worst, tol, location=_loc(a, b))
    return report


def check_sewing(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                 tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """Sewing symmetry theta_a(phi.psi) = theta_b(psi.phi) on random pairs,
    plus invertibility of the pairing Gram matrix between matrix-unit bases."""
    report = CheckReport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale = 1.0
    for _ in range(_TRIALS):
        phi = random_hom(rng, a, b)
        psi = random_hom(rng, b, a)
        lhs = theta_a(sec, compose(phi, psi))   # theta_a(phi . psi) on E_aa
        rhs = theta_a(sec, compose(psi, phi))   # theta_b(psi . phi) on E_bb
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs), abs(rhs))
    report.check("sewing_symmetry", worst, tol, scale, location=_loc(a, b))

    basis_ab = matrix_unit_basis(a, b)
    basis_ba = matrix_unit_basis(b, a)
    if basis_ab:
        gram = pairing_gram(sec, basis_ab, basis_ba)
        sv = singular_values(gram)
        report.check("pairing_nondegenerate", float(sv[-1]), tol, sv[0],
                     location=_loc(a, b),
                     detail="smallest singular value of the pairing Gram matrix")
    else:
        report.add("pairing_nondegenerate", True, 0.0, location=_loc(a, b),
                   detail="zero morphism space; vacuous")
    return report


def check_centrality(sec: ClosedSector, a: BraneLabel, b: BraneLabel,
                     tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """sigma . iota_a(X) = iota_b(X) . sigma over random X and sigma in E_ab."""
    report = CheckReport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_TRIALS):
        x = ClosedState(rng.standard_normal(sec.n) + 1j * rng.standard_normal(sec.n))
        sigma = random_hom(rng, a, b)
        lhs = compose(iota_a(sec, a, x), sigma)
        rhs = compose(sigma, iota_a(sec, b, x))
        worst = max(worst, lhs.sub(rhs).norm())
    report.check("centrality", worst, tol, location=_loc(a, b))
    return report


def check_adjoint(sec: ClosedSector, a: BraneLabel,
                  tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """theta(iota^a(sigma) X) = theta_a(sigma iota_a(X)) on random pairs."""
    report = CheckReport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale = 1.0
    for _ in range(_TRIALS):
        sigma = random_hom(rng, a, a)
        x = ClosedState(rng.standard_normal(sec.n) + 1j * rng.standard_normal(sec.n))
        lhs = closed_trace(sec, iota_upper_a(sec, sigma) * x)
        rhs = theta_a(sec, compose(iota_a(sec, a, x), sigma))
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs), abs(rhs))
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
    basis = matrix_unit_basis(a, a)
    m = len(basis)
    if m == 0:
        raise ShapeMismatch("the zero label has no endomorphism algebra")
    c = np.zeros((m, m, m), dtype=complex)
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            prod = compose(v, u)  # algebraic product u * v: apply v then u
            c[i, j, :] = _coords(prod)
    unit = _coords(identity_hom(a))
    trace = np.array([theta_a(sec, u) for u in basis])
    return FrobeniusAlgebra(c, unit, trace)


def _coords(h: HomSpace) -> np.ndarray:
    parts = [m.reshape(-1) for m in h.blocks]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def _loc(a: BraneLabel, b: BraneLabel) -> str:
    return f"a={a.dims},b={b.dims}"
