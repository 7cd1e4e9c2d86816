"""Renyi-2 entangling rates across a cut, their interaction-norm bounds,
and stability of entanglement scans under quasi-local conjugation."""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import evolve_rows
from .ergodicity import SearchPolicy, build_profile
from .hamiltonians import LocalHamiltonian, LocalTerm, SpectralData, _sectors, diagonalize
from .operators import apply_local, hermitian_site_basis, is_hermitian
from .states import LatticeSpec, PureState, SiteSet, _as_matrix, _rows_renyi2, bipartition_matrix, site_set
from .tolerances import TOL

IMAG_RESIDUE = 1e-10
# step of the centred finite difference that cross-checks the exact rate
FD_STEP = 1e-5
# the stability scan's candidate policy, and how many densities its
# envelope comparison samples
STABILITY_POLICY = SearchPolicy(mode="half-cut-only")
ENVELOPE_GRID = 50


@dataclass(frozen=True)
class InteractionDecomposition:
    """Expansion of a cut interaction in hermitian unit-norm products.

    Factors have operator norm one (not Hilbert-Schmidt normalization;
    the HS-orthonormal convention would rescale each coefficient by the
    factor norms).  `coefficients[p, q]` is the real coefficient of
    a_p (x) b_q in the `_basis_stack` order, 0 where its magnitude is at
    most 1e-14.
    """

    dims: tuple[int, int]
    coefficients: np.ndarray
    reconstruction_error: float

    @property
    def terms(self) -> tuple[tuple[float, str, str], ...]:
        """(coefficient, left label, right label) of each kept product,
        left index outer."""
        labels_a, labels_b = _basis_stack(self.dims[0])[0], _basis_stack(self.dims[1])[0]
        ia, ib = np.nonzero(self.coefficients)
        values = self.coefficients[ia, ib].tolist()
        return tuple(zip(values, [labels_a[p] for p in ia], [labels_b[q] for q in ib]))

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.coefficients[self.coefficients != 0]).sum())

    def reconstruct(self) -> np.ndarray:
        return _expand(self.coefficients, self.dims)


@functools.cache
def _basis_stack(d: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Labels, a read-only (d*d, d, d) stack and the Hilbert-Schmidt norms
    tr(a a) of `hermitian_site_basis(d)`, built once per local dimension."""
    labels, mats = zip(*hermitian_site_basis(d))
    stack = np.array(mats, dtype=complex)
    hs = np.einsum("kij,kji->k", stack, stack).real
    stack.flags.writeable = False
    hs.flags.writeable = False
    return labels, stack, hs


def _expand(coefficients: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """sum_pq c[p, q] a_p (x) b_q, with (a (x) b)[(i,k),(j,l)] = a[i,j] b[k,l]."""
    da, db = dims
    right = np.tensordot(coefficients, _basis_stack(db)[1], axes=(1, 0))
    out = np.tensordot(_basis_stack(da)[1], right, axes=(0, 0))
    return out.transpose(0, 2, 1, 3).reshape(da * db, da * db)


def decompose_interaction(
    v: np.ndarray, dims: tuple[int, int]
) -> InteractionDecomposition:
    """Coefficients of V across the cut in the hermitian product basis.

    Basis factors are the generalized Pauli set with unit spectral norm,
    so the l1 norm of the coefficients is exactly the quantity entering
    the rate bound.  V is checked hermitian, so its coefficients are real
    up to rounding; reconstruction from their real parts is verified to
    1e-10.
    """
    da, db = int(dims[0]), int(dims[1])
    v = np.asarray(v)
    if v.shape != (da * db, da * db):
        raise ValueError("interaction shape does not match the cut")
    if not is_hermitian(v, IMAG_RESIDUE):
        raise ValueError("interaction must be hermitian")
    _, left, hs_a = _basis_stack(da)
    _, right, hs_b = _basis_stack(db)
    # coef[p, q] = tr((a_p (x) b_q) V) / (tr(a_p a_p) tr(b_q b_q)), one side at
    # a time: V[(i,k),(j,l)] = v4[i,k,j,l] and (a (x) b)[(j,l),(i,k)] = a[j,i] b[l,k]
    half = np.tensordot(left, v.reshape(da, db, da, db), axes=([1, 2], [2, 0]))
    coef = np.tensordot(half, right, axes=([1, 2], [2, 1])) / np.outer(hs_a, hs_b)
    coef = np.where(np.abs(coef) > 1e-14, coef.real, 0.0)
    err = float(np.abs(_expand(coef, (da, db)) - v).max())
    if err > 1e-10:
        raise AssertionError(f"decomposition does not reconstruct V: residual {err}")
    return InteractionDecomposition(dims=(da, db), coefficients=coef, reconstruction_error=err)


def _traced(op: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """tr_B of an operator on the cut A|B, (d_A d_B)^2 -> d_A^2."""
    da, db = dims
    return np.einsum("aibi->ab", op.reshape(da, db, da, db))


def _renyi2_rate(rho_a: np.ndarray, traced_commutator: np.ndarray) -> float:
    """d/dt S_2(A) = 2i tr(rho_A X) / tr(rho_A^2), with X = tr_B [V, rho]
    the traced commutator; the trace is real for hermitian inputs, and the
    imaginary residue is asserted below IMAG_RESIDUE before being discarded."""
    purity = float(np.trace(rho_a @ rho_a).real)
    if purity <= 1e-12:
        raise ValueError("reduced purity underflow")
    raw = 2.0j * np.trace(rho_a @ traced_commutator) / purity
    if abs(raw.imag) > IMAG_RESIDUE:
        raise AssertionError(f"imaginary residue {raw.imag} in entangling rate")
    return float(raw.real)


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of a hermitian h, from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def entangling_rate(rho_ab, dims: tuple[int, int], v: np.ndarray) -> float:
    """Instantaneous d/dt of the left half's Renyi-2 entropy under V."""
    rho = _as_matrix(rho_ab)
    dims = (int(dims[0]), int(dims[1]))
    return _renyi2_rate(_traced(rho, dims), _traced(v @ rho - rho @ v, dims))


def _renyi2_left(rho: np.ndarray, dims: tuple[int, int]) -> float:
    rho_a = _traced(rho, dims)
    return -math.log(float(np.trace(rho_a @ rho_a).real))


def entangling_rate_fd(rho_ab, dims: tuple[int, int], v: np.ndarray) -> float:
    """Centered finite difference of S_2 under conjugation by exp(-iVh),
    h = FD_STEP.

    rho must have unit trace, so the reduced purity is at least 1/d_A and
    the difference quotient needs no extrapolation.  V must be hermitian;
    one eigendecomposition then gives exp(-iVh) exactly.
    """
    rho = _as_matrix(rho_ab)
    dims = (int(dims[0]), int(dims[1]))
    if abs(np.trace(rho) - 1.0) > TOL.normalization:
        raise ValueError("density matrix must have unit trace")
    v = np.asarray(v)
    if not is_hermitian(v, IMAG_RESIDUE):
        raise ValueError("interaction must be hermitian")
    u = _unitary(v, FD_STEP)
    fwd = _renyi2_left(u @ rho @ u.conj().T, dims)
    bwd = _renyi2_left(u.conj().T @ rho @ u, dims)
    return (fwd - bwd) / (2.0 * FD_STEP)


@dataclass(frozen=True)
class RateBoundReport:
    rate: float
    l1_norm: float
    bound: float
    ratio: float
    passed: bool


def check_rate_bound(rho_ab, dims: tuple[int, int], v: np.ndarray) -> RateBoundReport:
    """|rate| against four times the decomposition l1 norm."""
    rate = entangling_rate(rho_ab, dims, v)
    dec = decompose_interaction(v, dims)
    bound = 4.0 * dec.l1_norm
    if bound == 0.0:
        ratio = 0.0 if abs(rate) <= 1e-12 else math.inf
    else:
        ratio = abs(rate) / bound
    return RateBoundReport(
        rate=rate,
        l1_norm=dec.l1_norm,
        bound=bound,
        ratio=ratio,
        passed=abs(rate) <= bound + 1e-10,
    )


@dataclass(frozen=True)
class BoundaryRateReport:
    region: tuple[int, ...]
    straddling: tuple[str, ...]
    term_rates: tuple[float, ...]
    boundary_total: float
    direct_rate: float
    difference: float
    passed: bool


def _pure_region_rate(state: PureState, keep: SiteSet, op_psi: np.ndarray) -> float:
    """Rate of the region's Renyi-2 entropy for a pure global state under
    the operator whose image of the state is `op_psi`.

    Rank-one structure lets the traced commutator come from two thin
    bipartition matrices instead of the full density matrix:
    tr_B [V, |psi><psi|] = K - K^dag with K = M_op M_psi^dag.
    """
    lat = state.lattice
    m_psi = bipartition_matrix(state.amplitudes, keep.sites, lat)
    k = bipartition_matrix(op_psi, keep.sites, lat) @ m_psi.conj().T
    return _renyi2_rate(m_psi @ m_psi.conj().T, k - k.conj().T)


def boundary_rate(
    state: PureState, region: SiteSet | tuple[int, ...], h: LocalHamiltonian
) -> BoundaryRateReport:
    """Sum of per-term rates over cut-straddling terms, checked against
    the rate generated by the full Hamiltonian.

    Terms supported inside or outside the region commute through the
    partial trace and contribute nothing, so the two must agree to 1e-8.
    """
    keep = site_set(state.lattice, region)
    terms = h.boundary_terms(tuple(keep.sites))
    psi = state.amplitudes
    rates = [
        _pure_region_rate(state, keep, apply_local(t.matrix, t.sites, state.lattice, psi))
        for t in terms
    ]
    direct = _pure_region_rate(state, keep, h.assemble() @ psi)
    total = float(sum(rates))
    diff = abs(total - direct)
    return BoundaryRateReport(
        region=tuple(keep.sites),
        straddling=tuple(t.label for t in terms),
        term_rates=tuple(rates),
        boundary_total=total,
        direct_rate=direct,
        difference=diff,
        passed=diff <= 1e-8,
    )


def _term_split_l1(term) -> float:
    """l1 coefficient norm of a straddling term across the region cut.

    Only two-site terms arise for strictly local chains; one site sits on
    each side, and the l1 norm is invariant under swapping the sides, so
    the stored factor order (ascending site index) needs no reorientation.
    """
    if len(term.sites) != 2:
        raise ValueError(f"straddling term {term.label!r} is not two-site")
    d = math.isqrt(term.matrix.shape[0])
    if d * d != term.matrix.shape[0]:
        raise ValueError("term dimension is not a two-site product")
    return decompose_interaction(term.matrix, (d, d)).l1_norm


def _cut_bounds(h: LocalHamiltonian, keep: SiteSet, times: Sequence[float]):
    """(number of straddling terms, their largest split l1 norm, and the
    entangling bound 4 |t| |boundary| max_x ||C_x||_1 at each time) of the
    region's cut."""
    straddle = h.boundary_terms(tuple(keep.sites))
    max_l1 = max((_term_split_l1(t) for t in straddle), default=0.0)
    return len(straddle), max_l1, [4.0 * abs(t) * len(straddle) * max_l1 for t in times]


@dataclass(frozen=True)
class IntegratedBoundReport:
    region: tuple[int, ...]
    times: tuple[float, ...]
    s2_values: tuple[float, ...]
    bounds: tuple[float, ...]
    boundary_size: int
    max_c_l1: float
    max_excess: float
    passed: bool


def integrated_bound_check(
    psi0: PureState,
    spectral: SpectralData,
    region: SiteSet | tuple[int, ...],
    t_grid: Sequence[float],
) -> IntegratedBoundReport:
    """|S_2(t) - S_2(0)| of the region against the linear envelope
    4 t |boundary| max_x ||C_x||_1 on every grid time, evolving psi0 in
    the spectrum of its Hamiltonian."""
    times = [float(t) for t in t_grid]
    if not times:
        raise ValueError("time grid is empty")
    keep = site_set(psi0.lattice, region)
    boundary, max_l1, bounds = _cut_bounds(spectral.hamiltonian, keep, times)
    rows = evolve_rows(spectral, spectral.coefficients(psi0.amplitudes), times)
    s2 = _rows_renyi2(rows, psi0.lattice, keep.sites)
    base = float(_rows_renyi2(psi0.amplitudes[None, :], psi0.lattice, keep.sites)[0])
    max_excess = max(abs(v - base) - b for v, b in zip(s2, bounds))
    return IntegratedBoundReport(
        region=tuple(keep.sites),
        times=tuple(times),
        s2_values=tuple(float(v) for v in s2),
        bounds=tuple(bounds),
        boundary_size=boundary,
        max_c_l1=max_l1,
        max_excess=float(max_excess),
        passed=max_excess <= 1e-9,
    )


@dataclass
class QuasiLocalUnitary:
    """exp(-i generator time) with a strictly local, norm-one generator.

    The generator's single-term norms must not exceed one, so `time`
    alone fixes how much the unitary can entangle across any cut.
    """

    generator: LocalHamiltonian
    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValueError("time must be finite")
        worst = max((t.norm for t in self.generator.terms), default=0.0)
        if worst > 1.0 + 1e-10:
            raise ValueError(f"generator term norm {worst} exceeds one")

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """exp(-i generator time) applied to a vector (dim,) or columns (dim, k).

        Terms that share a site form a cluster (a component of the site-link
        pattern, see `_sectors`).  Clusters sit on disjoint sites and commute,
        so each is exponentiated from the `eigh` of its terms assembled on its
        own sites and applied by `apply_local`.  The ground shift is a global phase.
        """
        lat, terms = self.generator.lattice, self.generator.terms
        link = np.zeros((lat.num_sites, lat.num_sites), dtype=bool)
        for t in terms:
            link[np.ix_(t.sites, t.sites)] = True
        for c in _sectors(*np.nonzero(link), lat.num_sites):
            own = [LocalTerm(np.searchsorted(c, t.sites), t.matrix)
                   for t in terms if t.sites[0] in c]
            sub = LocalHamiltonian(LatticeSpec(len(c), lat.local_dim), own, locality=len(c))
            vectors = apply_local(_unitary(sub.assemble(), self.time), c, lat, vectors)
        return vectors


@dataclass(frozen=True)
class StabilityReport:
    region: tuple[int, ...]
    time: float
    boundary_terms: int
    max_c_l1: float
    bound: float
    max_shift: float
    mean_shift: float
    envelope_margin: float
    passed: bool


def stability_experiment(h: LocalHamiltonian, u_prime: QuasiLocalUnitary) -> StabilityReport:
    """Entanglement scan before and after conjugating the system.

    Conjugated eigenvectors are the unitary image of the originals, so
    each eigenstate's S_2 on the first half of the chain can shift by at
    most 4 T |boundary| max ||C_x||_1; that per-state bound is asserted.
    The envelope comparison (conjugated envelope above the original
    minus bound/N, sampled on ENVELOPE_GRID densities, both envelopes from
    STABILITY_POLICY scans) is reported, not asserted: envelopes are
    fitted objects.
    """
    lattice = h.lattice
    keep = site_set(lattice, range(lattice.num_sites // 2))
    spectral = diagonalize(h)
    conj_vecs = u_prime.apply(spectral.eigenvectors)
    before = _rows_renyi2(spectral.eigenvectors.T, lattice, keep.sites)
    after = _rows_renyi2(conj_vecs.T, lattice, keep.sites)
    shift = np.abs(after - before)
    boundary, max_l1, (bound,) = _cut_bounds(u_prime.generator, keep, [u_prime.time])
    prof = build_profile(spectral, STABILITY_POLICY)
    conj_spectral = dataclasses.replace(spectral, eigenvectors=conj_vecs)
    conj_prof = build_profile(conj_spectral, STABILITY_POLICY)
    grid = np.linspace(0.0, spectral.e_max, ENVELOPE_GRID)
    margin = min(
        conj_prof.g_at(e) - (prof.g_at(e) - bound / lattice.num_sites) for e in grid
    )
    return StabilityReport(
        region=tuple(keep.sites),
        time=u_prime.time,
        boundary_terms=boundary,
        max_c_l1=max_l1,
        bound=bound,
        max_shift=float(shift.max()),
        mean_shift=float(shift.mean()),
        envelope_margin=float(margin),
        passed=bool(shift.max() <= bound + 1e-9),
    )
