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
from .ergodicity import SearchPolicy, _rows_renyi2, build_profile
from .hamiltonians import LocalHamiltonian, diagonalize
from .operators import apply_local, hermitian_site_basis, is_hermitian
from .states import PureState, SiteSet, _as_matrix, bipartition_matrix, site_set
from .tolerances import TOL

IMAG_RESIDUE = 1e-10


@dataclass(frozen=True)
class InteractionDecomposition:
    """Expansion of a cut interaction in hermitian unit-norm products.

    Factors have operator norm one (not Hilbert-Schmidt normalization;
    the HS-orthonormal convention would rescale each coefficient by the
    factor norms).  Coefficients of a hermitian interaction are real;
    `complex_flag` marks residual imaginary parts above tolerance.
    """

    dims: tuple[int, int]
    terms: tuple[tuple[float, str, str], ...]
    left_factors: tuple[np.ndarray, ...]
    right_factors: tuple[np.ndarray, ...]
    l1_norm: float
    reconstruction_error: float
    max_imag_residue: float
    complex_flag: bool

    def reconstruct(self) -> np.ndarray:
        da, db = self.dims
        if not self.terms:
            return np.zeros((da * db, da * db), dtype=complex)
        coef = np.array([t[0] for t in self.terms])
        left = coef[:, None, None] * np.array(self.left_factors)
        # sum_t c_t a_t (x) b_t, with (a (x) b)[(i,k),(j,l)] = a[i,j] b[k,l]
        out = np.einsum("tij,tkl->ikjl", left, np.array(self.right_factors), optimize=True)
        return out.reshape(da * db, da * db)


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


def decompose_interaction(
    v: np.ndarray, dims: tuple[int, int]
) -> InteractionDecomposition:
    """Coefficients of V across the cut in the hermitian product basis.

    Basis factors are the generalized Pauli set with unit spectral norm,
    so the l1 norm of the coefficients is exactly the quantity entering
    the rate bound.  Reconstruction is verified to 1e-10.
    """
    da, db = int(dims[0]), int(dims[1])
    v = np.asarray(v)
    if v.shape != (da * db, da * db):
        raise ValueError("interaction shape does not match the cut")
    if not is_hermitian(v, IMAG_RESIDUE):
        raise ValueError("interaction must be hermitian")
    labels_a, left, hs_a = _basis_stack(da)
    labels_b, right, hs_b = _basis_stack(db)
    # coef[p, q] = tr((a_p (x) b_q) V) / (tr(a_p a_p) tr(b_q b_q)), one side at
    # a time: V[(i,k),(j,l)] = v4[i,k,j,l] and (a (x) b)[(j,l),(i,k)] = a[j,i] b[l,k]
    half = np.tensordot(left, v.reshape(da, db, da, db), axes=([1, 2], [2, 0]))
    coef = np.tensordot(half, right, axes=([1, 2], [2, 1])) / np.outer(hs_a, hs_b)
    max_imag = float(np.abs(coef.imag).max())
    flat = coef.ravel()  # left index outer
    kept = np.flatnonzero(np.abs(flat) > 1e-14)
    ia, ib = np.divmod(kept, len(labels_b))
    values = flat.real[kept]
    terms = tuple(
        zip(values.tolist(), [labels_a[p] for p in ia.tolist()], [labels_b[q] for q in ib.tolist()])
    )
    dec = InteractionDecomposition(
        dims=(da, db),
        terms=terms,
        left_factors=tuple(left[ia]),
        right_factors=tuple(right[ib]),
        l1_norm=float(np.abs(values).sum()),
        reconstruction_error=0.0,
        max_imag_residue=max_imag,
        complex_flag=max_imag > IMAG_RESIDUE,
    )
    err = float(np.abs(dec.reconstruct() - v).max())
    dec = dataclasses.replace(dec, reconstruction_error=err)
    if err > 1e-10:
        raise AssertionError(f"decomposition does not reconstruct V: residual {err}")
    return dec


def _cut_views(rho: np.ndarray, dims: tuple[int, int]):
    da, db = dims
    return rho.reshape(da, db, da, db)


def entangling_rate(rho_ab, dims: tuple[int, int], v: np.ndarray) -> float:
    """Instantaneous d/dt of the left half's Renyi-2 entropy under V.

    Evaluates 2i tr(rho_A tr_B([V, rho_AB])) / tr(rho_A^2); the result of
    the trace is real for hermitian inputs and the imaginary residue is
    asserted below 1e-10 before being discarded.
    """
    rho = _as_matrix(rho_ab)
    da, db = int(dims[0]), int(dims[1])
    rho_a = np.einsum("aibi->ab", _cut_views(rho, (da, db)))
    purity = float(np.trace(rho_a @ rho_a).real)
    if purity <= 1e-12:
        raise ValueError("reduced purity underflow")
    comm = v @ rho - rho @ v
    tr_b = np.einsum("aibi->ab", _cut_views(comm, (da, db)))
    raw = 2.0j * np.trace(rho_a @ tr_b) / purity
    if abs(raw.imag) > IMAG_RESIDUE:
        raise AssertionError(f"imaginary residue {raw.imag} in entangling rate")
    return float(raw.real)


def _renyi2_left(rho: np.ndarray, dims: tuple[int, int]) -> float:
    rho_a = np.einsum("aibi->ab", _cut_views(rho, dims))
    return -math.log(float(np.trace(rho_a @ rho_a).real))


def entangling_rate_fd(
    rho_ab, dims: tuple[int, int], v: np.ndarray, h: float = 1e-5
) -> float:
    """Centered finite difference of S_2 under conjugation by exp(-iVh).

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
    w, vecs = np.linalg.eigh(v)
    u = (vecs * np.exp(-1j * h * w)) @ vecs.conj().T
    fwd = _renyi2_left(u @ rho @ u.conj().T, dims)
    bwd = _renyi2_left(u.conj().T @ rho @ u, dims)
    return (fwd - bwd) / (2.0 * h)


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
    bipartition matrices instead of the full density matrix.
    """
    lat = state.lattice
    m_psi = bipartition_matrix(state.amplitudes, keep.sites, lat)
    rho_a = m_psi @ m_psi.conj().T
    purity = float(np.trace(rho_a @ rho_a).real)
    if purity <= 1e-12:
        raise ValueError("reduced purity underflow")
    m_op = bipartition_matrix(op_psi, keep.sites, lat)
    k = m_op @ m_psi.conj().T
    raw = 2.0j * np.trace(rho_a @ (k - k.conj().T)) / purity
    if abs(raw.imag) > IMAG_RESIDUE:
        raise AssertionError(f"imaginary residue {raw.imag} in boundary rate")
    return float(raw.real)


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
    direct = _pure_region_rate(state, keep, h.assemble(shifted=False) @ psi)
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


def _term_split_l1(term, region_sites: set[int]) -> float:
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
    h: LocalHamiltonian,
    region: SiteSet | tuple[int, ...],
    t_grid: Sequence[float],
) -> IntegratedBoundReport:
    """|S_2(t) - S_2(0)| of the region against the linear envelope
    4 t |boundary| max_x ||C_x||_1 on every grid time."""
    times = [float(t) for t in t_grid]
    if not times:
        raise ValueError("time grid is empty")
    keep = site_set(psi0.lattice, region)
    spectral = diagonalize(h)
    region_set = set(keep.sites)
    straddle = h.boundary_terms(tuple(keep.sites))
    max_l1 = max((_term_split_l1(t, region_set) for t in straddle), default=0.0)
    s2 = _rows_renyi2(evolve_rows(spectral, psi0, times), psi0.lattice, keep.sites)
    base = float(_rows_renyi2(psi0.amplitudes[None, :], psi0.lattice, keep.sites)[0])
    bounds = [4.0 * abs(t) * len(straddle) * max_l1 for t in times]
    max_excess = max(abs(v - base) - b for v, b in zip(s2, bounds))
    return IntegratedBoundReport(
        region=tuple(keep.sites),
        times=tuple(times),
        s2_values=tuple(float(v) for v in s2),
        bounds=tuple(bounds),
        boundary_size=len(straddle),
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

    def matrix(self) -> np.ndarray:
        """Dense unitary via the generator's spectral decomposition.

        The ground shift only contributes a global phase and is skipped.
        """
        raw = self.generator.assemble(shifted=False)
        vals, vecs = np.linalg.eigh(raw)
        phases = np.exp(-1j * vals * self.time)
        return (vecs * phases) @ vecs.conj().T


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


def stability_experiment(
    h: LocalHamiltonian,
    u_prime: QuasiLocalUnitary,
    region: SiteSet | tuple[int, ...] | None = None,
    policy: SearchPolicy | None = None,
    envelope_grid: int = 50,
) -> StabilityReport:
    """Entanglement scan before and after conjugating the system.

    Conjugated eigenvectors are the unitary image of the originals, so
    each eigenstate's S_2 on a fixed contiguous region can shift by at
    most 4 T |boundary| max ||C_x||_1; that per-state bound is asserted.
    The envelope comparison (conjugated envelope above the original
    minus bound/N, sampled on a density grid) is reported, not asserted:
    envelopes are fitted objects.
    """
    lattice = h.lattice
    if region is None:
        region = tuple(range(lattice.num_sites // 2))
    keep = site_set(lattice, region)
    spectral = diagonalize(h)
    u = u_prime.matrix()
    conj_vecs = u @ spectral.eigenvectors
    before = _rows_renyi2(spectral.eigenvectors.T, lattice, keep.sites)
    after = _rows_renyi2(conj_vecs.T, lattice, keep.sites)
    shift = np.abs(after - before)
    region_set = set(keep.sites)
    straddle = u_prime.generator.boundary_terms(tuple(keep.sites))
    max_l1 = max((_term_split_l1(t, region_set) for t in straddle), default=0.0)
    bound = 4.0 * abs(u_prime.time) * len(straddle) * max_l1
    policy = policy or SearchPolicy(mode="half-cut-only")
    prof = build_profile(spectral, policy)
    conj_spectral = dataclasses.replace(spectral, eigenvectors=conj_vecs)
    conj_prof = build_profile(conj_spectral, policy)
    grid = np.linspace(0.0, spectral.e_max, envelope_grid)
    margin = min(
        conj_prof.g_at(e) - (prof.g_at(e) - bound / lattice.num_sites) for e in grid
    )
    return StabilityReport(
        region=tuple(keep.sites),
        time=u_prime.time,
        boundary_terms=len(straddle),
        max_c_l1=max_l1,
        bound=bound,
        max_shift=float(shift.max()),
        mean_shift=float(shift.mean()),
        envelope_margin=float(margin),
        passed=bool(shift.max() <= bound + 1e-9),
    )
