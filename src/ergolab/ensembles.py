"""Diagonal ensembles, infinite-time variances, and equilibration bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import renyi_entropy
from .hamiltonians import LocalTerm, SpectralData, degenerate_groups
from .operators import _local_support, apply_local, pauli, random_hermitian
from .states import DensityMatrix, LatticeSpec, PureState, SiteSet, _sublattice, bipartition_matrix, site_set
from .tolerances import TOL

DEGENERACY_TOL = 1e-10


def site_observable(lattice: LatticeSpec, site: int, axis: str = "Z") -> LocalTerm:
    block = pauli(axis)
    return LocalTerm(_local_support(block, (site,), lattice), block, f"{axis.lower()}[{site}]")


def bond_observable(lattice: LatticeSpec, site: int, axis: str = "Z") -> LocalTerm:
    op = np.kron(pauli(axis), pauli(axis)).real
    label = f"{axis.lower()}{axis.lower()}[{site},{site + 1}]"
    return LocalTerm(_local_support(op, (site, site + 1), lattice), op, label)


def random_local_observable(
    lattice: LatticeSpec, sites: tuple[int, ...], seed: int = 0
) -> LocalTerm:
    block = random_hermitian(lattice.local_dim ** len(sites), np.random.default_rng(seed), norm=1.0)
    return LocalTerm(_local_support(block, sites, lattice), block, f"rand{list(sites)}")


class DiagonalEnsemble:
    """Time-averaged (dephased) state of a pure state under a spectrum.

    Populations are aggregated over degenerate energy blocks, so entropies
    and reduced states are exact even when the spectrum has coincident
    levels.
    """

    def __init__(
        self,
        spectral: SpectralData,
        state: PureState,
        degeneracy_tolerance: float = DEGENERACY_TOL,
    ) -> None:
        if state.lattice != spectral.lattice:
            raise ValueError("state and spectrum live on different lattices")
        self.spectral = spectral
        self.degeneracy_tolerance = degeneracy_tolerance
        c = spectral.coefficients(state.amplitudes)
        self.coefficients = c
        self.blocks = degenerate_groups(spectral.energies, degeneracy_tolerance)
        self._starts = [a for a, _ in self.blocks]
        pops = np.add.reduceat(np.abs(c) ** 2, self._starts)
        total = pops.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {total!r}")
        self.populations = pops / total
        sizes = np.diff([*self._starts, spectral.dim])
        self.block_energies = np.add.reduceat(spectral.energies, self._starts) / sizes

    @property
    def is_pure(self) -> bool:
        return bool(np.max(self.populations) > 1.0 - 1e-12)

    def entropy(self, order: float) -> float:
        return renyi_entropy(self.populations, order)

    @property
    def effective_dimension(self) -> float:
        return float(np.exp(self.entropy(2.0)))

    def block_vectors(self) -> np.ndarray:
        """Columns w_k = P_k |psi>, one per energy block (unnormalized)."""
        return np.add.reduceat(self.spectral.eigenvectors * self.coefficients, self._starts, axis=1)

    def reduced(self, region: SiteSet | tuple[int, ...]) -> DensityMatrix:
        """Dephased state on `region`: sum_k M_k M_k^dag over the block
        vectors' bipartition matrices, without the dim x dim state."""
        lattice = self.spectral.lattice
        keep = site_set(lattice, region)
        m = bipartition_matrix(self.block_vectors().T, keep.sites, lattice)
        rho = np.tensordot(m, m.conj(), axes=([0, 2], [0, 2]))
        return DensityMatrix(_sublattice(lattice, len(keep)), 0.5 * (rho + rho.conj().T))


def evolve_rows(spectral: SpectralData, state: PureState, times) -> np.ndarray:
    """Amplitudes V (exp(-iEt) c) at every time, as one product: one
    state-major row per time, each norm checked against TOL.normalization."""
    c = spectral.coefficients(state.amplitudes)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), spectral.energies))
    rows = (phases * c) @ spectral.eigenvectors.T
    drift = np.abs(np.linalg.norm(rows, axis=1) - 1.0)
    if not np.all(drift <= TOL.normalization):
        raise ValueError(f"evolved state norm drifts by {drift.max()!r}")
    return rows


def evolve(spectral: SpectralData, state: PureState, time: float) -> PureState:
    return PureState(spectral.lattice, evolve_rows(spectral, state, [time])[0])


def expectation_trajectory(
    spectral: SpectralData,
    state: PureState,
    observable: LocalTerm,
    times: np.ndarray,
) -> np.ndarray:
    """<A>(t) on a grid of times, via the eigenbasis."""
    c = spectral.coefficients(state.amplitudes)
    v = spectral.eigenvectors
    a_tilde = v.conj().T @ apply_local(observable.matrix, observable.sites, spectral.lattice, v)
    phases = np.exp(-1j * np.outer(spectral.energies, np.asarray(times, dtype=float)))
    ct = phases * c[:, None]
    return np.real(np.einsum("it,ij,jt->t", ct.conj(), a_tilde, ct, optimize=True))


def ensemble_expectation(ens: DiagonalEnsemble, observable: LocalTerm) -> float:
    w = ens.block_vectors()
    aw = apply_local(observable.matrix, observable.sites, ens.spectral.lattice, w)
    return float(np.real(np.vdot(w, aw)))


def variance_exact(
    ens: DiagonalEnsemble, observable: LocalTerm
) -> float:
    """Infinite-time variance of <A>(t), exact under non-degenerate gaps.

    Computed as the off-diagonal weight of A between energy blocks,
    sum_{k != l} |w_k^dag A w_l|^2.  Validity requires the differences of
    distinct block energies to be non-coincident; certify with gap_report.
    """
    w = ens.block_vectors()
    m = w.conj().T @ apply_local(observable.matrix, observable.sites, ens.spectral.lattice, w)
    off = np.abs(m) ** 2
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def check_sampling(samples: int, horizon: float | None, minimum: int) -> None:
    """Reject a time average over fewer than `minimum` samples, or over a
    horizon that is not positive and finite (None picks the default)."""
    if int(samples) < minimum:
        raise ValueError(f"need at least {minimum} time samples, got {samples}")
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")


@dataclass(frozen=True)
class SampledVariance:
    value: float
    stderr: float
    horizon: float
    samples: int


def variance_sampled(
    spectral: SpectralData,
    state: PureState,
    observable: LocalTerm,
    horizon: float | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> SampledVariance:
    """Monte-Carlo estimate of the infinite-time variance of <A>(t).

    Times are uniform on [0, horizon].  The default horizon is
    1e4 * dim / ||H||: dephasing between the closest typical levels needs
    times of order dim / (spectral width), well beyond 1 / ||H||.  The
    standard error needs at least two samples.
    """
    check_sampling(samples, horizon, 2)
    if horizon is None:
        horizon = 1e4 * spectral.dim / max(spectral.norm, 1e-12)
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, horizon, size=samples)
    traj = expectation_trajectory(spectral, state, observable, times)
    mean = ensemble_expectation(DiagonalEnsemble(spectral, state), observable)
    dev = (traj - mean) ** 2
    return SampledVariance(
        value=float(dev.mean()),
        stderr=float(dev.std(ddof=1) / np.sqrt(samples)),
        horizon=float(horizon),
        samples=samples,
    )


@dataclass(frozen=True)
class VarianceBoundReport:
    variance: float
    observable_norm: float
    s2: float
    s_inf_trimmed: float
    bound_s2: float
    bound_trimmed: float
    fully_equilibrated: bool
    passed: bool


def check_variance_bounds(
    ens: DiagonalEnsemble, observable: LocalTerm
) -> VarianceBoundReport:
    """Exact variance against both ensemble-entropy bounds.

    bound_s2 uses exp(-S_2) of the dephased populations; bound_trimmed
    uses 3 exp(-S_inf) of the populations with the largest one replaced
    by zero (not renormalized).  A pure ensemble cannot fluctuate at all
    and is reported as fully equilibrated.
    """
    var = variance_exact(ens, observable)
    norm2 = observable.norm**2
    s2 = ens.entropy(2.0)
    p = np.sort(ens.populations)[::-1]
    if ens.is_pure or p.size == 1:
        s_inf_trim = np.inf
        bound_trim = 0.0
    else:
        s_inf_trim = float(-np.log(p[1]))
        bound_trim = 3.0 * norm2 * float(p[1])
    bound_s2 = norm2 * float(np.exp(-s2))
    slack = 1e-12 * max(norm2, 1.0)
    passed = var <= bound_s2 + slack and var <= bound_trim + slack
    return VarianceBoundReport(
        variance=var,
        observable_norm=observable.norm,
        s2=s2,
        s_inf_trimmed=s_inf_trim,
        bound_s2=bound_s2,
        bound_trimmed=bound_trim,
        fully_equilibrated=bool(ens.is_pure),
        passed=bool(passed),
    )


@dataclass(frozen=True)
class SubsystemReport:
    region: tuple[int, ...]
    subsystem_dim: int
    mean_distance: float
    max_distance: float
    bound: float
    s2: float
    samples: int
    horizon: float
    passed: bool


def subsystem_equilibration(
    spectral: SpectralData,
    state: PureState,
    region: SiteSet | tuple[int, ...],
    samples: int = 200,
    horizon: float | None = None,
    seed: int = 0,
) -> SubsystemReport:
    """Sampled time-average of || rho_S(t) - omega_S ||_1 against
    2 d_S exp(-S_2 / 2).

    The left side is a Monte-Carlo mean over uniform times, so it sits
    strictly below the rigorous bound with the margin expected from the
    derivation, not within floating-point tolerance of it.  Each
    rho_S(t) = M M^dag is PSD by construction, with trace the checked norm^2.
    """
    check_sampling(samples, horizon, 1)
    keep = site_set(spectral.lattice, region)
    ens = DiagonalEnsemble(spectral, state)
    omega_s = ens.reduced(keep)
    if horizon is None:
        horizon = 1e4 * spectral.dim / max(spectral.norm, 1e-12)
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, horizon, size=samples)
    m = bipartition_matrix(evolve_rows(spectral, state, times), keep.sites, spectral.lattice)
    rho_s = m @ m.conj().transpose(0, 2, 1)
    dists = np.abs(np.linalg.eigvalsh(rho_s - omega_s.matrix)).sum(axis=1)
    s2 = ens.entropy(2.0)
    bound = 2.0 * keep.dim * float(np.exp(-0.5 * s2))
    mean = float(dists.mean())
    return SubsystemReport(
        region=tuple(keep.sites),
        subsystem_dim=keep.dim,
        mean_distance=mean,
        max_distance=float(dists.max()),
        bound=bound,
        s2=s2,
        samples=samples,
        horizon=float(horizon),
        passed=bool(mean <= bound),
    )
