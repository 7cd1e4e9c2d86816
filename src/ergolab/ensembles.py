"""Diagonal ensembles, infinite-time variances, and equilibration bounds.

A quench is one `DiagonalEnsemble`: the spectrum and the initial state's
eigenbasis coefficients c, projected once.  Every ensemble quantity and
time average reads it, through V^dag A V and the phase table exp(-iEt) c.
"""

from __future__ import annotations

import _thread
import math
from dataclasses import dataclass

import numpy as np

from . import MEMORY_WORKERS, deal, worker_count
from .entropy import renyi_entropy
from .hamiltonians import LocalTerm, SpectralData, degenerate_groups
from .operators import _local_support, apply_local, pauli, random_hermitian
from .states import DensityMatrix, LatticeSpec, PureState, SiteSet, _reduced_states, _sublattice, shown, site_set
from .tolerances import TOL

DEGENERACY_TOL = 1e-10
# levels per band of whole energy blocks (DiagonalEnsemble._bands): the
# block-matrix rows and block vectors formed at a time
VARIANCE_BAND_ROWS = 64
# times per band of the phase table exp(-iEt) c (_trajectory, evolve_rows):
# the tables formed at a time are TIME_BAND x dim per worker, whatever the
# time count; MEMORY_WORKERS workers hold 6 TIME_BAND dim doubles each,
# what one band of 2 TIME_BAND times took when one thread walked them
TIME_BAND = 128


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

    def __init__(self, spectral: SpectralData, state: PureState) -> None:
        if state.lattice != spectral.lattice:
            raise ValueError("state and spectrum live on different lattices")
        self.spectral = spectral
        c = spectral.coefficients(state.amplitudes)
        self.coefficients = c
        self.blocks = degenerate_groups(spectral.energies, DEGENERACY_TOL)
        self._starts = [a for a, _ in self.blocks]
        pops = np.add.reduceat(np.abs(c) ** 2, self._starts)
        total = pops.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {total!r}")
        self.populations = pops / total
        sizes = np.diff([*self._starts, spectral.dim])
        self.block_energies = np.add.reduceat(spectral.energies, self._starts) / sizes
        self._a_eig: tuple[LocalTerm, np.ndarray] | None = None

    @property
    def is_pure(self) -> bool:
        return bool(np.max(self.populations) > 1.0 - 1e-12)

    def entropy(self, order: float) -> float:
        return renyi_entropy(self.populations, order)

    @property
    def effective_dimension(self) -> float:
        return float(np.exp(self.entropy(2.0)))

    def _bands(self):
        """(first, stop) of each band of whole blocks.  A band starts at each
        block that holds a level index divisible by VARIANCE_BAND_ROWS, where
        band(level before the block) < band(the block's last level)."""
        before = np.subtract([*self._starts, self.spectral.dim], 1) // VARIANCE_BAND_ROWS
        firsts = np.flatnonzero(np.diff(before))
        return zip(firsts, [*firsts[1:], len(self.blocks)])

    def _block_rows(self, first: int, stop: int) -> np.ndarray:
        """w_k of the blocks first <= k < stop, one state-major row each."""
        a, b = self.blocks[first][0], self.blocks[stop - 1][1]
        levels = self.coefficients[a:b, None] * self.spectral.eigenvectors[:, a:b].T
        return np.add.reduceat(levels, np.subtract(self._starts[first:stop], a), axis=0)

    def _eigenbasis(self, observable: LocalTerm) -> np.ndarray:
        """V^dag A V of `observable`.  The last one asked for is kept, so the
        checks of one quench on one observable build it once."""
        if self._a_eig is None or self._a_eig[0] is not observable:
            self._a_eig = (observable, _eigenbasis_matrix(self.spectral, observable))
        return self._a_eig[1]

    def reduced(self, region: SiteSet | tuple[int, ...]) -> DensityMatrix:
        """Dephased state on `region`: sum_k M_k M_k^dag over the block
        vectors' bipartition matrices, without the dim x dim state.  The
        block vectors are formed a band at a time, so no dim x K matrix is
        held."""
        lattice = self.spectral.lattice
        keep = site_set(lattice, region)
        rho = 0
        for first, stop in self._bands():
            rho = rho + _reduced_states(self._block_rows(first, stop), keep.sites, lattice).sum(axis=0)
        return DensityMatrix(_sublattice(lattice, len(keep)), 0.5 * (rho + rho.conj().T))


def _phase_table(spectral: SpectralData, coefficients: np.ndarray, times, out, aside) -> np.ndarray:
    """exp(-iEt) c, one row per time: the eigenbasis amplitudes on a time grid,
    written into `out` (times x dim complex).  The phases are
    -i(tE) as 0 tE - i(tE): a zero that exp reads as -1j * (tE) does, and
    NaN, like it, where tE is not finite.  The exponentials run inside
    `aside` (see ``_deal_bands``)."""
    np.multiply.outer(times, -spectral.energies, out=out.imag)
    np.multiply(out.imag, 0.0, out=out.real)
    with aside:
        np.exp(out, out=out)
    out *= coefficients
    return out


def _eigenbasis_matrix(spectral: SpectralData, observable: LocalTerm) -> np.ndarray:
    """V^dag A V: the observable between energy eigenstates."""
    v = spectral.eigenvectors
    return v.conj().T @ apply_local(observable.matrix, observable.sites, spectral.lattice, v)


def _block_bands(ens: DiagonalEnsemble, a_eig: np.ndarray):
    """Per band of ens._bands(), its blocks and its rows of the K x K matrix
    w_k^dag A w_l, summed from conj(c_i) (V^dag A V)_ij c_j over the levels
    of blocks k and l.  With one level per block there is nothing to sum."""
    c = ens.coefficients
    for first, stop in ens._bands():
        a, b = ens.blocks[first][0], ens.blocks[stop - 1][1]
        m = a_eig[a:b] * c
        m *= c.conj()[a:b, None]
        if len(ens.blocks) < c.size:
            m = np.add.reduceat(m, np.subtract(ens._starts[first:stop], a), axis=0)
            m = np.add.reduceat(m, ens._starts, axis=1)
        yield slice(first, stop), m
        del m  # released before the next band is formed


def _sample_times(
    spectral: SpectralData, samples: int, horizon: float | None, seed: int, minimum: int
) -> tuple[float, np.ndarray]:
    """The horizon and `samples` seeded uniform times on [0, horizon].  The
    default horizon is 1e4 * dim / ||H||: dephasing the closest typical levels
    takes times of order dim / (spectral width), well beyond 1 / ||H||."""
    check_sampling(samples, horizon, minimum)
    if horizon is None:
        horizon = 1e4 * spectral.dim / max(spectral.norm, 1e-12)
    return float(horizon), np.random.default_rng(seed).uniform(0.0, horizon, size=samples)


class _Turn:
    """Worker k's turn among the workers of ``_deal_bands``, which come in
    the order 0, 1, ..., 0, 1, ..., skipping those that are done.  The
    worker starts by ``take()`` and ends by ``done()``; ``with turn:``
    hands the turn on for its block and takes it back after, so whatever
    the worker allocates outside the block, it allocates in its turn."""

    def __init__(self, k: int, locks: list, finished: list[bool]):
        self.k, self.locks, self.finished = k, locks, finished

    def take(self) -> None:
        self.locks[self.k].acquire()

    def hand_on(self) -> None:
        # in worker k's turn, so `finished` does not change meanwhile
        n = len(self.locks)
        j = (self.k + 1) % n
        while self.finished[j] and j != self.k:
            j = (j + 1) % n
        self.locks[j].release()

    def done(self) -> None:
        self.finished[self.k] = True
        self.hand_on()

    __enter__ = hand_on
    # the with statement fixes the signature
    __exit__ = lambda self, kind, value, traceback: self.take()  # noqa: E731


def _deal_bands(work, times: np.ndarray, dim: int) -> None:
    """Call work(band, table, xy, prod, aside) for each band of TIME_BAND
    times: its slice of the times, and a phase table, a stacked (x; y)
    table and a product buffer cut to its length.

    The bands are dealt round-robin to at most MEMORY_WORKERS workers
    (``ergolab.deal``).  The calling thread allocates each worker's three
    buffers once per call, before the deal, and deals each worker its turn
    and its buffers, so no worker allocates anything large and the
    band loops cost the same however the allocator treats repeated
    band-sized requests.  The workers take turns in a fixed order
    (``_Turn``): a worker runs its steps only in its turn, and hands the
    turn on only inside ``with aside:``, which `work` wraps around its two
    long steps, the exponentials and the product with the large matrix,
    in-place calls that allocate nothing of their own (the product is
    ``ndarray.dot`` with `out`, whose bits ``np.matmul`` and ``np.dot``
    share, but the first allocates its iterator and the second its
    dispatch arguments).  The short steps, where numpy allocates its
    iteration buffers and small results, so run one at a time and always
    in the same order, and the peak memory of a call does not depend on
    how its workers are scheduled.
    """
    starts = range(0, times.size, TIME_BAND)
    workers = min(worker_count(), len(starts), MEMORY_WORKERS)
    rows = min(times.size, TIME_BAND)
    locks, finished = [_thread.allocate_lock() for _ in range(workers)], [False] * workers
    for lock in locks[1:]:
        lock.acquire()
    stacked = (2 * rows, dim)
    dealt = [
        (_Turn(k, locks, finished), np.empty((rows, dim), dtype=complex), np.empty(stacked), np.empty(stacked))
        for k in range(workers)
    ]

    def walk(mine: list) -> None:
        ((turn, table, xy, prod),) = mine
        turn.take()
        try:
            for a in starts[turn.k :: workers]:
                m = min(TIME_BAND, times.size - a)
                work(slice(a, a + m), table[:m], xy[: 2 * m], prod[: 2 * m], turn)
        finally:
            turn.done()

    deal(walk, dealt)


def _as_complex(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A real buffer of 2 x prod(shape) doubles read as a complex array of `shape`."""
    return buffer.reshape(-1).view(complex).reshape(shape)


def evolve_rows(spectral: SpectralData, coefficients: np.ndarray, times) -> np.ndarray:
    """Amplitudes V (exp(-iEt) c) of eigenbasis coefficients c at every
    time: one state-major row per time, each norm checked against
    TOL.normalization band by band.  The rows are written in place a band
    of TIME_BAND times at a time (``_deal_bands``), so no temporary
    outgrows one band.  A real V takes one real product of the phase
    rows' real and imaginary parts stacked."""
    times = np.asarray(times, dtype=float)
    vt = spectral.eigenvectors.T
    rows = np.empty((times.size, spectral.dim), dtype=complex)

    def band_rows(band: slice, table: np.ndarray, xy: np.ndarray, prod: np.ndarray, aside) -> None:
        p = _phase_table(spectral, coefficients, times[band], out=table, aside=aside)
        if np.iscomplexobj(vt):
            with aside:
                p.dot(vt, out=rows[band])
            norms = np.linalg.norm(rows[band], axis=1)
        else:
            m = len(p)
            xy[:m], xy[m:] = p.real, p.imag
            with aside:
                xy.dot(vt, out=prod)
            rows[band].real, rows[band].imag = prod[:m], prod[m:]
            squares = np.einsum("ti,ti->t", prod, prod)
            norms = np.sqrt(squares[:m] + squares[m:])
        drift = np.abs(norms - 1.0)
        if not np.all(drift <= TOL.normalization):
            raise ValueError(f"evolved state norm drifts by {drift.max()!r}")

    _deal_bands(band_rows, times, spectral.dim)
    return rows


def evolve(spectral: SpectralData, state: PureState, time: float) -> PureState:
    c = spectral.coefficients(state.amplitudes)
    return PureState(spectral.lattice, evolve_rows(spectral, c, [time])[0])


def _trajectory(ens: DiagonalEnsemble, a_eig: np.ndarray, times) -> np.ndarray:
    """Re p^dag A p of the phase rows p = exp(-iEt) c, a band of TIME_BAND
    times at a time (``_deal_bands``).  For a real A that is
    x^T A x + y^T A y of p = x + iy: one real product with x and y
    stacked, a quarter of the multiplications of the complex one."""
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)

    def band_values(band: slice, table: np.ndarray, xy: np.ndarray, prod: np.ndarray, aside) -> None:
        p = _phase_table(ens.spectral, ens.coefficients, times[band], out=table, aside=aside)
        if np.iscomplexobj(a_eig):
            conj = np.conjugate(p, out=_as_complex(xy, p.shape))
            with aside:
                pa = conj.dot(a_eig, out=_as_complex(prod, p.shape))
            out[band] = np.einsum("ti,ti->t", pa, p).real
            return
        m = len(p)
        xy[:m], xy[m:] = p.real, p.imag
        with aside:
            xy.dot(a_eig, out=prod)
        both = np.einsum("ti,ti->t", prod, xy)
        out[band] = both[:m] + both[m:]

    _deal_bands(band_values, times, ens.spectral.dim)
    return out


def _dephased_mean(ens: DiagonalEnsemble, a_eig: np.ndarray) -> float:
    """sum_k w_k^dag A w_k: the trace of the block matrix, a band at a time."""
    diag = [m[:, blocks].diagonal().copy() for blocks, m in _block_bands(ens, a_eig)]
    return float(np.real(np.concatenate(diag).sum()))


def expectation_trajectory(
    ens: DiagonalEnsemble, observable: LocalTerm, times: np.ndarray
) -> np.ndarray:
    """<A>(t) on a grid of times, via the eigenbasis."""
    return _trajectory(ens, ens._eigenbasis(observable), times)


def ensemble_expectation(ens: DiagonalEnsemble, observable: LocalTerm) -> float:
    return _dephased_mean(ens, ens._eigenbasis(observable))


def variance_exact(ens: DiagonalEnsemble, observable: LocalTerm) -> float:
    """Infinite-time variance of <A>(t), exact under non-degenerate gaps.

    Computed as the off-diagonal weight of A between energy blocks,
    sum_{k != l} |w_k^dag A w_l|^2.  Validity requires the differences of
    distinct block energies to be non-coincident; certify with gap_report.
    """
    a_eig = ens._eigenbasis(observable)
    off = np.empty((len(ens.blocks),) * 2)
    for blocks, m in _block_bands(ens, a_eig):
        np.abs(m, out=off[blocks])
        del m
    off **= 2
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def check_sampling(samples: int, horizon: float | None, minimum: int) -> None:
    """Reject a time average over fewer than `minimum` samples, or over a
    horizon that is not positive and finite (None picks the default)."""
    if int(samples) < minimum:
        raise ValueError(f"need at least {minimum} time samples, got {shown(samples)}")
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")


@dataclass(frozen=True)
class SampledVariance:
    value: float
    stderr: float
    horizon: float
    samples: int


def variance_sampled(
    ens: DiagonalEnsemble,
    observable: LocalTerm,
    horizon: float | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> SampledVariance:
    """Monte-Carlo estimate of the infinite-time variance of <A>(t).

    Times are uniform on [0, horizon] (default 1e4 * dim / ||H||, see
    _sample_times).  The standard error needs at least two samples.
    """
    horizon, times = _sample_times(ens.spectral, samples, horizon, seed, 2)
    a_eig = ens._eigenbasis(observable)
    dev = (_trajectory(ens, a_eig, times) - _dephased_mean(ens, a_eig)) ** 2
    return SampledVariance(
        value=float(dev.mean()),
        stderr=float(dev.std(ddof=1) / np.sqrt(samples)),
        horizon=horizon,
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
    ens: DiagonalEnsemble,
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
    spectral = ens.spectral
    horizon, times = _sample_times(spectral, samples, horizon, seed, 1)
    keep = site_set(spectral.lattice, region)
    rho_s = _reduced_states(evolve_rows(spectral, ens.coefficients, times), keep.sites, spectral.lattice)
    dists = np.abs(np.linalg.eigvalsh(rho_s - ens.reduced(keep).matrix)).sum(axis=1)
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
        horizon=horizon,
        passed=bool(mean <= bound),
    )
