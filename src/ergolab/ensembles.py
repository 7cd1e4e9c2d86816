"""Diagonal ensembles, infinite-time variances, and equilibration bounds.

A quench is one `DiagonalEnsemble`: the spectrum and the initial state's
eigenbasis coefficients c, projected once.  Every ensemble quantity and
time average reads it a band of levels or of times at a time, so no
dim x dim matrix of an observable is formed.
"""

from __future__ import annotations

import _thread
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import BAND_ROWS, MEMORY_WORKERS, deal, worker_count
from .entropy import renyi_entropy
from .hamiltonians import LocalTerm, SpectralData, _matmul, degenerate_groups
from .operators import _local_support, apply_local, pauli, random_hermitian
from .states import (
    DensityMatrix, LatticeSpec, PureState, SiteSet, _reduced_states, _sublattice, bipartition_matrix, shown, site_set
)
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
        block that holds a level index divisible by BAND_ROWS, where
        band(level before the block) < band(the block's last level)."""
        before = np.subtract([*self._starts, self.spectral.dim], 1) // BAND_ROWS
        firsts = np.flatnonzero(np.diff(before))
        return zip(firsts, [*firsts[1:], len(self.blocks)])

    def _block_rows(self, first: int, stop: int) -> np.ndarray:
        """w_k of the blocks first <= k < stop, one state-major row each."""
        a, b = self.blocks[first][0], self.blocks[stop - 1][1]
        levels = self.coefficients[a:b, None] * self.spectral.eigenvectors[:, a:b].T
        return np.add.reduceat(levels, np.subtract(self._starts[first:stop], a), axis=0)

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


def _deal_bands(work, bands: range, buffers) -> None:
    """Call work(band, *scratch, aside) for each of `bands`, with the
    scratch arrays of the worker that walks it.

    The bands are dealt round-robin to at most MEMORY_WORKERS workers
    (``ergolab.deal``).  The calling thread makes each worker's scratch,
    ``buffers()``, once per call, before the deal, and deals each worker
    its turn and its scratch, so no worker allocates anything large and
    the band loops cost the same however the allocator treats repeated
    band-sized requests.  The workers take turns in a fixed order
    (``_Turn``): a worker runs its steps only in its turn, and hands the
    turn on only inside ``with aside:``, which `work` wraps around its
    long steps, the exponentials and the products with the large matrix,
    in-place calls that allocate nothing of their own (a product is
    ``ndarray.dot`` with `out`, whose bits ``np.matmul`` and ``np.dot``
    share, but the first allocates its iterator and the second its
    dispatch arguments; ``np.matmul`` serves where ``ndarray.dot`` would
    copy an operand that is a slice of columns).  The short steps, where
    numpy allocates its iteration buffers and small results, so run one
    at a time and always in the same order, and the peak memory of a call
    does not depend on how its workers are scheduled.
    """
    workers = min(worker_count(), len(bands), MEMORY_WORKERS)
    locks, finished = [_thread.allocate_lock() for _ in range(workers)], [False] * workers
    for lock in locks[1:]:
        lock.acquire()
    dealt = [(_Turn(k, locks, finished), buffers()) for k in range(workers)]

    def walk(mine: list) -> None:
        ((turn, scratch),) = mine
        turn.take()
        try:
            for band in bands[turn.k :: workers]:
                work(band, *scratch, turn)
        finally:
            turn.done()

    deal(walk, dealt)


def reduced_trajectory(spectral: SpectralData, coefficients: np.ndarray, times, keep: tuple[int, ...], f) -> np.ndarray:
    """f(rho_S(t)) at every time, rho_S(t) the reduced state on `keep` of
    V (exp(-iEt) c) for eigenbasis coefficients c; f maps a stack of
    reduced states to one value each and runs in the worker's turn.

    The times are walked in bands of BAND_ROWS (``_deal_bands``), each
    worker with a complex phase table and two real tables of 2 BAND_ROWS
    rows, 6 BAND_ROWS dim doubles whatever the time count.  A band's rows
    are one product against V, each norm checked against TOL.normalization;
    for a real V, a real product of the phase rows' real parts stacked over
    their imaginary parts, and rho_S = X X^T + Y Y^T + i (K - K^T), K =
    Y X^T, from one real bipartition copy (X; Y): no complex row is formed."""
    times = np.asarray(times, dtype=float)
    lattice, dim, vt = spectral.lattice, spectral.dim, spectral.eigenvectors.T
    out = np.empty(times.size)

    def band_values(a: int, table: np.ndarray, xy: np.ndarray, prod: np.ndarray, aside) -> None:
        band = slice(a, a + BAND_ROWS)
        m = len(out[band])
        p = _phase_table(spectral, coefficients, times[band], out=table[:m], aside=aside)
        if np.iscomplexobj(vt):
            psi = prod[: 2 * m].reshape(-1).view(complex).reshape(p.shape)
            with aside:
                p.dot(vt, out=psi)
            norms = np.linalg.norm(psi, axis=1)
        else:
            xy, psi = xy[: 2 * m], prod[: 2 * m]
            xy[:m], xy[m:] = p.real, p.imag
            with aside:
                xy.dot(vt, out=psi)
            squares = np.einsum("ti,ti->t", psi, psi)
            norms = np.sqrt(squares[:m] + squares[m:])
        drift = np.abs(norms - 1.0)
        if not np.all(drift <= TOL.normalization):
            raise ValueError(f"evolved state norm drifts by {drift.max()!r}")
        if np.iscomplexobj(psi):
            rho = _reduced_states(psi, keep, lattice)
        else:
            parts = bipartition_matrix(psi, keep, lattice)
            x, y = parts[:m], parts[m:]
            k = y @ x.swapaxes(-1, -2)
            rho = np.empty(k.shape, dtype=complex)
            rho.real = x @ x.swapaxes(-1, -2)
            rho.real += y @ y.swapaxes(-1, -2)
            rho.imag = k
            rho.imag -= k.swapaxes(-1, -2)
        out[band] = f(rho)

    rows = min(times.size, BAND_ROWS)
    _deal_bands(
        band_values,
        range(0, times.size, BAND_ROWS),
        lambda: (np.empty((rows, dim), dtype=complex), np.empty((2 * rows, dim)), np.empty((2 * rows, dim))),
    )
    return out


def evolve(spectral: SpectralData, state: PureState, time: float) -> PureState:
    """The state at `time`, V (exp(-iEt) c), in the bits of a band of one
    time of ``reduced_trajectory``; ``PureState`` checks its norm."""
    p = np.empty((1, spectral.dim), dtype=complex)
    _phase_table(spectral, spectral.coefficients(state.amplitudes), np.array([time], dtype=float), p, nullcontext())
    return PureState(spectral.lattice, _matmul(p, spectral.eigenvectors.T, np.empty_like(p))[0])


def expectation_trajectory(ens: DiagonalEnsemble, observable: LocalTerm, times: np.ndarray) -> np.ndarray:
    """<A>(t) = tr(rho_S(t) A) on a grid of times, rho_S(t) the reduced
    state on A's support (``reduced_trajectory``)."""
    a = observable.matrix
    keep = _local_support(a, observable.sites, ens.spectral.lattice)
    return reduced_trajectory(
        ens.spectral, ens.coefficients, times, keep, lambda rho: np.einsum("tab,ba->t", rho, a).real
    )


def ensemble_expectation(ens: DiagonalEnsemble, observable: LocalTerm) -> float:
    """tr(omega_S A) of the dephased state on A's support (``reduced``)."""
    omega = ens.reduced(observable.sites).matrix
    return float(np.einsum("ab,ba->", omega, observable.matrix).real)


def variance_exact(ens: DiagonalEnsemble, observable: LocalTerm) -> float:
    """Infinite-time variance of <A>(t), exact under non-degenerate gaps.

    Computed as the off-diagonal weight of A between energy blocks,
    sum_{k != l} |w_k^dag A w_l|^2 = 2 sum_{k < l} |w_k^dag A w_l|^2.
    Validity requires the differences of distinct block energies to be
    non-coincident; certify with gap_report.

    The blocks are walked a band at a time (``DiagonalEnsemble._bands``),
    dealt by ``_deal_bands``.  The band's rows of V^dag A V, from its first
    level a on and transposed, are one product V[:, a:]^T conj(A V_band),
    a real one for a real V, which reads a complex conj(A V_band) as real
    and imaginary columns side by side.  Scaled by conj(c_i) c_j and summed
    over the levels of each block, they are the band's rows of the block
    matrix.  Each band's weight has its own slot and the slots are added in
    band order, so the value does not depend on the worker count.
    """
    spectral, c, starts = ens.spectral, ens.coefficients, np.asarray(ens._starts)
    v, dim = spectral.eigenvectors, spectral.dim
    bands = list(ens._bands())
    weights = np.zeros(len(bands))
    levels = max(ens.blocks[stop - 1][1] - ens.blocks[first][0] for first, stop in bands)
    dtype, p = np.result_type(v, observable.matrix), np.abs(c) ** 2
    flat = (lambda x: x) if np.iscomplexobj(v) else (lambda x: x.view(float))

    def band_weight(j: int, scratch: np.ndarray, aside) -> None:
        first, stop = bands[j]
        a, b = ens.blocks[first][0], ens.blocks[stop - 1][1]
        av = apply_local(observable.matrix, observable.sites, spectral.lattice, v[:, a:b])
        np.conjugate(av, out=av)
        cols = scratch[: (dim - a) * (b - a)].reshape(dim - a, b - a)
        with aside:
            np.matmul(v[:, a:].T, flat(av), out=flat(cols))
        if len(ens.blocks) < dim:
            cols = cols * c[a:, None]
            cols *= c[a:b].conj()
            cols = np.add.reduceat(cols, starts[first:] - a, axis=0)
            cols = np.add.reduceat(cols, starts[first:stop] - a, axis=1)
        weight = np.abs(cols, out=None if np.iscomplexobj(cols) else cols)
        weight *= weight
        if len(ens.blocks) == dim:  # |conj(c_i) A_ij c_j|^2 = p_i |A_ij|^2 p_j
            weight *= p[a:, None]
            weight *= p[a:b]
        weights[j] = weight[stop - first :].sum() + np.tril(weight[: stop - first], -1).sum()

    _deal_bands(band_weight, range(len(bands)), lambda: (np.empty(levels * dim, dtype=dtype),))
    return float(2.0 * weights.sum())


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
    dev = (expectation_trajectory(ens, observable, times) - ensemble_expectation(ens, observable)) ** 2
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
    omega = ens.reduced(keep).matrix
    dists = reduced_trajectory(
        spectral, ens.coefficients, times, keep.sites, lambda rho: np.abs(np.linalg.eigvalsh(rho - omega)).sum(axis=1)
    )
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
