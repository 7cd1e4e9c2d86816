"""Entanglement scans over eigenstates and the equilibration constants
they certify.

An eigenstate is scanned for its most entangled subsystem (any shape, at
most half the chain).  Binning the per-state maxima by energy density and
taking lower envelopes gives a piecewise-linear g(e) with Lipschitz
constant K; together with a fitted tail constant m these produce the
density-resolved rate k(e) that controls how fast diagonal-ensemble
entropies must grow with system size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import MEMORY_WORKERS, deal, worker_count
from .ensembles import (
    DiagonalEnsemble,
    VarianceBoundReport,
    check_variance_bounds,
    site_observable,
)
from .fits import fit_line
from .hamiltonians import SpectralData, build_model, diagonalize, gap_report
from .states import (
    LatticeSpec,
    PureState,
    ResourceGuardError,
    _rows_renyi2,
    basis_product_state,
    random_product_state,
    shown,
)

SEARCH_MODES = ("exhaustive", "random-sample", "half-cut-only")
STATE_RECIPES = ("neel", "all-up", "random-product")
EXHAUSTIVE_GUARD = 10**6
ZERO_G = 1e-10
# bulk populations may exceed exp(-g(e) N / 4) by this factor
BULK_SLACK = 10.0
# absolute gap-coincidence tolerance of the variance trend, and how far
# its log-Var slope may sit above -k(e)
TREND_GAP_TOLERANCE = 1e-12
TREND_FIT_TOLERANCE = 0.1
# bytes of state-major rows per scan block of up to MEMORY_WORKERS workers:
# small enough to stay in L2; more workers share MEMORY_WORKERS blocks' worth
SCAN_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SearchPolicy:
    """How to pick candidate subsystems for the per-eigenstate scan.

    random-sample (the default) mixes a seeded pool of random subsets with
    every contiguous window of the maximal size and the even/odd
    sublattices, covering non-contiguous shapes at bounded cost.
    """

    mode: str = "random-sample"
    max_fraction: float = 0.5
    budget: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SEARCH_MODES:
            raise ValueError(f"mode must be one of {SEARCH_MODES}")
        if not 0.0 < self.max_fraction <= 0.5:
            raise ValueError("max_fraction must lie in (0, 1/2]")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def max_size(self, num_sites: int) -> int:
        k = math.floor(num_sites * self.max_fraction)
        if k < 1:
            raise ValueError("max_fraction admits no subsystem on this lattice")
        return k


def _windows(num_sites: int, size: int, periodic: bool) -> list[tuple[int, ...]]:
    if periodic:
        starts = range(num_sites)
    else:
        starts = range(num_sites - size + 1)
    seen = {}
    for s in starts:
        w = tuple(sorted((s + k) % num_sites for k in range(size)))
        seen[w] = None
    return list(seen)


def candidate_subsets(lattice: LatticeSpec, policy: SearchPolicy) -> list[tuple[int, ...]]:
    n = lattice.num_sites
    kmax = policy.max_size(n)
    periodic = lattice.geometry == "chain-periodic"
    if policy.mode == "exhaustive":
        total = sum(math.comb(n, k) for k in range(1, kmax + 1))
        if total > EXHAUSTIVE_GUARD:
            raise ResourceGuardError(
                f"exhaustive scan over {total} subsets exceeds guard {EXHAUSTIVE_GUARD}"
            )
        from itertools import combinations

        out = []
        for k in range(1, kmax + 1):
            out.extend(tuple(c) for c in combinations(range(n), k))
        return out
    if policy.mode == "half-cut-only":
        return _windows(n, kmax, periodic)
    pool: dict[tuple[int, ...], None] = {}
    for w in _windows(n, kmax, periodic):
        pool[w] = None
    for parity in (0, 1):
        sub = tuple(range(parity, n, 2))
        if 0 < len(sub) <= kmax:
            pool[sub] = None
    rng = np.random.default_rng(policy.seed)
    for _ in range(policy.budget):
        k = int(rng.integers(1, kmax + 1))
        sites = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
        pool[sites] = None
    return list(pool)


def _scan(
    vectors: np.ndarray, lattice: LatticeSpec, cands: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray]:
    """Largest S_2 over `cands` for every column, and the index of the first
    candidate (in table order) that reaches it.

    States go in blocks of about SCAN_BLOCK_BYTES · min(1, MEMORY_WORKERS /
    workers), for the worker_count() workers of the deal, one per CPU, so
    the blocks alive at once hold at most MEMORY_WORKERS blocks' worth of
    bytes whatever the number of CPUs.
    Each block is copied once into state-major rows, which stay
    cache-resident while the candidates are evaluated on them.  Candidates
    are visited largest first, ties by table index, and a candidate of size
    |A| is evaluated only on the rows whose best S_2 is at most
    |A| log d + 1e-12: S_2(A) <= |A| log d, so no row above that ceiling
    can be beaten or tied.  A row takes a candidate's S_2 when it is
    larger, or equal with a lower table index.  Each row depends on itself
    only, so the blocks are dealt by ``ergolab.deal`` (numpy releases the
    GIL in take, matmul and einsum); a single block runs in the calling
    thread alone.  Scanning a share in the calling thread spares one
    thread's malloc arena, which would otherwise keep its freed blocks
    resident.
    """
    nst = vectors.shape[1]
    best_s2 = np.full(nst, -1.0)
    best_idx = np.zeros(nst, dtype=int)
    block_bytes = SCAN_BLOCK_BYTES * MEMORY_WORKERS // max(MEMORY_WORKERS, worker_count())
    step = max(1, block_bytes // (vectors.shape[0] * vectors.itemsize))
    log_d = math.log(lattice.local_dim)
    visit = sorted(range(len(cands)), key=lambda ci: (-len(cands[ci]), ci))

    def scan_block(start: int) -> None:
        rows = np.ascontiguousarray(vectors[:, start : start + step].T)
        block_s2 = best_s2[start : start + step]
        block_idx = best_idx[start : start + step]
        live = np.arange(rows.shape[0])
        for ci in visit:
            below = block_s2[live] <= len(cands[ci]) * log_d + 1e-12
            if not below.all():
                live, rows = live[below], rows[below]
                if not live.size:
                    return
            s2 = _rows_renyi2(rows, lattice, cands[ci])
            held = block_s2[live]
            upd = (s2 > held) | ((s2 == held) & (ci < block_idx[live]))
            block_s2[live[upd]] = s2[upd]
            block_idx[live[upd]] = ci

    def scan_share(starts: range) -> None:
        for start in starts:
            scan_block(start)

    deal(scan_share, range(0, nst, step))
    return best_s2, best_idx


@dataclass
class ErgodicityProfile:
    """Per-eigenstate entanglement maxima with a fitted lower envelope.

    The envelope is piecewise linear with knots on the populated density
    bins; each knot takes the smaller of the two adjacent bin minima, so
    no recorded point ever falls below the envelope.
    """

    lattice: LatticeSpec
    model: str
    policy: SearchPolicy
    densities: np.ndarray
    s2_over_n: np.ndarray
    best_subsets: list[tuple[int, ...]]
    knots_e: np.ndarray
    knots_g: np.ndarray
    lipschitz_k: float

    @property
    def num_sites(self) -> int:
        return self.lattice.num_sites

    def g_at(self, e: float) -> float:
        return float(np.interp(e, self.knots_e, self.knots_g))

    def delta_at(self, e: float) -> float:
        g = self.g_at(e)
        if self.lipschitz_k == 0.0:
            return math.inf
        return g / (2.0 * self.lipschitz_k)

    def k_at(self, e: float, m: float) -> float:
        """Density-resolved growth rate (1/4) g min{1, m g / K^2} for the
        tail constant m."""
        g = self.g_at(e)
        if g <= 0.0:
            return 0.0
        if self.lipschitz_k == 0.0:
            return 0.25 * g
        return 0.25 * g * min(1.0, m * g / self.lipschitz_k**2)

    @property
    def ergodic_interior(self) -> bool:
        """Envelope strictly positive away from the spectral edges."""
        e_lo, e_hi = float(self.knots_e[0]), float(self.knots_e[-1])
        inner = [
            g
            for e, g in zip(self.knots_e, self.knots_g)
            if e_lo < e < e_hi
        ]
        return bool(inner) and min(inner) > ZERO_G


def _fit_envelope(
    densities: np.ndarray, values: np.ndarray, e_max: float, num_bins: int
) -> tuple[np.ndarray, np.ndarray, float]:
    edges = np.linspace(0.0, e_max, num_bins + 1)
    idx = np.clip(np.digitize(densities, edges) - 1, 0, num_bins - 1)
    minima = np.full(num_bins, np.nan)
    for b in range(num_bins):
        hit = idx == b
        if hit.any():
            minima[b] = values[hit].min()
    populated = [b for b in range(num_bins) if not np.isnan(minima[b])]
    if len(populated) < 3:
        raise ValueError(
            f"only {len(populated)} populated density bins; envelope fit refused"
        )
    knots: list[tuple[float, float]] = []
    for pos, b in enumerate(populated):
        prev_b = populated[pos - 1] if pos > 0 else None
        next_b = populated[pos + 1] if pos + 1 < len(populated) else None
        left = minima[b] if prev_b != b - 1 else min(minima[b - 1], minima[b])
        right = minima[b] if next_b != b + 1 else min(minima[b], minima[b + 1])
        if not knots or knots[-1][0] != edges[b]:
            knots.append((float(edges[b]), float(left)))
        knots.append((float(edges[b + 1]), float(right)))
    kx = np.array([k[0] for k in knots])
    ky = np.array([k[1] for k in knots])
    slopes = np.diff(ky) / np.diff(kx)
    lipschitz = float(np.abs(slopes).max()) if slopes.size else 0.0
    return kx, ky, lipschitz


def envelope_bins(num_bins: int) -> int:
    """Density bins of an envelope fit: at least three, the fewest populated
    bins the fit accepts."""
    num_bins = int(num_bins)
    if num_bins < 3:
        raise ValueError(f"envelope fit needs at least 3 density bins, got {shown(num_bins)}")
    return num_bins


def build_profile(
    spectral: SpectralData,
    policy: SearchPolicy | None = None,
    num_bins: int = 20,
) -> ErgodicityProfile:
    """Scan every eigenstate and fit the density-binned lower envelope.

    The scan runs over blocks of eigenstates, dealt by ``ergolab.deal`` to
    one thread per CPU, each block of about SCAN_BLOCK_BYTES for up to
    MEMORY_WORKERS workers and MEMORY_WORKERS/workers of that for more, so
    the scan's memory does not grow with the CPU count; neither the deal
    nor the block size changes a state's arithmetic, so the bits do not
    depend on the CPU count.  A block is copied once into state-major
    rows, and the candidate subsystems are then evaluated on it, largest
    first: the rows are gathered into the candidate's bipartition order
    with one precomputed index, so the eigenvector matrix is read once per
    profile rather than transposed once per candidate.  A candidate of
    size |A| skips the rows whose best S_2 already exceeds its ceiling
    |A| log d.  Real eigenvectors stay real; ties keep the candidate that
    comes first in table order.
    """
    num_bins = envelope_bins(num_bins)
    policy = policy or SearchPolicy()
    lattice = spectral.lattice
    if spectral.e_max <= 0:
        raise ValueError("spectrum has no width; nothing to profile")
    cands = candidate_subsets(lattice, policy)
    best_s2, best_idx = _scan(spectral.eigenvectors, lattice, cands)
    best_s2 = np.maximum(best_s2, 0.0)
    values = best_s2 / lattice.num_sites
    densities = spectral.densities
    kx, ky, lipschitz = _fit_envelope(densities, values, spectral.e_max, num_bins)
    return ErgodicityProfile(
        lattice=lattice,
        model=spectral.hamiltonian.name,
        policy=policy,
        densities=densities.copy(),
        s2_over_n=values,
        best_subsets=[cands[i] for i in best_idx],
        knots_e=kx,
        knots_g=ky,
        lipschitz_k=lipschitz,
    )


@dataclass(frozen=True)
class TailReport:
    """Fit of the exponential suppression of far-from-center populations."""

    m: float | None
    intercept: float | None
    r_squared: float | None
    delta: float
    points: tuple[tuple[int, float, float, float], ...]  # (N, e, delta^2 N, max tail pop)
    skipped: tuple[str, ...]
    note: str
    passed: bool


def tail_check(
    ensembles: Sequence[DiagonalEnsemble], e: Sequence[float], delta: float
) -> TailReport:
    """Maximum population outside [e - delta, e + delta], per system size
    (one center density per ensemble), fitted against exp(-m delta^2 N).

    A single usable point gives a direct one-point solve for m; several
    give a least-squares slope.  Empty tails are skipped with a note.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if len(e) != len(ensembles):
        raise ValueError("one center density per ensemble required")
    points: list[tuple[int, float, float, float]] = []
    skipped: list[str] = []
    for ens, ctr in zip(ensembles, map(float, e)):
        n = ens.spectral.lattice.num_sites
        dens = ens.block_energies / n
        tail = np.abs(dens - ctr) > delta
        if not tail.any():
            skipped.append(f"N={n}: tail empty (no levels outside the window)")
            continue
        top = float(ens.populations[tail].max())
        if top <= 0.0:
            skipped.append(f"N={n}: tail populations vanish")
            continue
        points.append((n, ctr, delta**2 * n, top))
    m = intercept = r2 = None
    note = "no usable tail points"
    if points:
        x = np.array([p[2] for p in points])
        y = np.log(np.array([p[3] for p in points]))
        if len(points) == 1:
            m, intercept = float(-y[0] / x[0]), 0.0
            note = "single ensemble: direct solve, no regression"
        else:
            slope, intercept, r2 = fit_line(x, y)
            m, note = -slope, ""
    return TailReport(
        m=m,
        intercept=intercept,
        r_squared=r2,
        delta=delta,
        points=tuple(points),
        skipped=tuple(skipped),
        note=note,
        passed=m is not None and m > 0,
    )


@dataclass(frozen=True)
class BulkReport:
    """Populations near the center density against the envelope bound."""

    e: float
    delta: float
    g_at_e: float
    threshold: float
    slack: float
    bulk_levels: int
    max_bulk_population: float
    violations: int
    overlap_checked: int
    overlap_violations: int
    applicable: bool
    note: str
    passed: bool


def bulk_check(ens: DiagonalEnsemble, profile: ErgodicityProfile, e: float) -> BulkReport:
    """Every population within delta of e must fall below
    exp(-g(e) N / 4) times BULK_SLACK.

    The window half-width delta is g(e)/(2K), which by the Lipschitz
    property keeps the envelope above g(e)/2 across the window.  Each
    singleton level is also cross-checked against the per-eigenstate
    product-overlap bound exp(-S_2(best subsystem)/2); this requires the
    ensemble to stem from a product state.
    """
    n = profile.num_sites
    g = profile.g_at(e)
    # where the envelope vanishes the bound is inapplicable: an empty window
    applicable = g > ZERO_G
    delta = profile.delta_at(e) if applicable else 0.0
    threshold = math.exp(-g * n / 4.0) if applicable else 1.0
    bulk = (np.abs(ens.block_energies / n - e) <= delta) & applicable
    pops = ens.populations[bulk]
    violations = int(np.sum(pops > BULK_SLACK * threshold))
    # per-level overlap cross-check, singleton blocks only
    overlap_checked = 0
    overlap_violations = 0
    for k in np.nonzero(bulk)[0]:
        a, b = ens.blocks[k]
        if b - a != 1:
            continue
        overlap_checked += 1
        s2 = profile.s2_over_n[a] * n
        if ens.populations[k] > math.exp(-0.5 * s2) + 1e-12:
            overlap_violations += 1
    if not applicable:
        note = "envelope vanishes at this density; bound inapplicable"
    else:
        note = "" if bulk.any() else "window contains no levels; vacuous pass"
    return BulkReport(
        e=e,
        delta=float(delta),
        g_at_e=g,
        threshold=threshold,
        slack=BULK_SLACK,
        bulk_levels=int(bulk.sum()),
        max_bulk_population=float(pops.max()) if pops.size else 0.0,
        violations=violations,
        overlap_checked=overlap_checked,
        overlap_violations=overlap_violations,
        applicable=applicable,
        note=note,
        passed=violations == 0 and overlap_violations == 0,
    )


def initial_state(recipe: str, lattice: LatticeSpec, seed: int = 0) -> PureState:
    """Product-state recipes reused across system sizes.

    Strings: "neel" (alternating basis digits), "all-up" (all zeros),
    "random-product" (seeded Haar single-site factors).
    """
    if recipe == "neel":
        return basis_product_state(
            lattice, tuple(i % 2 for i in range(lattice.num_sites))
        )
    if recipe == "all-up":
        return basis_product_state(lattice, (0,) * lattice.num_sites)
    if recipe == "random-product":
        return random_product_state(lattice, seed)
    raise ValueError(f"unknown state recipe {shown(recipe)}; one of {STATE_RECIPES}")


@dataclass(frozen=True)
class VarianceTrendReport:
    """Exact infinite-time variances across sizes, with gap certification."""

    observable: str
    included: tuple[int, ...]
    excluded: tuple[tuple[int, str], ...]
    variances: tuple[float, ...]
    bounds_s2: tuple[float, ...]
    slope: float | None
    intercept: float | None
    negative_slope: bool | None
    k_consistent: bool | None
    pointwise_ok: bool
    note: str
    passed: bool


def variance_decay_trend(
    ensembles: Sequence[DiagonalEnsemble], k_of_e: float
) -> VarianceTrendReport:
    """log Var vs N of the mid-chain Z, one ensemble per size, skipping
    sizes whose gap scan finds coincidences at TREND_GAP_TOLERANCE.

    Gap differences shrink roughly exponentially with size, so such sizes
    are excluded rather than certified with a loose tolerance.  Each
    variance must sit below its ||A||^2 exp(-S_2) bound, and the fitted
    slope must reach -k(e) up to TREND_FIT_TOLERANCE.  A variance that is
    exactly zero at every size (eigenstate input) is a trivial pass.
    """
    included: list[int] = []
    excluded: list[tuple[int, str]] = []
    bounds: list[VarianceBoundReport] = []
    for ens in ensembles:
        spec = ens.spectral
        n = spec.lattice.num_sites
        rep = gap_report(spec, tolerance=TREND_GAP_TOLERANCE)
        if rep.degenerate_levels or rep.degenerate_gap_pairs:
            why = (
                f"{rep.degenerate_levels} coincident levels, {rep.degenerate_gap_pairs} "
                f"coincident gap pairs at tol {TREND_GAP_TOLERANCE:g}"
            )
            excluded.append((n, why))
            continue
        included.append(n)
        bounds.append(check_variance_bounds(ens, site_observable(spec.lattice, n // 2)))
    variances = tuple(b.variance for b in bounds)
    pointwise_ok = all(b.variance <= b.bound_s2 + 1e-12 for b in bounds)
    slope = intercept = negative = k_ok = None
    note = ""
    if not variances:
        note, passed = "every size excluded by the gap scan", False
    elif max(variances) < 1e-25:
        note, passed = "variance identically zero; state is stationary", True
    elif len(variances) < 2:
        note, passed = "single included size; no trend fit", False
    else:
        slope, intercept, _ = fit_line(included, np.log(np.maximum(variances, 1e-300)))
        negative = slope < 0
        k_ok = slope <= -k_of_e + TREND_FIT_TOLERANCE
        passed = negative and pointwise_ok and k_ok
    return VarianceTrendReport(
        observable="z[mid]",
        included=tuple(included),
        excluded=tuple(excluded),
        variances=variances,
        bounds_s2=tuple(b.bound_s2 for b in bounds),
        slope=slope,
        intercept=intercept,
        negative_slope=negative,
        k_consistent=k_ok,
        pointwise_ok=pointwise_ok,
        note=note,
        passed=passed,
    )


@dataclass(frozen=True)
class EntropyGrowthReport:
    """Diagonal-ensemble min-entropy growth over a family of chain sizes."""

    model: str
    recipe: str
    sizes: tuple[int, ...]
    e_centers: tuple[float, ...]
    e_star: float
    s_inf: tuple[float, ...]
    slope: float
    intercept: float
    increasing: bool
    g_at_e: float
    lipschitz_k: float
    delta: float
    fitted_m: float | None
    k_of_e: float
    constant_c: float
    bulk: tuple[BulkReport, ...]
    tail: TailReport
    variance_trend: VarianceTrendReport
    applicable: bool
    passed: bool


def growth_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Chain sizes of a growth trend: at least two, strictly increasing."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("need at least two strictly increasing sizes")
    return sizes


def diagonal_entropy_growth(
    sizes: Sequence[int] = (6, 8, 10, 12),
    model: str = "mixed-field-ising",
    recipe="neel",
    policy: SearchPolicy | None = None,
    num_bins: int = 20,
    seed: int = 0,
    geometry: str = "chain-open",
) -> tuple[EntropyGrowthReport, list]:
    """Grow the chain with a fixed product-state recipe and verify that
    the dephased state's min-entropy rises at least linearly.

    Returns the report and the runs it was computed from, one
    (N, spectral data, diagonal ensemble, profile) per size.

    Also evaluates the full constant chain on the same data: envelope g
    and Lipschitz K per size, window delta = g/(2K), tail constant m from
    the cross-size fit, rate k(e) = (1/4) g min{1, m g/K^2}, and the
    smallest shift c with S_inf >= k(e) N - c across the grid.  Bulk
    populations are checked against exp(-g(e)N/4) with BULK_SLACK at every
    size, and the same ensembles give the infinite-time variance trend,
    whose slope must reach -k(e).  The constant c is reported, never
    asserted.
    """
    sizes = growth_sizes(sizes)
    policy = policy or SearchPolicy()
    runs = []
    for n in sizes:
        lat = LatticeSpec(n, 2, geometry)
        ham = build_model(model, lat, seed=seed)
        spec = diagonalize(ham)
        psi = initial_state(recipe, lat, seed)
        ens = DiagonalEnsemble(spec, psi)
        prof = build_profile(spec, policy, num_bins)
        runs.append((n, spec, ens, prof))
    s_inf = tuple(float(ens.entropy(np.inf)) for _, _, ens, _ in runs)
    e_centers = tuple(
        float(np.dot(ens.populations, ens.block_energies)) / n
        for n, _, ens, _ in runs
    )
    top_prof = runs[-1][3]
    e_star = e_centers[-1]
    g_star = top_prof.g_at(e_star)
    k_lip = top_prof.lipschitz_k
    delta_star = top_prof.delta_at(e_star)
    applicable = g_star > ZERO_G and math.isfinite(delta_star)
    tail = tail_check(
        [ens for _, _, ens, _ in runs],
        e_centers,
        delta_star if applicable else max(runs[-1][1].e_max * 0.1, 1e-3),
    )
    bulk = tuple(
        bulk_check(ens, prof, e_c)
        for (n, _, ens, prof), e_c in zip(runs, e_centers)
    )
    slope, intercept, _ = fit_line(sizes, s_inf)
    increasing = all(b > a for a, b in zip(s_inf, s_inf[1:]))
    if applicable and tail.m is not None:
        k_of_e = top_prof.k_at(e_star, tail.m)
    else:
        k_of_e = 0.0
    constant_c = max(
        [k_of_e * n - s for n, s in zip(sizes, s_inf)] + [0.0]
    )
    trend = variance_decay_trend([ens for _, _, ens, _ in runs], k_of_e)
    passed = (
        applicable
        and increasing
        and slope > 0
        and tail.passed
        and all(b.passed for b in bulk)
        and trend.passed
    )
    return EntropyGrowthReport(
        model=model,
        recipe=recipe,
        sizes=sizes,
        e_centers=e_centers,
        e_star=e_star,
        s_inf=s_inf,
        slope=slope,
        intercept=intercept,
        increasing=increasing,
        g_at_e=g_star,
        lipschitz_k=k_lip,
        delta=delta_star,
        fitted_m=tail.m,
        k_of_e=k_of_e,
        constant_c=constant_c,
        bulk=bulk,
        tail=tail,
        variance_trend=trend,
        applicable=applicable,
        passed=passed,
    ), runs
