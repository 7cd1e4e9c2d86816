"""Product-overlap machinery: the epsilon interpolation family, overlap
maximization over product states, and the entropy-based overlap bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import renyi_entropy
from .fits import fit_line
from .hamiltonians import dense_guard
from .states import (
    LatticeSpec,
    PureState,
    SiteSet,
    _product_rows,
    _random_factors,
    _row_norms,
    bipartition_matrix,
    maximally_entangled,
    overlap,
    partial_trace,
    site_set,
    state_to_json,
)

INF = math.inf
# Renyi orders of the family's constant bounds, the slack on top of them,
# and the S_1 slope window as fractions of (eps/2) log d
FAMILY_ALPHAS = (2.0, 3.0, INF)
FAMILY_SLACK = 0.1
FAMILY_SLOPE_WINDOW = (0.8, 1.2)
# an alternating sweep that gains less than this ends the optimisation
SWEEP_TOL = 1e-12


def product_state_from_factors(
    lattice: LatticeSpec, factors: Sequence[np.ndarray]
) -> PureState:
    if len(factors) != lattice.num_sites:
        raise ValueError("one single-site factor per site required")
    if any(np.shape(f) != (lattice.local_dim,) for f in factors):
        raise ValueError("factor dimension mismatch")
    f = np.asarray(factors, dtype=complex)
    return PureState(lattice, _product_rows(f / _row_norms(f)[:, None]))


@dataclass(frozen=True)
class EpsilonState:
    """Normalized interpolation between a product state and a half-cut
    maximally entangled state.

    delta records the norm of the entangled part contracted against the
    product factors outside the cut; the normalization defect is bounded
    by twice that overlap norm.
    """

    lattice: LatticeSpec
    epsilon: float
    half_cut: SiteSet
    product_part: PureState
    entangled_part: PureState
    state: PureState
    delta: float
    normalization_defect: float


def build_epsilon_state(
    lattice: LatticeSpec,
    epsilon: float,
    seed: int = 0,
) -> EpsilonState:
    """sqrt(1-eps) |product> + sqrt(eps) |entangled>, explicitly normalized.

    Requires an even chain; the cut is its first half.  The entangled part
    pairs cut site k with the k-th site of the complement, in order; the
    pairing is fixed only for reproducibility.  A chain of more than
    DENSE_DIM_GUARD states is refused before anything is allocated.
    """
    n, d = lattice.num_sites, lattice.local_dim
    dense_guard(lattice.dim)
    if n % 2:
        raise ValueError("epsilon family needs an even number of sites")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    cut = site_set(lattice, range(n // 2))
    factors = _random_factors(lattice, np.random.default_rng(seed), 1)[0]
    psi = product_state_from_factors(lattice, factors)
    omega = maximally_entangled(lattice, cut)
    raw = math.sqrt(1.0 - epsilon) * psi.amplitudes + math.sqrt(epsilon) * omega.amplitudes
    norm = float(np.linalg.norm(raw))
    defect = abs(norm - 1.0)
    # overlap norm of the entangled part with the product factors off the cut
    entangled = bipartition_matrix(omega.amplitudes, cut.sites, lattice)
    off_cut = _product_rows(factors[list(cut.complement().sites)]).conj()
    delta = float(np.linalg.norm(entangled @ off_cut))
    cap = d ** (-len(cut) / 2.0)
    if delta > cap + 1e-12:
        raise AssertionError(f"entangled-part overlap norm {delta} exceeds {cap}")
    if defect > 2.0 * cap + 1e-12:
        raise AssertionError(f"normalization defect {defect} exceeds {2 * cap}")
    return EpsilonState(
        lattice=lattice,
        epsilon=epsilon,
        half_cut=cut,
        product_part=psi,
        entangled_part=omega,
        state=PureState(lattice, raw / norm),
        delta=delta,
        normalization_defect=defect,
    )


def model_spectrum(epsilon: float, dim_a: int) -> np.ndarray:
    """Half-cut reduced spectrum of the ideal interpolation: one eigenvalue
    1 - eps + eps/d_A and d_A - 1 copies of eps/d_A."""
    top = 1.0 - epsilon + epsilon / dim_a
    rest = np.full(dim_a - 1, epsilon / dim_a)
    return np.concatenate(([top], rest))


def model_entropy(epsilon: float, dim_a: int, order: float) -> float:
    return renyi_entropy(model_spectrum(epsilon, dim_a), order)


def constant_entropy_bound(epsilon: float, order: float) -> float:
    """(alpha/(alpha-1)) log(1/(1-eps)); the alpha -> inf limit is
    log(1/(1-eps)).  The bound is finite only for eps in [0, 1)."""
    if order <= 1:
        raise ValueError("bound requires order > 1")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("constant entropy bound needs epsilon in [0, 1)")
    val = math.log(1.0 / (1.0 - epsilon))
    if order == INF:
        return val
    return order / (order - 1.0) * val


@dataclass(frozen=True)
class EpsilonFamilyReport:
    epsilon: float
    local_dim: int
    sizes: tuple[int, ...]
    s1: tuple[float, ...]
    s1_slope: float
    ideal_s1: tuple[float, ...]  # S_1 of the ideal model, per size
    ideal_slope: float
    slope_window: tuple[float, float]
    slope_ok: bool
    s1_increasing: bool
    s2_density_decreasing: bool
    alpha_bounds: tuple[tuple[float, float, float, bool], ...]  # (alpha, max S_alpha, bound, ok)
    overlap_sq: tuple[float, ...]
    overlap_ok: bool
    spectrum_top_deviations: tuple[int, ...]
    spectrum_small_deviations: tuple[int, ...]
    spectra_ok: bool
    passed: bool


def family_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Chain sizes of the epsilon family: even, and at least three distinct
    ones for the slope fit."""
    sizes = tuple(int(n) for n in sizes)
    if len(set(sizes)) < 3:
        raise ValueError("slope fit needs at least three distinct sizes")
    if any(n % 2 for n in sizes):
        raise ValueError("epsilon family needs an even number of sites")
    return sizes


def verify_epsilon_family(
    epsilon: float = 0.3,
    sizes: Sequence[int] = (6, 8, 10, 12),
    local_dim: int = 2,
    seed: int = 0,
) -> EpsilonFamilyReport:
    """Grow the interpolation family and check its advertised profile.

    Asserted per size: S_alpha of the half-cut below the constant bound
    plus FAMILY_SLACK for every alpha in FAMILY_ALPHAS; the squared
    overlap with the product part within 2^{-N/2+1} of 1 - eps; the
    reduced spectrum matching the ideal model except for at most two
    values moved at the scale of the recorded delta.  Across sizes: S_1
    strictly increasing with an affine slope inside FAMILY_SLOPE_WINDOW
    times (eps/2) log d, while S_2 per site shrinks.  The slope window is
    evaluated on the given grid as stated, with no finite-size
    extrapolation; the ideal model's own S_1 per size (`model_entropy`) and
    its slope on the same grid are reported beside it.
    """
    sizes = family_sizes(sizes)
    limits = {a: constant_entropy_bound(epsilon, a) + FAMILY_SLACK for a in FAMILY_ALPHAS}
    s1 = []
    s2 = []
    overlaps_sq = []
    alpha_max: dict[float, float] = {a: 0.0 for a in FAMILY_ALPHAS}
    top_dev = []
    small_dev = []
    for n in sizes:
        lat = LatticeSpec(n, local_dim, "chain-open")
        eps_state = build_epsilon_state(lat, epsilon, seed=seed)
        rho_a = partial_trace(eps_state.state, eps_state.half_cut)
        spec = np.sort(np.linalg.eigvalsh(rho_a.matrix))[::-1]
        spec = np.clip(spec, 0.0, None)
        s1.append(renyi_entropy(spec, 1.0))
        s2.append(renyi_entropy(spec, 2.0))
        for a in FAMILY_ALPHAS:
            alpha_max[a] = max(alpha_max[a], renyi_entropy(spec, a))
        ov = abs(overlap(eps_state.product_part, eps_state.state)) ** 2
        overlaps_sq.append(float(ov))
        ideal = np.sort(model_spectrum(epsilon, lat.local_dim ** (n // 2)))[::-1]
        diff = np.abs(spec - ideal)
        top_dev.append(int(np.sum(diff > 10.0 * eps_state.delta)))
        small_dev.append(int(np.sum(diff > 0.5 * eps_state.delta)))
    slope = fit_line(sizes, s1)[0]
    ideal_s1 = tuple(model_entropy(epsilon, local_dim ** (n // 2), 1.0) for n in sizes)
    target = 0.5 * epsilon * math.log(local_dim)
    window = (FAMILY_SLOPE_WINDOW[0] * target, FAMILY_SLOPE_WINDOW[1] * target)
    slope_ok = window[0] <= slope <= window[1]
    s1_up = all(b > a for a, b in zip(s1, s1[1:]))
    dens = [v / n for v, n in zip(s2, sizes)]
    s2_decreasing = all(b < a for a, b in zip(dens, dens[1:]))
    bounds = tuple(
        (
            float(a),
            float(alpha_max[a]),
            limits[a],
            bool(alpha_max[a] <= limits[a]),
        )
        for a in FAMILY_ALPHAS
    )
    overlap_ok = all(
        abs(ov - (1.0 - epsilon)) <= 2.0 ** (-n / 2 + 1)
        for ov, n in zip(overlaps_sq, sizes)
    )
    spectra_ok = all(v == 0 for v in top_dev) and all(v <= 2 for v in small_dev)
    passed = (
        slope_ok
        and s1_up
        and s2_decreasing
        and all(b[3] for b in bounds)
        and overlap_ok
        and spectra_ok
    )
    return EpsilonFamilyReport(
        epsilon=epsilon,
        local_dim=local_dim,
        sizes=sizes,
        s1=tuple(float(v) for v in s1),
        s1_slope=slope,
        ideal_s1=ideal_s1,
        ideal_slope=fit_line(sizes, ideal_s1)[0],
        slope_window=window,
        slope_ok=bool(slope_ok),
        s1_increasing=bool(s1_up),
        s2_density_decreasing=bool(s2_decreasing),
        alpha_bounds=bounds,
        overlap_sq=tuple(overlaps_sq),
        overlap_ok=bool(overlap_ok),
        spectrum_top_deviations=tuple(top_dev),
        spectrum_small_deviations=tuple(small_dev),
        spectra_ok=bool(spectra_ok),
        passed=bool(passed),
    )


def _sweep_factors(
    rows: np.ndarray, factors: np.ndarray, sweeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating single-site maximisation of |<prod|row>|^2 for state
    rows (S, d**N) from starting factors (S, N, d); returns the final
    factors and the value of each row.

    With the other factors fixed, the best factor at a site is the row
    contracted against them, normalised, and its squared norm is the new
    value, so no update lowers it.  A row stops after the first sweep that
    gains less than SWEEP_TOL; a zero contraction leaves its factor and value.
    """
    factors = np.array(factors, dtype=complex)
    s, n, d = factors.shape
    values = np.full(s, -1.0)
    active = np.arange(s)
    for _ in range(sweeps):
        f, r, val = factors[active], rows[active], values[active]
        for k in range(n):
            left = _product_rows(f[:, :k]).conj()
            right = _product_rows(f[:, k + 1 :]).conj()
            env = np.einsum("sa,sabc,sc->sb", left, r.reshape(len(active), d**k, d, -1), right)
            nv = _row_norms(env)
            moved = nv != 0.0
            f[moved, k] = env[moved] / nv[moved, None]
            val[moved] = nv[moved] ** 2
        factors[active] = f
        gained = val - values[active] >= SWEEP_TOL
        values[active] = val
        active = active[gained]
        if not active.size:
            break
    return factors, values


def max_product_overlap(
    phi: PureState,
    restarts: int = 8,
    sweeps: int = 60,
    seed: int = 0,
) -> tuple[PureState, float]:
    """Best product state found for |<prod|phi>|^2, by alternating
    single-site updates.

    The restarts start from one draw of `default_rng(seed)` and are swept
    together; sweeps stop when the gain drops below SWEEP_TOL.  Restarts guard
    against local optima but global optimality is not guaranteed; the
    first best restart is returned.
    """
    if restarts < 1 or sweeps < 1:
        raise ValueError("restarts and sweeps must be positive")
    lattice = phi.lattice
    start = _random_factors(lattice, np.random.default_rng(seed), restarts)
    rows = np.broadcast_to(phi.amplitudes, (restarts, lattice.dim))
    factors, values = _sweep_factors(rows, start, sweeps)
    best = int(np.argmax(values))
    return product_state_from_factors(lattice, factors[best]), float(values[best])


@dataclass(frozen=True)
class OverlapBoundReport:
    region: tuple[int, ...]
    alphas: tuple[float, ...]
    bounds: tuple[float, ...]
    num_checked: int
    max_overlap_sq: float
    max_ratio: float
    tightest_case: str
    violations: int
    offender_json: str | None
    passed: bool


def overlap_bound_check(
    phi: PureState,
    region: SiteSet | tuple[int, ...],
    alphas: Sequence[float] = (2.0, 3.0, INF),
    samples: int = 200,
    seed: int = 0,
) -> OverlapBoundReport:
    """Squared product overlaps against exp(-((alpha-1)/alpha) S_alpha)
    of the reduced state on `region`.

    Checks `samples` random product states plus the alternating-sweep
    optimum; any product state must obey the bound, so sampling cannot
    produce false failures.  On violation the offending product state is
    serialized into the report.
    """
    if any(a <= 1 for a in alphas):
        raise ValueError("bound holds for alpha > 1 only")
    keep = site_set(phi.lattice, region)
    sigma = partial_trace(phi, keep)
    bounds = []
    for a in alphas:
        s = renyi_entropy(sigma, a)
        factor = 1.0 if a == INF else (a - 1.0) / a
        bounds.append(math.exp(-factor * s))
    limit = min(bounds)
    randoms = _product_rows(_random_factors(phi.lattice, np.random.default_rng(seed), samples))
    opt_state, _ = max_product_overlap(phi, restarts=4, sweeps=30, seed=seed)
    candidates = np.vstack([randoms, opt_state.amplitudes])  # the optimum is the last row
    sq = np.abs(candidates.conj() @ phi.amplitudes) ** 2
    ratios = sq / limit if limit > 0 else np.full(len(sq), math.inf)
    # the first maximal ratio names the tightest case; all-zero ratios name none
    top = int(np.argmax(ratios))
    tightest = "" if ratios[top] == 0 else f"random[{top}]" if top < samples else "optimized"
    violators = np.flatnonzero(sq > limit + 1e-12)
    offender = None
    if violators.size:
        offender = state_to_json(PureState(phi.lattice, candidates[violators[0]]))
    return OverlapBoundReport(
        region=tuple(keep.sites),
        alphas=tuple(float(a) for a in alphas),
        bounds=tuple(bounds),
        num_checked=len(candidates),
        max_overlap_sq=float(sq.max()),
        max_ratio=float(ratios[top]),
        tightest_case=tightest,
        violations=int(violators.size),
        offender_json=offender,
        passed=violators.size == 0,
    )


@dataclass(frozen=True)
class OverlapAuditReport:
    model: str
    num_states: int
    samples: int
    max_ratio: float
    worst_index: int
    violations: int
    passed: bool


def eigenstate_overlap_audit(
    spectral,
    profile,
    samples: int = 200,
    restarts: int = 2,
    sweeps: int = 20,
    seed: int = 0,
) -> OverlapAuditReport:
    """Every eigenstate's squared overlap with sampled and optimized
    product states against exp(-S_2(best found subsystem)/2).

    The random candidates are shared across eigenstates and evaluated as
    one matrix product.  The optimiser sweeps every eigenstate's restarts
    as one stack; eigenstate i starts from `default_rng(seed + i)`, as
    `max_product_overlap(..., seed=seed + i)` would.
    """
    lattice = spectral.lattice
    prods = _product_rows(_random_factors(lattice, np.random.default_rng(seed), samples))
    sq = np.abs(spectral.coefficients(prods).T) ** 2  # (states, samples)
    limits = np.exp(-0.5 * profile.s2_over_n * lattice.num_sites)
    rngs = (np.random.default_rng(seed + i) for i in range(spectral.dim))
    start = np.concatenate([_random_factors(lattice, rng, restarts) for rng in rngs])
    rows = np.repeat(spectral.eigenvectors.T, restarts, axis=0)
    values = _sweep_factors(rows, start, sweeps)[1]
    best = values.reshape(spectral.dim, restarts).max(axis=1)
    violations = int(np.sum(sq > limits[:, None] + 1e-12) + np.sum(best > limits + 1e-12))
    ratios = np.maximum(sq.max(axis=1), best) / np.maximum(limits, 1e-300)
    worst = int(np.argmax(ratios))
    return OverlapAuditReport(
        model=spectral.hamiltonian.name,
        num_states=spectral.dim,
        samples=samples,
        max_ratio=float(ratios[worst]),
        worst_index=worst,
        violations=violations,
        passed=violations == 0,
    )
