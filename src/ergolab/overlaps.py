"""Product-overlap machinery: the epsilon interpolation family, overlap
maximization over product states, and the entropy-based overlap bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import renyi_entropy
from .states import (
    DensityMatrix,
    LatticeSpec,
    PureState,
    SiteSet,
    maximally_entangled,
    overlap,
    partial_trace,
    site_set,
    state_to_json,
)

INF = math.inf


def product_state_from_factors(
    lattice: LatticeSpec, factors: Sequence[np.ndarray]
) -> PureState:
    if len(factors) != lattice.num_sites:
        raise ValueError("one single-site factor per site required")
    amps = np.array([1.0 + 0.0j])
    for f in factors:
        f = np.asarray(f, dtype=complex)
        if f.shape != (lattice.local_dim,):
            raise ValueError("factor dimension mismatch")
        amps = np.kron(amps, f / np.linalg.norm(f))
    return PureState(lattice, amps)


def _random_factors(lattice: LatticeSpec, rng: np.random.Generator) -> list[np.ndarray]:
    d = lattice.local_dim
    out = []
    for _ in range(lattice.num_sites):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append(v / np.linalg.norm(v))
    return out


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


def family_epsilon(epsilon: float) -> float:
    """Weight of the entangled part of the epsilon family: in [0, 1]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return epsilon


def build_epsilon_state(
    lattice: LatticeSpec,
    epsilon: float,
    half_cut: SiteSet | tuple[int, ...] | None = None,
    seed: int = 0,
) -> EpsilonState:
    """sqrt(1-eps) |product> + sqrt(eps) |entangled>, explicitly normalized.

    Requires an even chain and a cut of exactly half the sites.  The
    entangled part pairs cut site k with the k-th site of the complement,
    in order; the pairing is fixed only for reproducibility.
    """
    n, d = lattice.num_sites, lattice.local_dim
    if n % 2:
        raise ValueError("epsilon family needs an even number of sites")
    epsilon = family_epsilon(epsilon)
    if half_cut is None:
        half_cut = tuple(range(n // 2))
    cut = site_set(lattice, half_cut)
    if len(cut) != n // 2:
        raise ValueError("cut must cover exactly half the sites")
    rng = np.random.default_rng(seed)
    factors = _random_factors(lattice, rng)
    psi = product_state_from_factors(lattice, factors)
    omega = maximally_entangled(lattice, cut)
    raw = math.sqrt(1.0 - epsilon) * psi.amplitudes + math.sqrt(epsilon) * omega.amplitudes
    norm = float(np.linalg.norm(raw))
    defect = abs(norm - 1.0)
    # overlap norm of the entangled part with the product factors off the cut;
    # removing axes in descending site order keeps remaining indices stable
    contracted = omega.tensor()
    for s in sorted(cut.complement().sites, reverse=True):
        contracted = np.tensordot(contracted, factors[s].conj(), axes=(s, 0))
    delta = float(np.linalg.norm(contracted))
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
    log(1/(1-eps))."""
    if order <= 1:
        raise ValueError("bound requires order > 1")
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
    """Chain sizes of the epsilon family: even, and at least three for the
    slope fit."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 3:
        raise ValueError("slope fit needs at least three sizes")
    if any(n % 2 for n in sizes):
        raise ValueError("epsilon family needs an even number of sites")
    return sizes


def verify_epsilon_family(
    epsilon: float = 0.3,
    sizes: Sequence[int] = (6, 8, 10, 12),
    local_dim: int = 2,
    seed: int = 0,
    alphas: Sequence[float] = (2.0, 3.0, INF),
    slope_window: tuple[float, float] = (0.8, 1.2),
    slack: float = 0.1,
) -> EpsilonFamilyReport:
    """Grow the interpolation family and check its advertised profile.

    Asserted per size: S_alpha of the half-cut below the constant bound
    plus slack for every alpha > 1; the squared overlap with the product
    part within 2^{-N/2+1} of 1 - eps; the reduced spectrum matching the
    ideal model except for at most two values moved at the scale of the
    recorded delta.  Across sizes: S_1 strictly increasing with an affine
    slope inside the window around (eps/2) log d, while S_2 per site
    shrinks.  The slope window is evaluated on the given grid as stated,
    with no finite-size extrapolation.
    """
    sizes = family_sizes(sizes)
    if any(a <= 1 for a in alphas):
        raise ValueError("constant bounds require alpha > 1")
    s1 = []
    s2 = []
    overlaps_sq = []
    alpha_max: dict[float, float] = {a: 0.0 for a in alphas}
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
        for a in alphas:
            alpha_max[a] = max(alpha_max[a], renyi_entropy(spec, a))
        ov = abs(overlap(eps_state.product_part, eps_state.state)) ** 2
        overlaps_sq.append(float(ov))
        ideal = np.sort(model_spectrum(epsilon, lat.local_dim ** (n // 2)))[::-1]
        diff = np.abs(spec - ideal)
        top_dev.append(int(np.sum(diff > 10.0 * eps_state.delta)))
        small_dev.append(int(np.sum(diff > 0.5 * eps_state.delta)))
    slope = float(np.polyfit(sizes, s1, 1)[0])
    target = 0.5 * epsilon * math.log(local_dim)
    window = (slope_window[0] * target, slope_window[1] * target)
    slope_ok = window[0] <= slope <= window[1]
    s1_up = all(b > a for a, b in zip(s1, s1[1:]))
    dens = [v / n for v, n in zip(s2, sizes)]
    s2_decreasing = all(b < a for a, b in zip(dens, dens[1:]))
    bounds = tuple(
        (
            float(a),
            float(alpha_max[a]),
            constant_entropy_bound(epsilon, a) + slack,
            bool(alpha_max[a] <= constant_entropy_bound(epsilon, a) + slack),
        )
        for a in alphas
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


def max_product_overlap(
    phi: PureState,
    restarts: int = 8,
    sweeps: int = 60,
    seed: int = 0,
    tol: float = 1e-12,
) -> tuple[PureState, float]:
    """Best product state found for |<prod|phi>|^2, by alternating
    single-site updates.

    With all other factors fixed, the optimal factor at a site is the
    contraction of the state against the rest, normalized; each update
    can only increase the objective, so sweeps terminate when the gain
    drops below tol.  Restarts guard against local optima but global
    optimality is not guaranteed.
    """
    if restarts < 1 or sweeps < 1:
        raise ValueError("restarts and sweeps must be positive")
    lattice = phi.lattice
    n = lattice.num_sites
    tensor = phi.tensor()
    rng = np.random.default_rng(seed)
    best_val = -1.0
    best_factors: list[np.ndarray] | None = None
    for _ in range(restarts):
        factors = _random_factors(lattice, rng)
        prev = -1.0
        for _ in range(sweeps):
            val = prev
            for k in range(n):
                # contract every other site; removing axes in descending
                # order keeps the remaining axis indices unchanged
                env = tensor
                for j in range(n - 1, -1, -1):
                    if j != k:
                        env = np.tensordot(env, factors[j].conj(), axes=(j, 0))
                nv = float(np.linalg.norm(env))
                if nv == 0.0:
                    continue
                factors[k] = env / nv
                val = nv * nv
            if val - prev < tol:
                prev = val
                break
            prev = val
        if prev > best_val:
            best_val = prev
            best_factors = [f.copy() for f in factors]
    assert best_factors is not None
    return product_state_from_factors(lattice, best_factors), best_val


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
    restarts: int = 4,
    sweeps: int = 30,
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
    rng = np.random.default_rng(seed)
    candidates: list[tuple[str, PureState]] = []
    for i in range(samples):
        candidates.append(
            (f"random[{i}]", product_state_from_factors(phi.lattice, _random_factors(phi.lattice, rng)))
        )
    opt_state, opt_val = max_product_overlap(
        phi, restarts=restarts, sweeps=sweeps, seed=seed
    )
    candidates.append(("optimized", opt_state))
    max_sq = -1.0
    max_ratio = 0.0
    tightest = ""
    violations = 0
    offender = None
    for name, cand in candidates:
        sq = float(abs(overlap(cand, phi)) ** 2)
        ratio = sq / limit if limit > 0 else math.inf
        if sq > max_sq:
            max_sq = sq
        if ratio > max_ratio:
            max_ratio = ratio
            tightest = name
        if sq > limit + 1e-12:
            violations += 1
            if offender is None:
                offender = state_to_json(cand)
    return OverlapBoundReport(
        region=tuple(keep.sites),
        alphas=tuple(float(a) for a in alphas),
        bounds=tuple(bounds),
        num_checked=len(candidates),
        max_overlap_sq=max_sq,
        max_ratio=max_ratio,
        tightest_case=tightest,
        violations=violations,
        offender_json=offender,
        passed=violations == 0,
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
    one matrix product; the optimizer runs per eigenstate.
    """
    lattice = spectral.lattice
    rng = np.random.default_rng(seed)
    prods = np.stack(
        [
            product_state_from_factors(lattice, _random_factors(lattice, rng)).amplitudes
            for _ in range(samples)
        ],
        axis=1,
    )
    sq = np.abs(spectral.eigenvectors.conj().T @ prods) ** 2  # (states, samples)
    limits = np.exp(-0.5 * profile.s2_over_n * lattice.num_sites)
    max_ratio = 0.0
    worst = -1
    violations = int(np.sum(sq > limits[:, None] + 1e-12))
    ratios = sq.max(axis=1) / np.maximum(limits, 1e-300)
    for i in range(spectral.dim):
        state = PureState(lattice, spectral.eigenvectors[:, i].astype(complex))
        _, val = max_product_overlap(state, restarts=restarts, sweeps=sweeps, seed=seed + i)
        if val > limits[i] + 1e-12:
            violations += 1
        r = max(ratios[i], val / max(limits[i], 1e-300))
        if r > max_ratio:
            max_ratio = float(r)
            worst = i
    return OverlapAuditReport(
        model=spectral.hamiltonian.name,
        num_states=spectral.dim,
        samples=samples,
        max_ratio=max_ratio,
        worst_index=worst,
        violations=violations,
        passed=violations == 0,
    )
