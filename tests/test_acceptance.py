"""End-to-end acceptance gate.

One test per quantitative guarantee the package commits to, in a fixed
order.  Every test prints a single PASS/FAIL summary line with the
measured numbers and enforces a wall-clock budget on top of the stated
tolerance.  Check 4 is expected to fail its slope clause on the pinned
size grid; see README for the analysis.  Do not loosen tolerances here.
"""

import math
import time

import numpy as np
import pytest

from ergolab.circuits import (
    apply_circuit,
    brickwork,
    circuit_extensivity_check,
    haar_unitary,
    layer_generator,
)
from ergolab.ensembles import (
    DiagonalEnsemble,
    bond_observable,
    check_variance_bounds,
    evolve,
    random_local_observable,
    site_observable,
    subsystem_equilibration,
    variance_sampled,
)
from ergolab.entropy import check_renyi_ordering
from ergolab.ergodicity import SearchPolicy, build_profile, diagonal_entropy_growth
from ergolab.hamiltonians import (
    MODEL_NAMES,
    build_model,
    check_gibbs_identities,
    diagonalize,
)
from ergolab.mps import (
    ghz_spec,
    mps_overlap_decay,
    mps_to_dense,
    product_overlap_transfer,
    random_injective_spec,
)
from ergolab.operators import random_density, random_hermitian
from ergolab.overlaps import (
    eigenstate_overlap_audit,
    product_state_from_factors,
    verify_epsilon_family,
)
from ergolab.rates import (
    boundary_rate,
    check_rate_bound,
    entangling_rate_fd,
    integrated_bound_check,
    stability_experiment,
)
from ergolab.states import LatticeSpec, random_product_state


def _line(tag: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[accept {tag}] {status}: {detail} ({elapsed:.1f}s / {budget:.0f}s budget)")


@pytest.fixture(scope="module")
def quench_states(spec8):
    return [random_product_state(spec8.lattice, seed) for seed in range(20)]


@pytest.fixture(scope="module")
def observables(spec8):
    lat = spec8.lattice
    return [
        site_observable(lat, 1, "Z"),
        site_observable(lat, 4, "X"),
        bond_observable(lat, 3, "Z"),
        random_local_observable(lat, (2, 5), seed=11),
        random_local_observable(lat, (0, 4, 7), seed=12),
    ]


def test_01_renyi_ordering_random_spectra():
    budget = 10.0
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    alphas = (0.0, 0.5, 1.0, 2.0, 5.0, math.inf)
    violations = 0
    for k in range(1000):
        dim = int(rng.integers(2, 65))
        p = rng.random(dim)
        if k % 2:
            p = p**6  # skewed spectra stress the small-eigenvalue handling
        p /= p.sum()
        for beta in (1.5, 2.0, 4.0):
            rep = check_renyi_ordering(p, alphas=alphas, beta=beta, tolerance=1e-10)
            if not rep.passed:
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < budget
    _line("01 renyi ordering", ok, f"{violations} violations in 1000 spectra x 3 beta", elapsed, budget)
    assert violations == 0
    assert elapsed < budget


def test_02_variance_bounds_random_quenches(spec8, quench_states, observables):
    budget = 300.0
    t0 = time.monotonic()
    held = 0
    agreed = 0
    cases = 0
    for psi in quench_states:
        ens = DiagonalEnsemble(spec8, psi)
        for obs in observables:
            rep = check_variance_bounds(ens, obs)
            # re-derive both bounds instead of trusting the report flag
            want_s2 = rep.observable_norm**2 * math.exp(-rep.s2)
            want_trim = 3.0 * rep.observable_norm**2 * math.exp(-rep.s_inf_trimmed)
            assert rep.bound_s2 == pytest.approx(want_s2, rel=1e-12)
            assert rep.bound_trimmed == pytest.approx(want_trim, rel=1e-12)
            if rep.variance <= rep.bound_s2 and rep.variance <= rep.bound_trimmed:
                held += 1
            sampled = variance_sampled(ens, obs, samples=2000, seed=100 + cases)
            if abs(rep.variance - sampled.value) <= max(0.05 * rep.variance, 3.0 * sampled.stderr):
                agreed += 1
            cases += 1
    elapsed = time.monotonic() - t0
    ok = held == cases == 100 and agreed == cases and elapsed < budget
    _line("02 variance bounds", ok, f"{held}/{cases} bounds held, {agreed}/{cases} sampled agree", elapsed, budget)
    assert held == cases == 100
    assert agreed == cases
    assert elapsed < budget


def test_03_single_site_equilibration(spec8, quench_states):
    budget = 600.0
    t0 = time.monotonic()
    n = spec8.lattice.num_sites
    held = 0
    cases = 0
    for psi in quench_states:
        ens = DiagonalEnsemble(spec8, psi)
        for site in range(n):
            rep = subsystem_equilibration(ens, (site,), samples=200, seed=cases)
            want = 2.0 * rep.subsystem_dim * math.exp(-rep.s2 / 2.0)
            assert rep.bound == pytest.approx(want, rel=1e-12)
            if rep.mean_distance <= rep.bound:
                held += 1
            cases += 1
    elapsed = time.monotonic() - t0
    ok = held == cases == 160 and elapsed < budget
    _line("03 subsystem equilibration", ok, f"{held}/{cases} time-averaged distances under bound", elapsed, budget)
    assert held == cases == 160
    assert elapsed < budget


def test_04_interpolation_family_profile():
    budget = 120.0
    t0 = time.monotonic()
    rep = verify_epsilon_family(epsilon=0.3, sizes=(6, 8, 10, 12), local_dim=2, seed=0)
    elapsed = time.monotonic() - t0
    bounds = {a: (mx, bd, ok) for a, mx, bd, ok in rep.alpha_bounds}
    ok = rep.passed and elapsed < budget
    _line(
        "04 interpolation family",
        ok,
        f"slope {rep.s1_slope:.4f} vs window [{rep.slope_window[0]:.4f}, {rep.slope_window[1]:.4f}], "
        f"S2 max {bounds[2.0][0]:.4f} <= {bounds[2.0][1]:.4f}, "
        f"Sinf max {bounds[math.inf][0]:.4f} <= {bounds[math.inf][1]:.4f}, "
        f"overlaps {tuple(round(v, 4) for v in rep.overlap_sq)}",
        elapsed,
        budget,
    )
    assert elapsed < budget
    # constant bounds carry the advertised 0.1 slack on top of the closed form
    assert bounds[2.0][1] == pytest.approx(2.0 * math.log(1 / 0.7) + 0.1, rel=1e-12)
    assert bounds[math.inf][1] == pytest.approx(math.log(1 / 0.7) + 0.1, rel=1e-12)
    assert bounds[2.0][2] and bounds[math.inf][2]
    assert rep.overlap_ok, f"overlap_sq {rep.overlap_sq} drifted from 0.7"
    assert rep.spectra_ok
    assert rep.s1_increasing
    # known finite-size failure: the fitted slope overshoots the asymptotic
    # window on this grid (see README); kept as a genuine red
    assert rep.slope_ok, (
        f"S1 slope {rep.s1_slope:.4f} outside [{rep.slope_window[0]:.4f}, "
        f"{rep.slope_window[1]:.4f}] on the pinned grid, where the ideal model's "
        f"own S1 slope is {rep.ideal_slope:.4f}"
    )


def test_05_eigenstate_product_overlap_audit():
    budget = 600.0
    t0 = time.monotonic()
    details = []
    total_violations = 0
    for name in MODEL_NAMES:
        spec = diagonalize(build_model(name, LatticeSpec(8, 2), seed=0))
        prof = build_profile(spec, SearchPolicy(mode="exhaustive"))
        rep = eigenstate_overlap_audit(spec, prof, samples=200, seed=0)
        total_violations += rep.violations
        details.append(f"{name}: {rep.violations} viol, max ratio {rep.max_ratio:.3f}")
    elapsed = time.monotonic() - t0
    ok = total_violations == 0 and elapsed < budget
    _line("05 overlap audit", ok, "; ".join(details), elapsed, budget)
    assert total_violations == 0
    assert elapsed < budget


def test_06_min_entropy_growth_trend():
    budget = 1800.0
    t0 = time.monotonic()
    rep, _ = diagonal_entropy_growth(sizes=(6, 8, 10, 12), recipe="neel", seed=0)
    elapsed = time.monotonic() - t0
    bulk_viol = sum(b.violations for b in rep.bulk)
    trend = rep.variance_trend
    ok = (
        rep.applicable
        and rep.increasing
        and rep.slope > 0
        and bulk_viol == 0
        and rep.fitted_m is not None
        and rep.fitted_m > 0
        and trend.passed
        and trend.k_consistent
        and elapsed < budget
    )
    _line(
        "06 min-entropy growth",
        ok,
        f"S_inf {tuple(round(s, 3) for s in rep.s_inf)}, slope {rep.slope:.4f}, "
        f"bulk violations {bulk_viol}, tail m {rep.fitted_m}, "
        f"log-Var slope {trend.slope} over N={trend.included} vs k(e) {rep.k_of_e:.4f}",
        elapsed,
        budget,
    )
    assert rep.applicable
    assert rep.increasing, f"S_inf not strictly increasing: {rep.s_inf}"
    assert rep.slope > 0
    assert bulk_viol == 0
    assert all(b.passed for b in rep.bulk)
    assert rep.fitted_m is not None and rep.fitted_m > 0
    assert rep.tail.passed
    assert trend.passed, trend
    assert trend.k_consistent
    assert elapsed < budget


def test_07_entangling_rate_bounds(spec6):
    budget = 300.0
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    dims = (4, 4)
    bound_viol = 0
    fd_viol = 0
    for _ in range(2000):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng)
        rep = check_rate_bound(rho, dims, v)
        if not rep.passed:
            bound_viol += 1
        fd = entangling_rate_fd(rho, dims, v)
        if abs(rep.rate - fd) > 1e-6 * max(abs(rep.rate), 1e-3):
            fd_viol += 1
    # boundary decomposition against the direct rate on an evolved quench
    psi = evolve(spec6, random_product_state(spec6.lattice, 1), 0.8)
    brep = boundary_rate(psi, (0, 1, 2), spec6.hamiltonian)
    # integrated bound along a full trajectory
    lat8 = LatticeSpec(8, 2)
    h8 = build_model("mixed-field-ising", lat8)
    irep = integrated_bound_check(
        random_product_state(lat8, 3), diagonalize(h8), (0, 1, 2, 3), np.linspace(0.0, 5.0, 11)
    )
    elapsed = time.monotonic() - t0
    ok = (
        bound_viol == 0
        and fd_viol == 0
        and abs(brep.difference) <= 1e-8
        and irep.passed
        and elapsed < budget
    )
    _line(
        "07 entangling rate",
        ok,
        f"{bound_viol} bound viol, {fd_viol} fd viol in 2000 pairs, "
        f"boundary diff {brep.difference:.2e}, integrated excess {irep.max_excess:.2e}",
        elapsed,
        budget,
    )
    assert bound_viol == 0
    assert fd_viol == 0
    assert abs(brep.difference) <= 1e-8
    # excess up to machine roundoff counts as holding
    assert irep.passed and irep.max_excess <= 1e-12
    assert elapsed < budget


def test_08_mps_overlap_decay():
    budget = 300.0
    t0 = time.monotonic()
    kappas = []
    for seed in range(2025, 2030):
        spec = random_injective_spec(seed=seed)
        rep = mps_overlap_decay(spec)
        assert rep.branch == "decay", f"seed {seed} branch {rep.branch}"
        assert rep.kappa is not None and rep.kappa > 0, f"seed {seed} kappa {rep.kappa}"
        assert rep.r_squared >= 0.99, f"seed {seed} r^2 {rep.r_squared}"
        kappas.append(rep.kappa)
    ghz = mps_overlap_decay(ghz_spec())
    assert ghz.branch == "non-injective"
    assert not ghz.injectivity.injective
    assert ghz.kappa is None
    # transfer route must agree with the dense statevector at small sizes
    spec = random_injective_spec(seed=2025)
    rng = np.random.default_rng(0)
    max_diff = 0.0
    for n in (8, 12):
        dense = mps_to_dense(spec, n)
        for _ in range(3):
            f = rng.normal(size=2) + 1j * rng.normal(size=2)
            f /= np.linalg.norm(f)
            via_t = product_overlap_transfer(spec, f, n)
            prod = product_state_from_factors(dense.lattice, [f] * n)
            via_d = abs(np.vdot(prod.amplitudes, dense.amplitudes))
            max_diff = max(max_diff, abs(via_t - via_d))
    elapsed = time.monotonic() - t0
    ok = max_diff <= 1e-9 and elapsed < budget
    _line(
        "08 mps overlap decay",
        ok,
        f"kappa {tuple(round(k, 4) for k in kappas)}, ghz rejected, dense/transfer diff {max_diff:.1e}",
        elapsed,
        budget,
    )
    assert max_diff <= 1e-9
    assert elapsed < budget


def test_09_circuit_extensivity():
    budget = 60.0
    t0 = time.monotonic()
    lat = LatticeSpec(9, 2, "chain-periodic")
    rng = np.random.default_rng(21)
    f = rng.normal(size=2) + 1j * rng.normal(size=2)
    f /= np.linalg.norm(f)
    psi = product_state_from_factors(lat, [f] * 9)
    gate = haar_unitary(4, np.random.default_rng(13))
    out = apply_circuit(psi, brickwork(lat, 1, gate, period=3))
    rep = circuit_extensivity_check(out, 3)
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < budget
    _line(
        "09 circuit extensivity",
        ok,
        f"branch {rep.branch}, product-power distance {rep.product_power_distance:.1e}, "
        f"additivity error {rep.additivity_error:.1e}",
        elapsed,
        budget,
    )
    assert rep.branch == "extensive"
    assert rep.product_power_distance <= 1e-8
    assert rep.additivity_error <= 1e-6
    assert rep.passed
    assert elapsed < budget


def test_10_gibbs_identities(spec8):
    budget = 60.0
    t0 = time.monotonic()
    errs = []
    for beta in (0.2, 1.0, 5.0):
        rep = check_gibbs_identities(spec8, beta, tolerance=1e-10)
        assert rep.passed, f"beta {beta} failed"
        assert rep.population_identity_error <= 1e-10
        assert rep.min_entropy_identity_error <= 1e-10
        errs.append(max(rep.population_identity_error, rep.min_entropy_identity_error))
    elapsed = time.monotonic() - t0
    ok = elapsed < budget
    _line("10 gibbs identities", ok, f"max identity error {max(errs):.1e} over beta (0.2, 1, 5)", elapsed, budget)
    assert elapsed < budget


def test_11_stability_quasilocal_conjugation():
    budget = 600.0
    t0 = time.monotonic()
    lat = LatticeSpec(10, 2)
    h = build_model("mixed-field-ising", lat)
    rng = np.random.default_rng(1)
    layer = brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0]
    rep = stability_experiment(h, layer_generator(layer))
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.max_shift <= rep.bound and elapsed < budget
    _line(
        "11 stability",
        ok,
        f"max S2 shift {rep.max_shift:.4f} <= bound {rep.bound:.4f} "
        f"(T {rep.time:.3f}, boundary terms {rep.boundary_terms})",
        elapsed,
        budget,
    )
    assert rep.max_shift <= rep.bound
    assert rep.passed
    assert elapsed < budget
