"""Product-overlap bounds and the interpolation family."""

import math

import numpy as np
import pytest

from ergolab.entropy import INF, renyi_entropy
from ergolab.overlaps import (
    build_epsilon_state,
    constant_entropy_bound,
    eigenstate_overlap_audit,
    overlap_bound_check,
    max_product_overlap,
    model_entropy,
    model_spectrum,
    product_state_from_factors,
    verify_epsilon_family,
)
from ergolab.states import (
    LatticeSpec,
    PureState,
    basis_product_state,
    maximally_entangled,
    overlap,
    partial_trace,
    random_product_state,
)


def test_model_spectrum_closed_form():
    eps, da = 0.3, 8
    spec = model_spectrum(eps, da)
    assert spec.sum() == pytest.approx(1.0, abs=1e-12)
    assert spec.max() == pytest.approx(1 - eps + eps / da, abs=1e-12)
    assert np.allclose(np.sort(spec)[:-1], eps / da, atol=1e-12)
    s2 = model_entropy(eps, da, 2.0)
    want = -math.log(spec.max() ** 2 + (da - 1) * (eps / da) ** 2)
    assert s2 == pytest.approx(want, abs=1e-12)


def test_constant_entropy_bounds():
    eps = 0.3
    assert constant_entropy_bound(eps, 2.0) == pytest.approx(2 * math.log(1 / 0.7), abs=1e-12)
    assert constant_entropy_bound(eps, INF) == pytest.approx(math.log(1 / 0.7), abs=1e-12)
    # model entropies converge below the constant as d_A grows
    for da in (4, 16, 64):
        assert model_entropy(eps, da, 2.0) <= constant_entropy_bound(eps, 2.0)
    # the bound diverges at eps = 1
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        constant_entropy_bound(1.0, 2.0)


def test_epsilon_state_limits():
    lat = LatticeSpec(6, 2)
    for eps, part in ((0.0, "product_part"), (1.0, "entangled_part")):
        st = build_epsilon_state(lat, eps, seed=2)
        assert abs(overlap(st.state, getattr(st, part))) == pytest.approx(1.0, abs=1e-10)


def test_epsilon_state_delta_scaling():
    # delta = d_A^{-1/2} = 2^{-n/4}, so it halves for every four added sites
    d6 = build_epsilon_state(LatticeSpec(6, 2), 0.3, seed=0).delta
    d8 = build_epsilon_state(LatticeSpec(8, 2), 0.3, seed=0).delta
    d12 = build_epsilon_state(LatticeSpec(12, 2), 0.3, seed=0).delta
    assert d6 == pytest.approx(2.0 ** (-1.5), rel=1e-12)
    assert d8 == pytest.approx(0.25, rel=1e-12)
    assert d12 == pytest.approx(0.5 * d8, rel=1e-12)


def test_epsilon_state_requires_even_chain():
    with pytest.raises(ValueError):
        build_epsilon_state(LatticeSpec(5, 2), 0.3)


def test_epsilon_reduced_spectrum_matches_model():
    lat = LatticeSpec(8, 2)
    st = build_epsilon_state(lat, 0.3, seed=1)
    got = np.sort(np.linalg.eigvalsh(partial_trace(st.state, st.half_cut).matrix))[::-1]
    want = np.sort(model_spectrum(0.3, 16))[::-1]
    # rank-2 perturbation of size O(delta): top agrees to ~10 delta
    assert abs(got[0] - want[0]) <= 10 * st.delta
    assert np.abs(got[2:] - want[2:]).max() <= 0.5 * st.delta


def test_family_report_away_from_smallest_size():
    rep = verify_epsilon_family(sizes=(8, 10, 12), seed=0)
    assert rep.s1_increasing
    assert rep.s2_density_decreasing
    assert rep.overlap_ok
    assert rep.spectra_ok
    assert all(ok for *_rest, ok in rep.alpha_bounds)
    assert rep.slope_ok
    assert rep.passed


def test_family_report_small_sizes():
    rep = verify_epsilon_family(sizes=(6, 8, 10), seed=0)
    assert rep.s1_increasing
    assert rep.overlap_ok
    assert rep.spectra_ok
    assert all(ok for *_rest, ok in rep.alpha_bounds)
    # with n=6 included the finite-size S1 slope overshoots the asymptotic
    # window and the seeded entangled part bumps the S2 density; both are
    # honest small-size effects, re-checked at the pinned grid in acceptance
    assert not rep.slope_ok
    assert not rep.s2_density_decreasing
    assert not rep.passed


def test_max_product_overlap_product_input():
    lat = LatticeSpec(4, 2)
    psi = random_product_state(lat, 6)
    _, val = max_product_overlap(psi, restarts=2, sweeps=30, seed=0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_max_product_overlap_bell():
    bell = maximally_entangled(LatticeSpec(2, 2), (0,))
    _, val = max_product_overlap(bell, restarts=4, sweeps=40, seed=0)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_max_product_overlap_w_state():
    # best product overlap of W_n is (1 - 1/n)^(n-1)
    lat = LatticeSpec(3, 2)
    amps = np.zeros(8, dtype=complex)
    for k in (0b001, 0b010, 0b100):
        amps[k] = 1 / math.sqrt(3)
    w = PureState(lat, amps)
    _, val = max_product_overlap(w, restarts=6, sweeps=60, seed=0)
    assert val == pytest.approx((2 / 3) ** 2, abs=1e-8)


def test_max_product_overlap_monotone_sweeps():
    lat = LatticeSpec(4, 2)
    rng = np.random.default_rng(8)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    psi = PureState(lat, amps)
    _, v1 = max_product_overlap(psi, restarts=1, sweeps=1, seed=0)
    _, v2 = max_product_overlap(psi, restarts=1, sweeps=40, seed=0)
    assert v2 >= v1 - 1e-12


def test_overlap_bound_check_random_state():
    lat = LatticeSpec(5, 2)
    rng = np.random.default_rng(12)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    psi = PureState(lat, amps)
    rep = overlap_bound_check(psi, (0, 1), samples=100, seed=0)
    assert rep.passed
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0 + 1e-10
    assert rep.offender_json is None
    assert len(rep.bounds) == len(rep.alphas) == 3


def test_overlap_bound_saturated_by_basis_state():
    # a basis product state saturates every bound: S_alpha = 0, overlap 1
    lat = LatticeSpec(4, 2)
    psi = basis_product_state(lat, (0, 1, 0, 1))
    rep = overlap_bound_check(psi, (0, 1), samples=20, seed=0)
    assert rep.passed
    assert rep.max_overlap_sq == pytest.approx(1.0, abs=1e-10)
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_product_state_from_factors_normalizes():
    lat = LatticeSpec(3, 2)
    f = np.array([3.0, 4.0])
    psi = product_state_from_factors(lat, [f, f, f])
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_eigenstate_audit_clean(spec6):
    from ergolab.ergodicity import SearchPolicy, build_profile

    prof = build_profile(spec6, SearchPolicy(mode="exhaustive"))
    rep = eigenstate_overlap_audit(spec6, prof, samples=60, seed=0)
    assert rep.violations == 0
    assert rep.passed
    assert rep.num_states == 64
