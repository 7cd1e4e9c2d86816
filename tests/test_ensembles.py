"""Diagonal ensembles, variance identities, equilibration bounds."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import _reference_embed

from ergolab.ensembles import (
    DiagonalEnsemble,
    bond_observable,
    check_variance_bounds,
    ensemble_expectation,
    evolve,
    evolve_rows,
    expectation_trajectory,
    random_local_observable,
    site_observable,
    subsystem_equilibration,
    variance_exact,
    variance_sampled,
)
from ergolab.hamiltonians import LocalHamiltonian, LocalTerm, diagonalize
from ergolab.operators import operator_norm, pauli
from ergolab.states import (
    LatticeSpec,
    PureState,
    basis_product_state,
    partial_trace,
    random_product_state,
    trace_distance,
)


@pytest.fixture(scope="module")
def ens6(spec6_module):
    psi = random_product_state(spec6_module.lattice, 11)
    return DiagonalEnsemble(spec6_module, psi)


@pytest.fixture(scope="module")
def spec6_module():
    from ergolab.hamiltonians import build_model

    return diagonalize(build_model("mixed-field-ising", LatticeSpec(6, 2)))


def test_populations_sum_to_one(ens6):
    assert ens6.populations.sum() == pytest.approx(1.0, abs=1e-10)
    assert len(ens6.blocks) == 64  # generic spectrum: every level its own block


def test_eigenstate_gives_pure_ensemble(spec6_module):
    k = 17
    psi = PureState(spec6_module.lattice, spec6_module.eigenvectors[:, k].astype(complex))
    ens = DiagonalEnsemble(spec6_module, psi)
    assert ens.is_pure
    assert ens.entropy(2.0) == pytest.approx(0.0, abs=1e-10)
    assert ens.effective_dimension == pytest.approx(1.0, abs=1e-8)
    a = site_observable(spec6_module.lattice, 2)
    assert variance_exact(ens, a) == pytest.approx(0.0, abs=1e-12)


def _reference_ptrace_dense(matrix, keep, lattice):
    # the former dense route: a 2N-axis transpose of a dim x dim matrix
    d, n = lattice.local_dim, lattice.num_sites
    rest = [s for s in range(n) if s not in set(keep)]
    order = list(keep) + rest
    t = np.transpose(matrix.reshape([d] * (2 * n)), order + [n + a for a in order])
    dk, dr = d ** len(keep), d ** len(rest)
    return np.einsum("arbr->ab", np.ascontiguousarray(t).reshape(dk, dr, dk, dr))


def _reference_evolve(spectral, state, time):
    # the former single-time kernel
    c = spectral.coefficients(state.amplitudes)
    return spectral.eigenvectors @ (np.exp(-1j * spectral.energies * time) * c)


def test_reduced_is_partial_trace_of_dephased_state(ens6, spec6_module):
    v = spec6_module.eigenvectors
    dense = (v * ens6.populations) @ v.conj().T
    for region in [(0,), (3,), (1, 4), (0, 2, 5)]:
        want = _reference_ptrace_dense(dense, region, spec6_module.lattice)
        got = ens6.reduced(region)
        assert got.lattice.num_sites == len(region)
        np.testing.assert_allclose(got.matrix, want, rtol=0, atol=1e-12)


def test_reduced_exact_on_degenerate_blocks():
    # H = sum_i Z_i on 4 sites: levels -4, -2 (x4), 0 (x6), 2 (x4), 4, so the
    # dephased state keeps coherences inside each block: sum_k P_k psi psi^dag P_k
    lat = LatticeSpec(4, 2)
    terms = [LocalTerm((i,), pauli("Z"), f"z{i}") for i in range(4)]
    spec = diagonalize(LocalHamiltonian(lat, terms))
    psi = random_product_state(lat, 6)
    ens = DiagonalEnsemble(spec, psi)
    assert [b - a for a, b in ens.blocks] == [1, 4, 6, 4, 1]
    v = spec.eigenvectors
    dense = np.zeros((lat.dim, lat.dim), dtype=complex)
    for a, b in ens.blocks:
        w = v[:, a:b] @ (v[:, a:b].conj().T @ psi.amplitudes)
        dense += np.outer(w, w.conj())
    for region in [(0,), (1, 3), (0, 1, 2)]:
        want = _reference_ptrace_dense(dense, region, lat)
        np.testing.assert_allclose(ens.reduced(region).matrix, want, rtol=0, atol=1e-12)


def test_effective_dimension_identity(ens6):
    assert ens6.effective_dimension == pytest.approx(math.exp(ens6.entropy(2.0)), rel=1e-10)


def test_variance_exact_against_dense_oracle(spec6_module):
    """Nondegenerate case: Var = sum_{i != j} p_i p_j |A_ij|^2."""
    psi = random_product_state(spec6_module.lattice, 3)
    ens = DiagonalEnsemble(spec6_module, psi)
    a = random_local_observable(spec6_module.lattice, (2, 3), seed=9)
    v = spec6_module.eigenvectors
    c = v.conj().T @ psi.amplitudes
    p = np.abs(c) ** 2
    a_eig = v.conj().T @ _reference_embed(a.matrix, a.sites, spec6_module.lattice) @ v
    off = np.abs(a_eig) ** 2
    np.fill_diagonal(off, 0.0)
    want = float((p[:, None] * p[None, :] * off).sum())
    assert variance_exact(ens, a) == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_variance_degenerate_blocks_excluded():
    # H = Z0 + Z1: eigenvalues {-2, 0, 0, 2}; the 0-block must not
    # contribute to the variance even though |A_ij| is nonzero there
    lat = LatticeSpec(2, 2)
    terms = [LocalTerm((0,), pauli("Z"), "z0"), LocalTerm((1,), pauli("Z"), "z1")]
    spec = diagonalize(LocalHamiltonian(lat, terms))
    amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    ens = DiagonalEnsemble(spec, PureState(lat, amps))
    assert len(ens.blocks) == 3
    a = LocalTerm((0,), pauli("X"), "X0")
    got = variance_exact(ens, a)
    # dense oracle over blocks
    w = ens.block_vectors()
    m = w.conj().T @ _reference_embed(a.matrix, a.sites, lat) @ w
    want = float((np.abs(m) ** 2).sum() - (np.abs(np.diag(m)) ** 2).sum())
    assert got == pytest.approx(want, abs=1e-12)


def test_variance_bounds_hold(ens6, spec6_module):
    for site in (0, 2, 5):
        rep = check_variance_bounds(ens6, site_observable(spec6_module.lattice, site))
        assert rep.passed
        assert rep.variance <= rep.bound_s2 + 1e-12
        assert rep.variance <= rep.bound_trimmed + 1e-12


def test_trimmed_bound_formula(ens6):
    a = site_observable(ens6.spectral.lattice, 1)
    rep = check_variance_bounds(ens6, a)
    p = np.sort(ens6.populations)[::-1]
    assert rep.bound_trimmed == pytest.approx(3.0 * rep.observable_norm**2 * p[1], rel=1e-10)
    assert rep.s_inf_trimmed == pytest.approx(-math.log(p[1]), rel=1e-10)


def test_pure_ensemble_bounds_trivial(spec6_module):
    psi = PureState(spec6_module.lattice, spec6_module.eigenvectors[:, 5].astype(complex))
    ens = DiagonalEnsemble(spec6_module, psi)
    rep = check_variance_bounds(ens, site_observable(spec6_module.lattice, 3))
    assert rep.fully_equilibrated
    assert rep.passed


def test_evolution_preserves_populations(spec6_module):
    psi = random_product_state(spec6_module.lattice, 2)
    ens0 = DiagonalEnsemble(spec6_module, psi)
    ens1 = DiagonalEnsemble(spec6_module, evolve(spec6_module, psi, 3.7))
    assert np.allclose(ens0.populations, ens1.populations, atol=1e-12)


def test_trajectory_endpoints(spec6_module):
    psi = random_product_state(spec6_module.lattice, 4)
    a = site_observable(spec6_module.lattice, 3)
    vals = expectation_trajectory(spec6_module, psi, a, np.array([0.0, 1.5]))
    dense = _reference_embed(a.matrix, a.sites, spec6_module.lattice)
    direct = (psi.amplitudes.conj() @ dense @ psi.amplitudes).real
    assert vals[0] == pytest.approx(direct, abs=1e-12)
    at_t = evolve(spec6_module, psi, 1.5)
    direct_t = (at_t.amplitudes.conj() @ dense @ at_t.amplitudes).real
    assert vals[1] == pytest.approx(direct_t, abs=1e-12)


def test_ensemble_expectation_matches_einsum_reference(ens6, spec6_module):
    # degenerate blocks too, where w_k carries coherences between levels
    lat4 = LatticeSpec(4, 2)
    zsum = LocalHamiltonian(lat4, [LocalTerm((i,), pauli("Z"), f"z{i}") for i in range(4)])
    degenerate = DiagonalEnsemble(diagonalize(zsum), random_product_state(lat4, 6))
    for ens, sites in ((ens6, (1, 4)), (degenerate, (1, 2))):
        w = ens.block_vectors()
        lat = ens.spectral.lattice
        for obs in (site_observable(lat, 2, "X"), random_local_observable(lat, sites, seed=5)):
            dense = _reference_embed(obs.matrix, obs.sites, lat)
            want = float(np.real(np.einsum("ik,ij,jk->", w.conj(), dense, w)))
            assert ensemble_expectation(ens, obs) == pytest.approx(want, rel=0, abs=1e-14)


def test_ensemble_expectation_is_population_average(ens6, spec6_module):
    a = site_observable(spec6_module.lattice, 0)
    v = spec6_module.eigenvectors
    dense = _reference_embed(a.matrix, a.sites, spec6_module.lattice)
    diag = np.einsum("ij,jk,ki->i", v.conj().T, dense, v).real
    want = float(ens6.populations @ diag)
    assert ensemble_expectation(ens6, a) == pytest.approx(want, abs=1e-10)


def test_sampled_variance_converges(spec6_module):
    psi = random_product_state(spec6_module.lattice, 8)
    ens = DiagonalEnsemble(spec6_module, psi)
    a = site_observable(spec6_module.lattice, 3)
    exact = variance_exact(ens, a)
    sam = variance_sampled(spec6_module, psi, a, samples=2000, seed=0)
    assert abs(sam.value - exact) <= max(0.05 * exact, 3.0 * sam.stderr)
    assert sam.samples == 2000
    assert sam.horizon > 0


def test_subsystem_equilibration_bound(spec6_module):
    psi = random_product_state(spec6_module.lattice, 5)
    rep = subsystem_equilibration(spec6_module, psi, (3,), samples=100, seed=1)
    assert rep.passed
    assert rep.mean_distance <= rep.bound + 1e-12
    assert rep.subsystem_dim == 2
    assert rep.max_distance >= rep.mean_distance


def _reference_subsystem_distances(spectral, state, region, times):
    # the former route: one evolve + partial_trace + trace_distance per time
    # against the partial trace of the dense dephased state
    ens = DiagonalEnsemble(spectral, state)
    w = ens.block_vectors()
    omega = _reference_ptrace_dense(w @ w.conj().T, region, spectral.lattice)
    dists = []
    for t in times:
        psi_t = PureState(spectral.lattice, _reference_evolve(spectral, state, float(t)))
        dists.append(trace_distance(partial_trace(psi_t, region).matrix, omega))
    return np.array(dists)


@pytest.mark.parametrize("region", [(3,), (1, 4)])
def test_subsystem_equilibration_matches_time_loop(spec6_module, region):
    psi = random_product_state(spec6_module.lattice, 5)
    rep = subsystem_equilibration(spec6_module, psi, region, samples=60, seed=2)
    times = np.random.default_rng(2).uniform(0.0, rep.horizon, size=60)
    want = _reference_subsystem_distances(spec6_module, psi, region, times)
    assert rep.mean_distance == pytest.approx(float(want.mean()), rel=0, abs=1e-12)
    assert rep.max_distance == pytest.approx(float(want.max()), rel=0, abs=1e-12)


def test_evolve_rows_matches_single_time_kernel(spec6_module):
    psi = random_product_state(spec6_module.lattice, 9)
    times = np.array([0.0, 0.3, 7.5, 1e3])
    rows = evolve_rows(spectral=spec6_module, state=psi, times=times)
    assert rows.shape == (4, spec6_module.dim)
    for row, t in zip(rows, times):
        np.testing.assert_allclose(row, _reference_evolve(spec6_module, psi, t), rtol=0, atol=1e-13)
        np.testing.assert_allclose(evolve(spec6_module, psi, t).amplitudes, row, rtol=0, atol=1e-15)
    # eigenvectors that are not orthonormal break the norm of every row
    skewed = dataclasses.replace(spec6_module, eigenvectors=1.01 * spec6_module.eigenvectors)
    with pytest.raises(ValueError, match="norm"):
        evolve_rows(skewed, psi, times)
    with pytest.raises(ValueError, match="norm"):
        evolve_rows(spec6_module, psi, [math.nan])


def test_time_sampling_validated(spec6_module):
    psi = random_product_state(spec6_module.lattice, 1)
    a = site_observable(spec6_module.lattice, 0)
    with pytest.raises(ValueError, match="at least 2"):
        variance_sampled(spec6_module, psi, a, samples=1)
    with pytest.raises(ValueError, match="at least 1"):
        subsystem_equilibration(spec6_module, psi, (0,), samples=0)
    for horizon in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            subsystem_equilibration(spec6_module, psi, (0,), horizon=horizon)


def test_observable_helpers(spec6_module):
    lat = spec6_module.lattice
    z3 = site_observable(lat, 3, "Z")
    assert z3.norm == pytest.approx(1.0)
    assert z3.sites == (3,) and z3.matrix.shape == (2, 2)  # the block stays local
    b = bond_observable(lat, 2)
    assert b.norm == pytest.approx(1.0)
    r1 = random_local_observable(lat, (1, 4), seed=3)
    r2 = random_local_observable(lat, (1, 4), seed=3)
    assert np.array_equal(r1.matrix, r2.matrix)


@pytest.mark.parametrize("d", [2, 3])
def test_local_observable_norm_is_dense_norm(d):
    # the factories record the block's norm; the dense route is the reference
    lat = LatticeSpec(4, d)
    observables = [random_local_observable(lat, sites, seed=s) for s, sites in enumerate([(0,), (1, 3), (0, 1, 2)])]
    if d == 2:
        observables += [site_observable(lat, 1, axis) for axis in "XYZ"]
        observables += [bond_observable(lat, 2, axis) for axis in "XYZ"]
    for obs in observables:
        dense = _reference_embed(obs.matrix, obs.sites, lat)
        assert obs.norm == pytest.approx(operator_norm(dense), abs=1e-12)


def test_site_observable_on_a_long_chain():
    # a dense 2^30 x 2^30 embedding could not be allocated
    assert site_observable(LatticeSpec(30, 2), 15).norm == 1.0


def test_observable_factories_refuse_bad_support():
    lat = LatticeSpec(4, 2)
    with pytest.raises(ValueError, match="outside"):
        site_observable(lat, 99)
    with pytest.raises(ValueError, match="duplicate"):
        random_local_observable(lat, (1, 1))
    with pytest.raises(ValueError, match="shape"):  # a qubit Pauli on a qutrit chain
        site_observable(LatticeSpec(4, 3), 1)
