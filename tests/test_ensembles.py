"""Diagonal ensembles, variance identities, equilibration bounds."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import _reference_embed

from ergolab import BAND_ROWS
from ergolab.ensembles import (
    DiagonalEnsemble,
    bond_observable,
    check_variance_bounds,
    ensemble_expectation,
    evolve,
    expectation_trajectory,
    random_local_observable,
    reduced_trajectory,
    site_observable,
    subsystem_equilibration,
    variance_exact,
    variance_sampled,
)
from ergolab.hamiltonians import MODEL_NAMES, LocalHamiltonian, LocalTerm, build_model, diagonalize
from ergolab.operators import apply_local, operator_norm, pauli
from ergolab.states import (
    GEOMETRIES,
    LatticeSpec,
    PureState,
    _reduced_states,
    basis_product_state,
    bipartition_matrix,
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
    # H = sum_i Z_i: levels -n, -n+2, ..., n with C(n, k)-fold degeneracy, so
    # the dephased state keeps coherences inside each block:
    # sum_k P_k psi psi^dag P_k.  At 8 sites the blocks straddle the bands
    # of BAND_ROWS levels that `reduced` walks.
    for n in (4, 8):
        lat = LatticeSpec(n, 2)
        terms = [LocalTerm((i,), pauli("Z"), f"z{i}") for i in range(n)]
        spec = diagonalize(LocalHamiltonian(lat, terms))
        psi = random_product_state(lat, 6)
        ens = DiagonalEnsemble(spec, psi)
        assert [b - a for a, b in ens.blocks] == [math.comb(n, k) for k in range(n + 1)]
        v = spec.eigenvectors
        dense = np.zeros((lat.dim, lat.dim), dtype=complex)
        for a, b in ens.blocks:
            w = v[:, a:b] @ (v[:, a:b].conj().T @ psi.amplitudes)
            dense += np.outer(w, w.conj())
        for region in [(0,), (1, 3), (0, 1, 2)]:
            want = _reference_ptrace_dense(dense, region, lat)
            np.testing.assert_allclose(ens.reduced(region).matrix, want, rtol=0, atol=1e-12)


def test_reduced_peak_memory():
    # the block vectors are formed a band of levels at a time; forming them
    # all at once held 8 dim^2 doubles
    lat = LatticeSpec(10, 2)
    spec = diagonalize(build_model("mixed-field-ising", lat))
    ens = DiagonalEnsemble(spec, random_product_state(lat, 0))
    tracemalloc.start()
    try:
        ens.reduced((5,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * spec.dim**2 * 8


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
    w = ens._block_rows(0, len(ens.blocks)).T
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
    vals = expectation_trajectory(DiagonalEnsemble(spec6_module, psi), a, np.array([0.0, 1.5]))
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
        w = ens._block_rows(0, len(ens.blocks)).T
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


def _reference_block_route(ens, obs):
    # the former block-vector route: W^dag (A W) and vdot(W, A W)
    w = ens._block_rows(0, len(ens.blocks)).T
    aw = apply_local(obs.matrix, obs.sites, ens.spectral.lattice, w)
    m = w.conj().T @ aw
    off = np.abs(m) ** 2
    np.fill_diagonal(off, 0.0)
    return float(off.sum()), float(np.real(np.vdot(w, aw)))


@pytest.fixture(scope="module")
def ensembles8():
    lat = LatticeSpec(8, 2)
    out = []
    for model in ("mixed-field-ising", "xxz-disordered", "heisenberg-random-field"):
        spec = diagonalize(build_model(model, lat, seed=2))
        out.append(DiagonalEnsemble(spec, random_product_state(lat, 4)))
    # W = 0: SU(2)-symmetric, 70 degenerate blocks over 256 levels
    spec = diagonalize(build_model("heisenberg-random-field", lat, params={"W": 0.0}))
    out.append(DiagonalEnsemble(spec, random_product_state(lat, 5)))
    return out


@pytest.mark.parametrize("axis", ["X", "Y", "Z"])
def test_block_matrix_matches_block_vector_route(ensembles8, axis):
    assert [len(e.blocks) for e in ensembles8] == [256, 256, 256, 70]
    for ens in ensembles8:
        lat = ens.spectral.lattice
        for obs in (site_observable(lat, 3, axis), bond_observable(lat, 5, axis)):
            want_var, want_mean = _reference_block_route(ens, obs)
            assert variance_exact(ens, obs) == pytest.approx(want_var, rel=1e-12, abs=1e-14)
            assert ensemble_expectation(ens, obs) == pytest.approx(want_mean, rel=1e-12, abs=1e-14)


def _peak_bytes(call):
    # tracemalloc peak of one call
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_doubles(fn, ens, obs):
    # tracemalloc peak of one call, in units of dim^2 doubles
    return _peak_bytes(lambda: fn(ens, obs)) / (ens.spectral.dim**2 * 8)


def test_block_matrix_peak_memory(cpus):
    # the block matrix is walked a band of whole blocks at a time, and each
    # band meets the eigenvectors through A applied to its own levels, so
    # no dim x dim matrix of the observable is formed
    lat = LatticeSpec(9, 2)
    spec = diagonalize(build_model("mixed-field-ising", lat))
    ens = DiagonalEnsemble(spec, random_product_state(lat, 3))
    assert len(ens.blocks) == spec.dim
    obs = site_observable(lat, 4)
    for fn in (variance_exact, ensemble_expectation):
        assert _peak_doubles(fn, ens, obs) <= 4, fn.__name__
    # at 10 sites, one level per block and W = 0 with 252 degenerate blocks,
    # on 1, 2 and 8 CPUs: the variance peaked at 1.2 and 0.5 dim^2 with
    # V^dag A V cached, which took 2 dim^2 more to form
    lat = LatticeSpec(10, 2)
    w0 = build_model("heisenberg-random-field", lat, params={"W": 0.0})
    for ham, blocks in ((build_model("mixed-field-ising", lat), 1024), (w0, 252)):
        ens = DiagonalEnsemble(diagonalize(ham), random_product_state(lat, 5))
        assert len(ens.blocks) == blocks
        obs, y = site_observable(lat, 4), site_observable(lat, 4, "Y")
        for workers in (1, 2, 8):
            cpus(workers)
            assert _peak_doubles(variance_exact, ens, obs) < 0.6, (blocks, workers)
            assert _peak_doubles(ensemble_expectation, ens, obs) < 0.5, (blocks, workers)
            # a complex block on real eigenvectors: complex band products,
            # 0.57 and 0.82 dim^2 doubles on one worker and on two
            assert _peak_doubles(variance_exact, ens, y) < (0.62 if workers == 1 else 0.88), (blocks, workers)


def test_time_band_peak_memory():
    # the phase table is formed BAND_ROWS times at a time, where the whole
    # T x dim complex table, its conjugate and a complex product were held;
    # a site Y reads the same reduced states as a site Z
    lat = LatticeSpec(9, 2)
    spec = diagonalize(build_model("mixed-field-ising", lat))
    ens = DiagonalEnsemble(spec, random_product_state(lat, 3))
    table = 2000 * spec.dim * 16
    for obs in (site_observable(lat, 4), site_observable(lat, 4, "Y")):
        assert _peak_bytes(lambda: variance_sampled(ens, obs, samples=2000)) < 0.25 * table, obs.label
        grids = [np.linspace(0.0, 100.0, n) for n in (2000, 8000)]
        small, large = (_peak_bytes(lambda: expectation_trajectory(ens, obs, t)) for t in grids)
        assert large - small <= (8000 - 2000) * 8, obs.label


def test_subsystem_equilibration_peak_memory():
    # both calls fill whole bands, and each time keeps 16 bytes, its time
    # and its distance; the T x dim rows and their bipartition copy took
    # 32 bytes per time and amplitude
    lat = LatticeSpec(9, 2)
    ens = DiagonalEnsemble(diagonalize(build_model("mixed-field-ising", lat)), random_product_state(lat, 3))
    small, large = (_peak_bytes(lambda: subsystem_equilibration(ens, (4,), samples=n)) for n in (200, 2000))
    assert large - small <= (2000 - 200) * 32


def test_sampled_variance_is_the_trajectory_about_the_mean(ens6, spec6_module):
    # same bits as the trajectory and the ensemble mean called on their own
    a = site_observable(spec6_module.lattice, 2, "Y")
    sam = variance_sampled(ens6, a, samples=300, seed=4)
    times = np.random.default_rng(4).uniform(0.0, sam.horizon, size=300)
    dev = (expectation_trajectory(ens6, a, times) - ensemble_expectation(ens6, a)) ** 2
    assert sam.value == float(dev.mean())
    assert sam.stderr == float(dev.std(ddof=1) / np.sqrt(300))


def test_sampled_variance_converges(spec6_module):
    psi = random_product_state(spec6_module.lattice, 8)
    ens = DiagonalEnsemble(spec6_module, psi)
    a = site_observable(spec6_module.lattice, 3)
    exact = variance_exact(ens, a)
    sam = variance_sampled(ens, a, samples=2000, seed=0)
    assert abs(sam.value - exact) <= max(0.05 * exact, 3.0 * sam.stderr)
    assert sam.samples == 2000
    assert sam.horizon > 0


def test_subsystem_equilibration_bound(spec6_module):
    psi = random_product_state(spec6_module.lattice, 5)
    rep = subsystem_equilibration(DiagonalEnsemble(spec6_module, psi), (3,), samples=100, seed=1)
    assert rep.passed
    assert rep.mean_distance <= rep.bound + 1e-12
    assert rep.subsystem_dim == 2
    assert rep.max_distance >= rep.mean_distance


def _reference_subsystem_distances(spectral, state, region, times):
    # the former route: one evolve + partial_trace + trace_distance per time
    # against the partial trace of the dense dephased state
    ens = DiagonalEnsemble(spectral, state)
    w = ens._block_rows(0, len(ens.blocks)).T
    omega = _reference_ptrace_dense(w @ w.conj().T, region, spectral.lattice)
    dists = []
    for t in times:
        psi_t = PureState(spectral.lattice, _reference_evolve(spectral, state, float(t)))
        dists.append(trace_distance(partial_trace(psi_t, region).matrix, omega))
    return np.array(dists)


@pytest.mark.parametrize("region", [(3,), (1, 4)])
def test_subsystem_equilibration_matches_time_loop(spec6_module, region):
    psi = random_product_state(spec6_module.lattice, 5)
    rep = subsystem_equilibration(DiagonalEnsemble(spec6_module, psi), region, samples=60, seed=2)
    times = np.random.default_rng(2).uniform(0.0, rep.horizon, size=60)
    want = _reference_subsystem_distances(spec6_module, psi, region, times)
    assert rep.mean_distance == pytest.approx(float(want.mean()), rel=0, abs=1e-12)
    assert rep.max_distance == pytest.approx(float(want.max()), rel=0, abs=1e-12)


def test_evolve_matches_single_time_kernel(spec6_module):
    psi = random_product_state(spec6_module.lattice, 9)
    for t in (0.0, 0.3, 7.5, 1e3):
        got = evolve(spec6_module, psi, t).amplitudes
        np.testing.assert_allclose(got, _reference_evolve(spec6_module, psi, t), rtol=0, atol=1e-13)
    # eigenvectors that are not orthonormal break the norm of every state
    skewed = dataclasses.replace(spec6_module, eigenvectors=1.01 * spec6_module.eigenvectors)
    with pytest.raises(ValueError, match="norm"):
        evolve(skewed, psi, 0.3)
    with pytest.raises(ValueError, match="norm"):
        evolve(spec6_module, psi, math.nan)


def _complex_spectrum():
    # Dzyaloshinskii-Moriya bonds X Y - Y X in tilted fields: complex
    # eigenvectors, so V^dag A V is complex for every observable
    lat = LatticeSpec(6, 2)
    x, y, z = (pauli(a) for a in "XYZ")
    dm = np.kron(x, y) - np.kron(y, x)
    terms = [LocalTerm((i, i + 1), dm, f"dm[{i}]") for i in range(5)]
    terms += [LocalTerm((i,), 0.3 * (i + 1) * z + 0.7 * x, f"h[{i}]") for i in range(6)]
    spec = diagonalize(LocalHamiltonian(lat, terms))
    assert np.abs(spec.eigenvectors.imag).max() > 0.1
    return spec


def _reference_reduced_states(rows, keep, lattice):
    # the reduced states of complex rows by an axis transpose of each row
    d, n = lattice.local_dim, lattice.num_sites
    rest = [s for s in range(n) if s not in keep]
    m = rows.reshape(-1, *[d] * n).transpose(0, *(1 + s for s in [*keep, *rest])).reshape(len(rows), d ** len(keep), -1)
    return np.einsum("tak,tbk->tab", m, m.conj())


# purities and the Pauli traces tr(rho Y(x)X), tr(rho Z(x)Y) of reduced
# states on two sites: the second and third read the imaginary parts
_REDUCED_VALUES = [
    lambda rho: np.einsum("tab,tba->t", rho, rho).real,
    lambda rho: np.einsum("tab,ba->t", rho, np.kron(pauli("Y"), pauli("X"))).real,
    lambda rho: np.einsum("tab,ba->t", rho, np.kron(pauli("Z"), pauli("Y"))).real,
]


# the edges of bands 1, 2 and 4: when two workers walk them, worker 1's
# bands begin at band 1, and worker 0 takes its second and third bands at
# bands 2 and 4
EDGES = [e * BAND_ROWS + k for e in (1, 2, 4) for k in (-1, 0, 1)]


@pytest.mark.parametrize("count", [1, *EDGES, 2000])
def test_time_band_kernels_match_whole_table_formulas(ensembles8, count):
    # the former formulas over the whole T x dim complex table
    spectra = [ens.spectral for ens in ensembles8[:3]] + [_complex_spectrum()]
    for spec in spectra:
        lat = spec.lattice
        psi = random_product_state(lat, 7)
        v = spec.eigenvectors
        c = spec.coefficients(psi.amplitudes)
        np.testing.assert_allclose(c, v.conj().T @ psi.amplitudes, rtol=1e-12, atol=1e-14)
        ens = DiagonalEnsemble(spec, psi)
        times = np.random.default_rng(count).uniform(0.0, 1e4 * spec.dim / spec.norm, size=count)
        table = np.exp(-1j * np.outer(times, spec.energies)) * c
        rho = _reference_reduced_states(table @ v.T, (1, 4), lat)
        for f in _REDUCED_VALUES:
            got = reduced_trajectory(spec, c, times, (1, 4), f)
            np.testing.assert_allclose(got, f(rho), rtol=1e-12, atol=1e-14)
        observables = [site_observable(lat, 3, axis) for axis in "ZXY"]
        for obs in observables + [random_local_observable(lat, (1, 4), seed=3)]:
            a_eig = v.conj().T @ _reference_embed(obs.matrix, obs.sites, lat) @ v
            want = np.real(np.einsum("ti,ij,tj->t", table.conj(), a_eig, table, optimize=True))
            got = expectation_trajectory(ens, obs, times)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=obs.label)


def _dense_observable_formulas(ens, obs, times):
    """Variance, mean and trajectory from the dense v^dag A v: the block
    matrix sums conj(c_i) (V^dag A V)_ij c_j over the levels of blocks k
    and l, and the trajectory is Re p^dag (V^dag A V) p of p = exp(-iEt) c."""
    spec, c = ens.spectral, ens.coefficients
    v = spec.eigenvectors
    a_eig = v.conj().T @ _reference_embed(obs.matrix, obs.sites, spec.lattice) @ v
    starts = [a for a, _ in ens.blocks]
    m = np.add.reduceat(np.add.reduceat(c.conj()[:, None] * a_eig * c, starts, axis=0), starts, axis=1)
    off = np.abs(m) ** 2
    np.fill_diagonal(off, 0.0)
    table = np.exp(-1j * np.outer(times, spec.energies)) * c
    traj = np.real(np.einsum("ti,ij,tj->t", table.conj(), a_eig, table, optimize=True))
    return float(off.sum()), float(np.real(np.trace(m))), traj


def _assert_observables_match_the_dense_formulas(ens):
    lat = ens.spectral.lattice
    times = np.random.default_rng(1).uniform(0.0, 1e4 * lat.dim / ens.spectral.norm, size=2 * BAND_ROWS + 5)
    observables = [site_observable(lat, 3, axis) for axis in "ZXY"] + [random_local_observable(lat, (1, 4), seed=3)]
    for obs in observables:
        var, mean, traj = _dense_observable_formulas(ens, obs, times)
        assert variance_exact(ens, obs) == pytest.approx(var, rel=1e-12, abs=1e-14), obs.label
        assert ensemble_expectation(ens, obs) == pytest.approx(mean, rel=1e-12, abs=1e-14), obs.label
        got = expectation_trajectory(ens, obs, times)
        np.testing.assert_allclose(got, traj, rtol=1e-12, atol=1e-14, err_msg=obs.label)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_observables_match_the_dense_formulas(model, geometry):
    lat = LatticeSpec(8, 2, geometry)
    spec = diagonalize(build_model(model, lat, seed=3))
    _assert_observables_match_the_dense_formulas(DiagonalEnsemble(spec, random_product_state(lat, 2)))


def test_observables_match_the_dense_formulas_on_degenerate_blocks():
    # W = 0: SU(2)-symmetric, bands of whole blocks of several levels
    lat = LatticeSpec(10, 2)
    spec = diagonalize(build_model("heisenberg-random-field", lat, params={"W": 0.0}))
    ens = DiagonalEnsemble(spec, random_product_state(lat, 4))
    assert len(ens.blocks) == 252
    _assert_observables_match_the_dense_formulas(ens)


def test_observables_match_the_dense_formulas_on_complex_eigenvectors():
    spec = _complex_spectrum()
    _assert_observables_match_the_dense_formulas(DiagonalEnsemble(spec, random_product_state(spec.lattice, 8)))


def _per_band_formulas(spec, c, times, keep, fs):
    """f(rho_S(t)) for each of `fs` from the per-band formulas that
    allocated every table afresh in each band: the reduced states on `keep`
    of the band's complex rows for a complex V, and for a real V
    X X^T + Y Y^T + i (K - K^T), K = Y X^T, of the bipartition matrices of
    the rows' real parts X stacked over their imaginary parts Y."""
    out = np.empty((len(fs), times.size))
    v = spec.eigenvectors
    for a in range(0, times.size, BAND_ROWS):
        band = slice(a, a + BAND_ROWS)
        p = -1j * np.outer(times[band], spec.energies)
        np.exp(p, out=p)
        p *= c
        if np.iscomplexobj(v):
            rho = _reduced_states(p @ v.T, keep, spec.lattice)
        else:
            parts = bipartition_matrix(np.concatenate((p.real, p.imag)) @ v.T, keep, spec.lattice)
            x, y = parts[: len(p)], parts[len(p) :]
            k = y @ x.swapaxes(-1, -2)
            rho = np.empty(k.shape, dtype=complex)
            rho.real = x @ x.swapaxes(-1, -2) + y @ y.swapaxes(-1, -2)
            rho.imag = k - k.swapaxes(-1, -2)
        for j, f in enumerate(fs):
            out[j, band] = f(rho)
    return out


@pytest.mark.parametrize("count", [1, *(e for e in EDGES if e % BAND_ROWS), 2000])
def test_time_band_kernels_keep_the_bits_of_the_per_band_formulas(ensembles8, count):
    # the band buffers are allocated once per call; every byte stays
    ensembles = ensembles8[:2]
    ensembles.append(DiagonalEnsemble(_complex_spectrum(), random_product_state(LatticeSpec(6, 2), 7)))
    for ens in ensembles:
        spec, c = ens.spectral, ens.coefficients
        times = np.random.default_rng(count).uniform(0.0, 1e4 * spec.dim / spec.norm, size=count)
        times[0] = 0.0  # the ground level's phase is exactly zero
        want = _per_band_formulas(spec, c, times, (1, 4), _REDUCED_VALUES)
        for f, values in zip(_REDUCED_VALUES, want):
            assert reduced_trajectory(spec, c, times, (1, 4), f).tobytes() == values.tobytes()
        observables = [site_observable(spec.lattice, 3, axis) for axis in "ZY"]
        traces = [lambda rho, a=obs.matrix: np.einsum("tab,ba->t", rho, a).real for obs in observables]
        for obs, traj in zip(observables, _per_band_formulas(spec, c, times, (3,), traces)):
            assert expectation_trajectory(ens, obs, times).tobytes() == traj.tobytes()


def test_time_sampling_validated(spec6_module):
    ens = DiagonalEnsemble(spec6_module, random_product_state(spec6_module.lattice, 1))
    a = site_observable(spec6_module.lattice, 0)
    with pytest.raises(ValueError, match="at least 2"):
        variance_sampled(ens, a, samples=1)
    with pytest.raises(ValueError, match="at least 1"):
        subsystem_equilibration(ens, (0,), samples=0)
    for horizon in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            subsystem_equilibration(ens, (0,), horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            variance_sampled(ens, a, horizon=horizon)


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
