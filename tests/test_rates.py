"""Entangling rates, interaction decompositions, stability bounds."""

import numpy as np
import pytest
from conftest import _reference_embed
from scipy.linalg import expm

from ergolab.circuits import brickwork, haar_unitary, layer_generator
from ergolab.hamiltonians import LocalHamiltonian, LocalTerm, build_model, diagonalize
from ergolab.operators import (
    hermitian_site_basis,
    pauli,
    random_density,
    random_hermitian,
)
from ergolab.rates import (
    QuasiLocalUnitary,
    _basis_stack,
    _renyi2_left,
    boundary_rate,
    check_rate_bound,
    decompose_interaction,
    entangling_rate,
    entangling_rate_fd,
    integrated_bound_check,
    stability_experiment,
)
from ergolab.states import GEOMETRIES, LatticeSpec, PureState, random_product_state


def test_decompose_single_pauli_term():
    v = np.kron(pauli("Z"), pauli("Z"))
    dec = decompose_interaction(v, (2, 2))
    assert dec.l1_norm == pytest.approx(1.0, abs=1e-12)
    assert len(dec.terms) == 1
    assert dec.reconstruction_error <= 1e-12
    assert np.allclose(dec.reconstruct(), v, atol=1e-12)


def test_decompose_zero_operator():
    dec = decompose_interaction(np.zeros((4, 4)), (2, 2))
    assert dec.terms == ()
    assert dec.l1_norm == 0.0
    assert np.allclose(dec.reconstruct(), 0.0)


def test_decompose_random_reconstructs(rng):
    v = random_hermitian(16, rng)
    dec = decompose_interaction(v, (4, 4))
    assert np.allclose(dec.reconstruct(), v, atol=1e-10)
    assert dec.l1_norm >= abs(np.trace(v).real) / 16 - 1e-12


def _reference_terms(v, dims):
    """The term-by-term kron + trace loop the vectorised kernel replaced."""
    da, db = dims
    terms = []
    for la, a in hermitian_site_basis(da):
        for lb, b in hermitian_site_basis(db):
            hs = np.trace(a @ a).real * np.trace(b @ b).real
            c = np.trace(np.kron(a, b) @ v) / hs
            if abs(c) > 1e-14:
                terms.append((float(c.real), la, lb))
    return terms


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2), (3, 3), (4, 4)])
def test_decompose_matches_reference_loop(dims, rng):
    dim = dims[0] * dims[1]
    cases = [random_hermitian(dim, rng), random_hermitian(dim, rng, norm=3.0).real]
    sparse = []
    if dims == (2, 2):
        zz_x = np.kron(pauli("Z"), pauli("Z")) + 0.3 * np.kron(pauli("X"), np.eye(2))
        # a round trip through a random rotation leaves rounding-level (~1e-16)
        # coefficients on the fourteen absent products, which the 1e-14 rule skips
        u = haar_unitary(4, rng)
        noisy = u.conj().T @ (u @ zz_x @ u.conj().T) @ u
        sparse = [zz_x, 0.5 * (noisy + noisy.conj().T)]
    for v in cases + sparse:
        dec = decompose_interaction(v, dims)
        ref = _reference_terms(v, dims)
        # the skip rule yields the same term list, in the same order
        assert [t[1:] for t in dec.terms] == [t[1:] for t in ref]
        got = np.array([t[0] for t in dec.terms])
        want = np.array([t[0] for t in ref])
        assert np.abs(got - want).max() <= 1e-12
        assert dec.l1_norm == pytest.approx(np.abs(want).sum(), abs=1e-12)
        assert dec.reconstruction_error <= 1e-12
        assert np.abs(dec.reconstruct() - v).max() <= 1e-12
    for v in sparse:
        labels = [t[1:] for t in decompose_interaction(v, dims).terms]
        assert labels == [("X01", "I"), ("D1", "D1")]


def test_basis_stack_is_read_only():
    for d in (2, 3, 4):
        labels, stack, hs = _basis_stack(d)
        assert labels == tuple(label for label, _ in hermitian_site_basis(d))
        assert _basis_stack(d)[1] is stack
        for arr in (stack, hs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _reference_fd(rho, dims, v, h=1e-5):
    u = expm(-1j * h * v)
    fwd = _renyi2_left(u @ rho @ u.conj().T, dims)
    bwd = _renyi2_left(u.conj().T @ rho @ u, dims)
    return (fwd - bwd) / (2.0 * h)


def test_fd_rate_matches_expm_reference(rng):
    for _ in range(5):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng)
        fd = entangling_rate_fd(rho, (4, 4), v)
        ref = _reference_fd(rho, (4, 4), v)
        # relative to |rate|, floored at 1: the difference quotient turns
        # rounding in S_2 into ~1e-11 whichever way exp(-iVh) is formed,
        # and these rates are ~1e-2
        assert abs(fd - ref) <= 1e-9 * max(abs(ref), 1.0)
    # an unnormalised rho is refused rather than differentiated
    with pytest.raises(ValueError):
        entangling_rate_fd(1e-2 * rho, (4, 4), v)


def test_fd_rate_rejects_nonhermitian(rng):
    v = random_hermitian(16, rng) + 1e-3j * np.eye(16)
    with pytest.raises(ValueError):
        entangling_rate_fd(random_density(16, rng), (4, 4), v)


def test_decompose_rejects_nonhermitian():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        decompose_interaction(bad, (2, 2))


def test_rate_vanishes_for_product_noninteracting(rng):
    # V acting on one side only cannot entangle
    rho = np.kron(random_density(2, rng), random_density(2, rng))
    v = np.kron(random_hermitian(2, rng), np.eye(2))
    assert entangling_rate(rho, (2, 2), v) == pytest.approx(0.0, abs=1e-10)


def test_rate_matches_finite_difference(rng):
    for _ in range(25):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng)
        rate = entangling_rate(rho, (4, 4), v)
        fd = entangling_rate_fd(rho, (4, 4), v)
        assert abs(rate - fd) <= 1e-6 * max(abs(rate), 1e-3)


def test_rate_bound_random(rng):
    for _ in range(50):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng)
        rep = check_rate_bound(rho, (4, 4), v)
        assert rep.passed
        assert abs(rep.rate) <= rep.bound + 1e-10
        assert rep.bound == pytest.approx(4.0 * rep.l1_norm, rel=1e-12)


def test_boundary_rate_matches_direct(spec6):
    # an eigenstate pushed slightly off equilibrium has a nonzero rate
    from ergolab.ensembles import evolve
    from ergolab.states import PureState

    lat = spec6.lattice
    psi = evolve(spec6, random_product_state(lat, 3), 0.8)
    rep = boundary_rate(psi, (0, 1, 2), spec6.hamiltonian)
    assert rep.passed
    assert rep.difference <= 1e-8
    assert len(rep.term_rates) == len(rep.straddling) == 1


def test_boundary_rate_no_straddling_terms():
    # two decoupled halves: S2 of the left half is conserved
    lat = LatticeSpec(4, 2)
    zz = np.kron(pauli("Z"), pauli("Z"))
    terms = [
        LocalTerm((0, 1), 0.8 * zz, "zz01"),
        LocalTerm((2, 3), 0.8 * zz, "zz23"),
        LocalTerm((0,), 0.5 * pauli("X"), "x0"),
        LocalTerm((2,), 0.5 * pauli("X"), "x2"),
    ]
    h = LocalHamiltonian(lat, terms)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    from ergolab.states import PureState

    psi = PureState(lat, amps)
    rep = boundary_rate(psi, (0, 1), h)
    assert rep.straddling == ()
    assert abs(rep.direct_rate) <= 1e-9
    assert rep.passed


def test_integrated_bound(spec6):
    psi = random_product_state(spec6.lattice, 9)
    t = np.linspace(0.0, 3.0, 7)
    rep = integrated_bound_check(psi, spec6, (0, 1, 2), t)
    assert rep.passed
    assert rep.max_excess <= 1e-9
    assert rep.s2_values[0] == pytest.approx(0.0, abs=1e-10)
    assert rep.bounds[0] == 0.0
    assert rep.bounds[-1] == pytest.approx(4.0 * 3.0 * rep.boundary_size * rep.max_c_l1, rel=1e-12)
    # entanglement must actually build up, otherwise the check is vacuous
    assert max(rep.s2_values) > 0.1


def test_quasi_local_unitary_validation():
    lat = LatticeSpec(4, 2)
    term = LocalTerm((0, 1), 2.0 * np.kron(pauli("Z"), pauli("Z")), "strong")
    h = LocalHamiltonian(lat, [term])
    with pytest.raises(ValueError):
        QuasiLocalUnitary(h, 1.0)
    ok = LocalHamiltonian(lat, [LocalTerm((0, 1), np.kron(pauli("Z"), pauli("Z")), "zz")])
    u = QuasiLocalUnitary(ok, 0.5)
    m = u.apply(np.eye(16))
    assert np.allclose(m @ m.conj().T, np.eye(16), atol=1e-10)


def test_quasi_local_unitary_matches_expm_on_overlapping_terms():
    # a catalog generator's terms overlap (each field shares its site with
    # two bonds), the route `stability --generator <model>` takes
    lat = LatticeSpec(6, 2)
    gen = build_model("mixed-field-ising", lat)
    h = sum(_reference_embed(t.matrix, t.sites, lat) for t in gen.terms)
    got = QuasiLocalUnitary(gen, 0.3).apply(np.eye(lat.dim))
    np.testing.assert_allclose(got, expm(-0.3j * h), rtol=0, atol=1e-12)


def _expm_oracle(qlu):
    """exp(-i G t) of the kron-embedded generator, by scipy."""
    lat = qlu.generator.lattice
    g = sum(
        (_reference_embed(t.matrix, t.sites, lat) for t in qlu.generator.terms),
        np.zeros((lat.dim, lat.dim)),
    )
    return expm(-1j * qlu.time * g)


def _layer_generator(num_sites, geometry):
    lat = LatticeSpec(num_sites, 2, geometry)
    rng = np.random.default_rng(num_sites)
    return layer_generator(brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0])


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("num_sites", [6, 8])
@pytest.mark.parametrize("time", [None, 0.37])
def test_apply_matches_expm_on_layers(num_sites, geometry, time):
    # None keeps the layer's own time, at which apply reproduces the gates
    qlu = _layer_generator(num_sites, geometry)
    if time is not None:
        qlu = QuasiLocalUnitary(qlu.generator, time)
    got = qlu.apply(np.eye(qlu.generator.lattice.dim))
    np.testing.assert_allclose(got, _expm_oracle(qlu), rtol=0, atol=1e-12)


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("num_sites", [6, 8])
def test_apply_at_a_long_time_stays_unitary(num_sites, geometry):
    # exp(-i G t) moves by t |dG| when G moves by one rounding, so no
    # double-precision route reaches 1e-12 of the oracle at t = 1e8: the
    # comparison allows 16 t eps per unit of generator norm.  Each local
    # exponential still stays unitary to rounding.
    gen = _layer_generator(num_sites, geometry).generator
    qlu = QuasiLocalUnitary(gen, 1e8)
    dim = gen.lattice.dim
    got = qlu.apply(np.eye(dim))
    assert np.abs(got @ got.conj().T - np.eye(dim)).max() <= 1e-12
    tol = 16 * qlu.time * np.finfo(float).eps * len(gen.terms)
    np.testing.assert_allclose(got, _expm_oracle(qlu), rtol=0, atol=tol)


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("name", ["mixed-field-ising", "xxz-disordered", "heisenberg-random-field"])
def test_apply_matches_expm_on_catalog_generators(name, geometry):
    # every term shares a site with the next: one cluster covers the chain
    lat = LatticeSpec(6, 2, geometry)
    qlu = QuasiLocalUnitary(build_model(name, lat, seed=1), 0.3)
    np.testing.assert_allclose(qlu.apply(np.eye(lat.dim)), _expm_oracle(qlu), rtol=0, atol=1e-12)


def test_apply_matches_expm_on_separate_clusters():
    # a ring of 7: a 3-site cluster {2, 3, 4} of overlapping complex terms,
    # the wrap bond (6, 0) alone, and sites 1 and 5 untouched
    lat = LatticeSpec(7, 2, "chain-periodic")
    rng = np.random.default_rng(5)
    terms = [
        LocalTerm((2, 3), random_hermitian(4, rng, 0.9), "a"),
        LocalTerm((3,), random_hermitian(2, rng, 0.5), "b"),
        LocalTerm((3, 4), random_hermitian(4, rng, 1.0), "c"),
        LocalTerm((6, 0), random_hermitian(4, rng, 0.7), "wrap"),
    ]
    qlu = QuasiLocalUnitary(LocalHamiltonian(lat, terms), 1.3)
    np.testing.assert_allclose(qlu.apply(np.eye(lat.dim)), _expm_oracle(qlu), rtol=0, atol=1e-12)
    # a vector goes the same way as a column
    psi = random_product_state(lat, 2).amplitudes
    np.testing.assert_allclose(qlu.apply(psi), _expm_oracle(qlu) @ psi, rtol=0, atol=1e-12)


def test_apply_of_the_empty_generator_is_the_identity():
    lat = LatticeSpec(5, 2)
    qlu = QuasiLocalUnitary(LocalHamiltonian(lat, []), 0.7)
    np.testing.assert_allclose(qlu.apply(np.eye(lat.dim)), np.eye(lat.dim), rtol=0, atol=1e-12)


def test_apply_on_a_layer_exponentiates_gate_sized_blocks(monkeypatch):
    # a 10-site layer is five clusters of two sites: no eigh above 4 x 4
    qlu = _layer_generator(10, "chain-open")
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    got = qlu.apply(np.eye(qlu.generator.lattice.dim))
    monkeypatch.undo()
    assert shapes and max(max(s) for s in shapes) <= 4
    assert np.abs(got @ got.conj().T - np.eye(got.shape[0])).max() <= 1e-12


def test_layer_generator_reproduces_layer():
    lat = LatticeSpec(4, 2)
    rng = np.random.default_rng(2)
    layer = brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0]
    qlu = layer_generator(layer)
    dense = np.eye(16, dtype=complex)
    for sites, gate in layer.gates:
        dense = _reference_embed(gate, sites, lat) @ dense
    assert np.allclose(qlu.apply(np.eye(16)), dense, atol=1e-10)
    assert all(t.norm <= 1 + 1e-10 for t in qlu.generator.terms)


def test_stability_bound_holds(spec8):
    rng = np.random.default_rng(3)
    layer = brickwork(spec8.lattice, 1, lambda i: haar_unitary(4, rng))[0]
    rep = stability_experiment(spec8.hamiltonian, layer_generator(layer))
    assert rep.passed
    assert rep.max_shift <= rep.bound + 1e-9
    assert rep.mean_shift <= rep.max_shift


def test_stability_small_rotation_is_tight(spec6):
    # small single-bond rotation: bound shrinks with T and still holds
    lat = spec6.lattice
    zz = np.kron(pauli("Z"), pauli("Z"))
    gen = LocalHamiltonian(lat, [LocalTerm((2, 3), zz, "zz23")])
    rep = stability_experiment(spec6.hamiltonian, QuasiLocalUnitary(gen, 0.05))
    assert rep.passed
    assert rep.bound == pytest.approx(4 * 0.05 * 1 * rep.max_c_l1, rel=1e-12)
    assert rep.max_shift > 0


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("model", ["mixed-field-ising", "xxz-disordered"])
def test_mixed_and_pure_rate_routes_agree(model, geometry):
    # complex states: a real state under these real models has rate 0 by
    # time reversal, which both routes would give
    lat = LatticeSpec(6, 2, geometry)
    h = build_model(model, lat, seed=0)
    v = h.assemble()
    rng = np.random.default_rng(5)
    for _ in range(3):
        amps = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
        psi = PureState(lat, amps / np.linalg.norm(amps))
        pure = boundary_rate(psi, (0, 1, 2), h).direct_rate
        mixed = entangling_rate(np.outer(psi.amplitudes, psi.amplitudes.conj()), (8, 8), v)
        assert abs(pure) > 1e-3
        assert abs(mixed - pure) <= 1e-12
