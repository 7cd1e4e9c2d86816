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
from ergolab.states import LatticeSpec, random_product_state


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
    rep = integrated_bound_check(psi, spec6.hamiltonian, (0, 1, 2), t)
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
    m = u.matrix()
    assert np.allclose(m @ m.conj().T, np.eye(16), atol=1e-10)


def test_layer_generator_reproduces_layer():
    lat = LatticeSpec(4, 2)
    rng = np.random.default_rng(2)
    layer = brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0]
    qlu = layer_generator(layer)
    dense = np.eye(16, dtype=complex)
    for sites, gate in layer.gates:
        dense = _reference_embed(gate, sites, lat) @ dense
    assert np.allclose(qlu.matrix(), dense, atol=1e-10)
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
