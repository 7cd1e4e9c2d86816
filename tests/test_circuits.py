"""Brickwork circuits, layer generators, sublattice extensivity."""

import numpy as np
import pytest
from conftest import _reference_embed
from scipy.linalg import expm, logm

from ergolab.circuits import (
    CircuitLayer,
    _unitary_log,
    apply_circuit,
    brickwork,
    circuit_extensivity_check,
    haar_unitary,
    layer_generator,
)
from ergolab.overlaps import product_state_from_factors
from ergolab.states import LatticeSpec, basis_product_state, random_product_state


def test_layer_validation(rng):
    lat = LatticeSpec(4, 2)
    u = haar_unitary(4, rng)
    CircuitLayer(lat, [((0, 1), u), ((2, 3), u)])
    with pytest.raises(ValueError):
        CircuitLayer(lat, [((0, 1), u), ((1, 2), u)])  # overlap
    with pytest.raises(ValueError):
        CircuitLayer(lat, [((3, 4), u)])  # out of range
    with pytest.raises(ValueError):
        CircuitLayer(lat, [((0, 1), np.ones((4, 4)))])  # not unitary
    with pytest.raises(ValueError, match=r"gate 1 sites \(1, 1\) are not distinct"):
        CircuitLayer(lat, [((2, 3), u), ((1, 1), u)])


def test_haar_unitary_deterministic():
    a = haar_unitary(4, np.random.default_rng(9))
    b = haar_unitary(4, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert np.allclose(a @ a.conj().T, np.eye(4), atol=1e-12)


def test_brickwork_pattern(rng):
    lat = LatticeSpec(6, 2)
    layers = brickwork(lat, 2, haar_unitary(4, rng))
    assert [g[0] for g in layers[0].gates] == [(0, 1), (2, 3), (4, 5)]
    assert [g[0] for g in layers[1].gates] == [(1, 2), (3, 4)]
    assert [layer.gate_range for layer in layers] == [2, 2]


def test_brickwork_period_three(rng):
    lat = LatticeSpec(9, 2)
    layers = brickwork(lat, 1, haar_unitary(4, rng), period=3)
    assert [g[0] for g in layers[0].gates] == [(0, 1), (3, 4), (6, 7)]


def test_apply_circuit_against_dense(rng):
    lat = LatticeSpec(4, 2)
    layers = brickwork(lat, 2, lambda i: haar_unitary(4, rng))
    psi = random_product_state(lat, rng)
    got = apply_circuit(psi, layers)
    dense = np.eye(16, dtype=complex)
    for layer in layers:
        for sites, gate in layer.gates:
            dense = _reference_embed(gate, sites, lat) @ dense
    want = dense @ psi.amplitudes
    assert np.allclose(got.amplitudes, want, atol=1e-12)


def _reference_apply(psi, layers):
    """The tensordot/moveaxis loop that index gathering replaced."""
    d = psi.lattice.local_dim
    t = psi.tensor().copy()
    for layer in layers:
        for sites, mat in layer.gates:
            m = len(sites)
            g = mat.reshape([d] * (2 * m))
            t = np.tensordot(g, t, axes=(list(range(m, 2 * m)), list(sites)))
            t = np.moveaxis(t, range(m), sites)
    return t.reshape(-1)


@pytest.mark.parametrize("n, d", [(6, 2), (5, 3)])
def test_apply_circuit_matches_tensordot_reference(n, d):
    rng = np.random.default_rng(n + d)
    lat = LatticeSpec(n, d)
    layers = brickwork(lat, 3, lambda i: haar_unitary(d**2, rng))
    layers.append(CircuitLayer(lat, [((n - 1, 0), haar_unitary(d**2, rng))]))
    gates = [((0, 2, 4), haar_unitary(d**3, rng)), ((1,), haar_unitary(d, rng))]
    layers.append(CircuitLayer(lat, gates))
    psi = random_product_state(lat, rng)
    got = apply_circuit(psi, layers)
    want = _reference_apply(psi, layers)
    assert got.amplitudes.dtype == want.dtype
    assert np.array_equal(got.amplitudes, want)


def test_identity_circuit_is_identity():
    lat = LatticeSpec(5, 2)
    layers = brickwork(lat, 3, np.eye(4))
    psi = basis_product_state(lat, (0, 1, 0, 1, 1))
    out = apply_circuit(psi, layers)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_extensivity_translation_invariant(rng):
    lat = LatticeSpec(9, 2, "chain-periodic")
    f = rng.normal(size=2) + 1j * rng.normal(size=2)
    f /= np.linalg.norm(f)
    psi = product_state_from_factors(lat, [f] * 9)
    gate = haar_unitary(4, np.random.default_rng(13))
    out = apply_circuit(psi, brickwork(lat, 1, gate, period=3))
    rep = circuit_extensivity_check(out, 3)
    assert rep.passed
    assert rep.branch == "extensive"
    assert rep.product_power_distance <= 1e-8
    assert rep.additivity_error <= 1e-6
    assert rep.marginals_max_distance <= 1e-8
    assert rep.s2_sublattice == pytest.approx(3 * rep.s2_site, abs=1e-6)


def test_extensivity_product_branch():
    # uniform product input: marginal identity requires the same factor
    lat = LatticeSpec(6, 2)
    psi = basis_product_state(lat, (1, 1, 1, 1, 1, 1))
    rep = circuit_extensivity_check(psi, 2)
    assert rep.branch == "product"
    assert rep.passed
    assert rep.product_overlap >= 1 - 1e-8


def test_extensivity_requires_divisible_spacing():
    lat = LatticeSpec(6, 2)
    psi = basis_product_state(lat, (0,) * 6)
    with pytest.raises(ValueError):
        circuit_extensivity_check(psi, 4)


def test_extensivity_warns_inside_light_cone(rng):
    lat = LatticeSpec(6, 2)
    psi = random_product_state(lat, rng)
    with pytest.warns(UserWarning):
        circuit_extensivity_check(psi, 2, light_cone_radius=4)


def test_layer_generator_identity_layer():
    lat = LatticeSpec(4, 2)
    layer = brickwork(lat, 1, np.eye(4))[0]
    qlu = layer_generator(layer)
    assert qlu.time == 0.0
    assert qlu.generator.terms == []


def test_unitary_log_matches_scipy_logm():
    rng = np.random.default_rng(15)
    q = haar_unitary(4, rng)
    repeated = np.exp(1j * np.array([0.7, 0.7, -2.1, 0.7]))
    gates = [haar_unitary(4, rng) for _ in range(120)] + [
        np.eye(4, dtype=complex),
        np.diag(repeated),
        (q * repeated) @ q.conj().T,  # the repeated phase in a rotated basis
    ]
    for u in gates:
        np.testing.assert_allclose(_unitary_log(u), logm(u), rtol=0, atol=1e-12)


def test_layer_generator_of_swap():
    # SWAP's eigenvalue -1 lies on the branch cut, where +i pi and -i pi
    # are both logarithms, so only exp(-i v) = U and the strength are pinned
    swap = np.eye(4)[[0, 2, 1, 3]]
    qlu = layer_generator(brickwork(LatticeSpec(2, 2), 1, swap)[0])
    assert abs(qlu.time - np.pi) <= 1e-12
    (term,) = qlu.generator.terms
    v = qlu.time * term.matrix
    np.testing.assert_allclose(expm(-1j * v), swap, rtol=0, atol=1e-12)
