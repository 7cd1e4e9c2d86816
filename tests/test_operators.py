"""Local-operator application and the hermitian product basis."""

import numpy as np
import pytest
from conftest import _reference_embed

from ergolab.hamiltonians import MODEL_NAMES, LocalHamiltonian, LocalTerm, build_model
from ergolab.operators import (
    apply_local,
    hermitian_site_basis,
    is_hermitian,
    operator_norm,
    pauli,
    random_density,
    random_hermitian,
)
from ergolab.states import LatticeSpec


def test_pauli_algebra():
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    assert np.allclose(x @ y, 1j * z)
    assert np.allclose(x @ x, np.eye(2))
    with pytest.raises(ValueError):
        pauli("Q")


def test_embed_single_site(rng):
    lat = LatticeSpec(2, 2)
    z = pauli("Z")
    amps = rng.normal(size=4)
    assert np.allclose(apply_local(z, (0,), lat, amps), np.kron(z, np.eye(2)) @ amps)
    assert np.allclose(apply_local(z, (1,), lat, amps), np.kron(np.eye(2), z) @ amps)


def test_embed_contiguous_pair(rng):
    lat = LatticeSpec(3, 2)
    op = np.kron(pauli("X"), pauli("Z"))
    amps = rng.normal(size=8)
    want = np.kron(op, np.eye(2)) @ amps
    assert np.allclose(apply_local(op, (0, 1), lat, amps), want)
    want = np.kron(np.eye(2), op) @ amps
    assert np.allclose(apply_local(op, (1, 2), lat, amps), want)


def test_embed_noncontiguous_oracle(rng):
    # act on sites (0, 2) of three qubits; oracle via tensor reshuffling
    lat = LatticeSpec(3, 2)
    op = random_hermitian(4, rng)
    amps = rng.normal(size=(8, 3))
    got = apply_local(op, (0, 2), lat, amps)
    t = op.reshape(2, 2, 2, 2)
    want = np.einsum("acbd,ef->aecbfd", t, np.eye(2)).reshape(8, 8) @ amps
    assert np.allclose(got, want, atol=1e-12)


def test_embed_site_order_is_canonicalized(rng):
    # the support tuple is sorted internally; axes follow ascending sites
    lat = LatticeSpec(3, 2)
    op = random_hermitian(4, rng)
    amps = rng.normal(size=8)
    assert np.array_equal(apply_local(op, (2, 0), lat, amps), apply_local(op, (0, 2), lat, amps))
    with pytest.raises(ValueError, match="duplicate"):
        apply_local(op, (0, 0), lat, amps)


def test_apply_local_refusals(rng):
    lat = LatticeSpec(3, 2)
    op = random_hermitian(4, rng)
    amps = rng.normal(size=8)
    with pytest.raises(ValueError, match="outside"):
        apply_local(op, (2, 3), lat, amps)
    with pytest.raises(ValueError, match="shape"):
        apply_local(op, (1,), lat, amps)
    with pytest.raises(ValueError, match="dimension"):
        apply_local(op, (0, 1), lat, amps[:4])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("support", ["single", "contiguous", "noncontiguous", "full"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_embed_matches_kron_reference(d, n, support, dtype):
    # the kernel acts as the kron-embedded operator on a vector and on columns
    lat = LatticeSpec(n, d)
    sites = {
        "single": (n - 2,),
        "contiguous": (1, 2),
        "noncontiguous": (0, n - 1) if n < 5 else (0, 2, 4),
        "full": tuple(range(n)),
    }[support]
    dim = d ** len(sites)
    rng = np.random.default_rng(n * d)
    op = rng.normal(size=(dim, dim))
    amps = rng.normal(size=(lat.dim, 3))
    if dtype is complex:
        op = op + 1j * rng.normal(size=(dim, dim))
        amps = amps + 1j * rng.normal(size=amps.shape)
    full = _reference_embed(op, sites, lat)
    for a in (amps[:, 0], amps):
        got = apply_local(op, sites, lat, a)
        want = full @ a
        assert got.dtype == want.dtype and got.shape == a.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("axis", ["Z", "Y"])
def test_apply_local_pauli_is_exact(axis, rng):
    # one nonzero per row: every amplitude is one exact product
    lat = LatticeSpec(5, 2)
    amps = rng.normal(size=(lat.dim, 2)) + 1j * rng.normal(size=(lat.dim, 2))
    for site in range(5):
        full = _reference_embed(pauli(axis), (site,), lat)
        assert np.array_equal(apply_local(pauli(axis), (site,), lat, amps), full @ amps)


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("n", [6, 7])
def test_assemble_matches_kron_reference(name, geometry, n):
    lat = LatticeSpec(n, 2, geometry)
    ham = build_model(name, lat, seed=3)
    want = np.zeros((lat.dim, lat.dim))
    for t in ham.terms:
        want += _reference_embed(t.matrix.astype(float), t.sites, lat)
    got = ham.assemble(shifted=False)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_assemble_complex_terms_match_kron_reference(rng):
    # mixed real and complex terms, one of them on the wrap bond
    lat = LatticeSpec(5, 3, "chain-periodic")
    terms = [
        LocalTerm((4, 0), random_hermitian(9, rng), "wrap"),
        LocalTerm((1, 2), random_hermitian(9, rng).real, "real"),
        LocalTerm((3,), random_hermitian(3, rng), "site"),
    ]
    want = np.zeros((lat.dim, lat.dim), dtype=complex)
    for t in terms:
        want += _reference_embed(t.matrix.astype(complex), t.sites, lat)
    got = LocalHamiltonian(lat, terms).assemble(shifted=False)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_operator_norm_matches_svd(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert operator_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)


def test_hermitian_site_basis_properties():
    basis = hermitian_site_basis(2)
    assert len(basis) == 4
    for label, mat in basis:
        assert is_hermitian(mat)
        assert operator_norm(mat) == pytest.approx(1.0, abs=1e-12)
    # pairwise Hilbert-Schmidt orthogonality
    for i, (_, a) in enumerate(basis):
        for j, (_, b) in enumerate(basis):
            hs = np.trace(a.conj().T @ b).real
            if i == j:
                assert hs > 0
            else:
                assert hs == pytest.approx(0.0, abs=1e-12)


def test_hermitian_site_basis_qutrit():
    basis = hermitian_site_basis(3)
    assert len(basis) == 9
    for _, mat in basis:
        assert is_hermitian(mat)
        assert operator_norm(mat) <= 1.0 + 1e-12


def test_random_hermitian_and_density(rng):
    h = random_hermitian(8, rng, norm=2.5)
    assert is_hermitian(h)
    assert operator_norm(h) == pytest.approx(2.5, rel=1e-10)
    rho = random_density(8, rng)
    ev = np.linalg.eigvalsh(rho)
    assert ev.min() >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
