"""Operator embedding and the hermitian product basis."""

import numpy as np
import pytest

from ergolab.hamiltonians import MODEL_NAMES, LocalHamiltonian, LocalTerm, build_model
from ergolab.operators import (
    embed_operator,
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


def test_embed_single_site():
    lat = LatticeSpec(2, 2)
    z = pauli("Z")
    assert np.allclose(embed_operator(z, (0,), lat), np.kron(z, np.eye(2)))
    assert np.allclose(embed_operator(z, (1,), lat), np.kron(np.eye(2), z))


def test_embed_contiguous_pair():
    lat = LatticeSpec(3, 2)
    op = np.kron(pauli("X"), pauli("Z"))
    want = np.kron(op, np.eye(2))
    assert np.allclose(embed_operator(op, (0, 1), lat), want)
    want = np.kron(np.eye(2), op)
    assert np.allclose(embed_operator(op, (1, 2), lat), want)


def test_embed_noncontiguous_oracle(rng):
    # act on sites (0, 2) of three qubits; oracle via tensor reshuffling
    lat = LatticeSpec(3, 2)
    op = random_hermitian(4, rng)
    got = embed_operator(op, (0, 2), lat)
    t = op.reshape(2, 2, 2, 2)
    want = np.einsum("acbd,ef->aecbfd", t, np.eye(2)).reshape(8, 8)
    assert np.allclose(got, want, atol=1e-12)


def test_embed_site_order_is_canonicalized(rng):
    # the support tuple is sorted internally; axes follow ascending sites
    lat = LatticeSpec(3, 2)
    op = random_hermitian(4, rng)
    assert np.allclose(embed_operator(op, (2, 0), lat), embed_operator(op, (0, 2), lat), atol=1e-12)
    with pytest.raises(ValueError):
        embed_operator(op, (0, 0), lat)


def _reference_embed(op, sites, lattice):
    """The kron-with-identities embedding that index scattering replaced."""
    sites = tuple(sorted(int(s) for s in sites))
    d, n = lattice.local_dim, lattice.num_sites
    m = len(sites)
    if m == n:
        return op
    if m > 0 and sites[-1] - sites[0] + 1 == m:
        left, right = sites[0], n - sites[-1] - 1
        return np.kron(np.kron(np.eye(d**left), op), np.eye(d**right))
    rest = [s for s in range(n) if s not in sites]
    full = np.kron(op, np.eye(d ** (n - m)))
    perm = np.argsort(list(sites) + rest)
    t = full.reshape([d] * (2 * n))
    t = np.transpose(t, list(perm) + [n + p for p in perm])
    return np.ascontiguousarray(t).reshape(lattice.dim, lattice.dim)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("support", ["single", "contiguous", "noncontiguous", "full"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_embed_matches_kron_reference(d, n, support, dtype):
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
    if dtype is complex:
        op = op + 1j * rng.normal(size=(dim, dim))
    got = embed_operator(op, sites, lat)
    want = _reference_embed(op, sites, lat)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


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
