"""Lattice bookkeeping, bipartitions, partial traces, serialization."""

import json

import numpy as np
import pytest

from ergolab.states import (
    DensityMatrix,
    LatticeSpec,
    PureState,
    ResourceGuardError,
    basis_product_state,
    bipartition_matrix,
    density_from_pure,
    maximally_entangled,
    overlap,
    partial_trace,
    random_product_state,
    site_set,
    state_to_json,
    trace_distance,
)


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0, 2)
    with pytest.raises(ValueError):
        LatticeSpec(4, 1)
    with pytest.raises(ValueError):
        LatticeSpec(4, 2, "ring")
    with pytest.raises(ResourceGuardError):
        LatticeSpec(70, 2)
    assert LatticeSpec(1, 2).dim == 2
    assert LatticeSpec(5, 3).dim == 243


def test_site_set_validation_and_props():
    lat = LatticeSpec(5, 2)
    s = site_set(lat, (3, 0))
    assert s.sites == (0, 3)  # stored sorted
    assert s.dim == 4
    assert s.complement().sites == (1, 2, 4)
    assert s.bitmask() == (1 << 0) | (1 << 3)
    with pytest.raises(ValueError):
        site_set(lat, (0, 5))
    # repeated indices collapse rather than error
    assert site_set(lat, (1, 1)).sites == (1,)


def test_basis_state_digit_convention():
    # site 0 is the most significant base-d digit
    lat = LatticeSpec(3, 2)
    psi = basis_product_state(lat, (1, 0, 0))
    assert np.nonzero(psi.amplitudes)[0].tolist() == [4]
    psi = basis_product_state(lat, (0, 0, 1))
    assert np.nonzero(psi.amplitudes)[0].tolist() == [1]


def test_pure_state_normalization_enforced():
    lat = LatticeSpec(2, 2)
    with pytest.raises(ValueError):
        PureState(lat, np.array([1.0, 1.0, 0.0, 0.0]))
    PureState(lat, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))


def test_bipartition_matrix_schmidt():
    lat = LatticeSpec(4, 2)
    psi = random_product_state(lat, 7)
    m = bipartition_matrix(psi.amplitudes, (0, 2), lat)
    assert m.shape == (4, 4)
    sv = np.linalg.svd(m, compute_uv=False)
    # product state: exactly one Schmidt coefficient
    assert sv[0] == pytest.approx(1.0, abs=1e-12)
    assert sv[1] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)


def _reference_bipartition(amplitudes, keep, lattice):
    # the former kernel: an N-axis transpose of one amplitude vector
    d, n = lattice.local_dim, lattice.num_sites
    rest = [s for s in range(n) if s not in set(keep)]
    t = np.transpose(np.asarray(amplitudes).reshape([d] * n), list(keep) + rest)
    return np.ascontiguousarray(t).reshape(d ** len(keep), -1)


@pytest.mark.parametrize("n, d", [(5, 2), (4, 3)])
@pytest.mark.parametrize("keep", [(0,), (1, 2), (0, 2), (0, 1, 3), (1, 3)])
def test_bipartition_matrix_matches_transpose_reference(n, d, keep):
    lat = LatticeSpec(n, d)
    rng = np.random.default_rng(n + d)
    rows = rng.normal(size=(7, lat.dim)) + 1j * rng.normal(size=(7, lat.dim))
    want = np.stack([_reference_bipartition(r, keep, lat) for r in rows])
    assert np.array_equal(bipartition_matrix(rows[0], keep, lat), want[0])
    assert np.array_equal(bipartition_matrix(rows, keep, lat), want)
    # a transposed view of columns, as the scan and the ensembles pass it
    assert np.array_equal(bipartition_matrix(rows.T.copy().T, keep, lat), want)
    stacked = rows.real.reshape(7, 1, lat.dim)
    assert np.array_equal(
        bipartition_matrix(stacked, keep, lat)[:, 0],
        np.stack([_reference_bipartition(r, keep, lat) for r in rows.real]),
    )


def test_partial_trace_product_state(rng):
    lat = LatticeSpec(4, 2)
    psi = random_product_state(lat, rng)
    for sites in [(0,), (1, 3), (0, 1, 2)]:
        rho = partial_trace(psi, sites)
        assert rho.matrix.shape == (2 ** len(sites),) * 2
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_against_einsum_oracle(rng):
    lat = LatticeSpec(3, 2)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    psi = PureState(lat, amps)
    t = amps.reshape(2, 2, 2)
    want = np.einsum("abc,dbe->acde", t, t.conj()).reshape(4, 4)
    got = partial_trace(psi, (0, 2)).matrix
    assert np.allclose(got, want, atol=1e-12)


def test_complementary_spectra_match(rng):
    # Schmidt duality: both halves of a pure state share a spectrum
    lat = LatticeSpec(5, 2)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps /= np.linalg.norm(amps)
    psi = PureState(lat, amps)
    a = np.linalg.eigvalsh(partial_trace(psi, (0, 3)).matrix)
    b = np.linalg.eigvalsh(partial_trace(psi, (1, 2, 4)).matrix)
    assert np.allclose(sorted(a)[::-1][:4], sorted(b)[::-1][:4], atol=1e-10)


def test_maximally_entangled_marginal():
    lat = LatticeSpec(4, 2)
    psi = maximally_entangled(lat, (0, 1))
    rho = partial_trace(psi, (0, 1))
    assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)


def _reference_maximally_entangled(lattice, region):
    """The place-value loop that the subset index order replaced."""
    comp = [s for s in range(lattice.num_sites) if s not in region]
    d, n, m = lattice.local_dim, lattice.num_sites, len(region)
    d_a = d**m
    place = d ** (n - 1 - np.arange(n, dtype=np.int64))
    k = np.arange(d_a, dtype=np.int64)
    idx = np.zeros(d_a, dtype=np.int64)
    for pos in range(m):
        digit = (k // d ** (m - 1 - pos)) % d
        idx += digit * place[region[pos]]
        idx += digit * place[comp[pos]]
    amps = np.zeros(lattice.dim, dtype=complex)
    amps[idx] = 1.0 / np.sqrt(d_a)
    return amps


@pytest.mark.parametrize(
    "n, d, region",
    [
        (4, 2, (0, 1)),
        (6, 2, (1, 4)),
        (7, 2, (0, 3, 5)),
        (5, 3, (2,)),
        (5, 3, (0, 4)),
        (6, 3, (1, 2, 5)),
    ],
)
def test_maximally_entangled_matches_place_value_reference(n, d, region):
    lat = LatticeSpec(n, d)
    got = maximally_entangled(lat, region).amplitudes
    want = _reference_maximally_entangled(lat, region)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_overlap_trace_distance(rng):
    lat = LatticeSpec(3, 2)
    a = random_product_state(lat, rng)
    b = random_product_state(lat, rng)
    f = abs(overlap(a, b))
    # ||rho-sigma||_1 = 2 sqrt(1-|<a|b>|^2) for pure states (no 1/2 prefactor)
    td = trace_distance(a, b)
    assert td == pytest.approx(2.0 * np.sqrt(1.0 - f**2), abs=1e-10)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_density_from_pure_and_mixed_distance():
    lat = LatticeSpec(2, 2)
    up = basis_product_state(lat, (0, 0))
    down = basis_product_state(lat, (1, 1))
    rho = DensityMatrix(lat, 0.5 * density_from_pure(up).matrix + 0.5 * density_from_pure(down).matrix)
    assert trace_distance(rho, density_from_pure(up)) == pytest.approx(1.0, abs=1e-12)


def test_json_round_trip(rng):
    lat = LatticeSpec(3, 2)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    psi = PureState(lat, amps)
    doc = json.loads(state_to_json(psi))
    back = PureState(
        LatticeSpec(doc["num_sites"], doc["local_dim"], doc["geometry"]),
        [complex(re, im) for re, im in doc["amplitudes"]],
    )
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    assert back.lattice == psi.lattice
