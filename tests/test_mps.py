"""Transfer operators, injectivity, and product-overlap decay."""

import json

import numpy as np
import pytest

from ergolab.mps import (
    MPSSpec,
    blocked_product_overlap,
    ghz_spec,
    injectivity,
    mps_overlap_decay,
    mps_to_dense,
    normalized,
    product_overlap_transfer,
    product_spec,
    random_injective_spec,
    transfer_operator,
)
from ergolab.overlaps import product_state_from_factors


def cluster_spec():
    a0 = np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2)
    a1 = np.array([[0.0, 1.0], [0.0, -1.0]]) / np.sqrt(2)
    return MPSSpec(np.array([a0, a1]))


def test_spec_validation():
    with pytest.raises(ValueError):
        MPSSpec(np.zeros((2, 2)))  # missing bond axes
    with pytest.raises(ValueError):
        MPSSpec(np.zeros((1, 2, 2)))  # local dim too small
    spec = cluster_spec()
    assert spec.local_dim == 2
    assert spec.bond_dim == 2


def test_json_round_trip():
    spec = random_injective_spec(seed=3)
    back = MPSSpec.from_json(spec.to_json())
    assert np.array_equal(back.tensors, spec.tensors)
    assert back.to_json() == spec.to_json()
    payload = json.loads(spec.to_json())
    for broken in ({k: v for k, v in payload.items() if k != "tensors"}, {**payload, "bond_dim": 3}):
        with pytest.raises(ValueError):
            MPSSpec.from_json(json.dumps(broken))


def test_transfer_operator_shape_and_normalization():
    spec = normalized(random_injective_spec(seed=1))
    t = transfer_operator(spec)
    assert t.shape == (4, 4)
    lead = max(abs(np.linalg.eigvals(t)))
    assert lead == pytest.approx(1.0, abs=1e-10)


def test_injectivity_classification():
    assert not injectivity(ghz_spec()).injective
    assert injectivity(random_injective_spec(seed=0)).injective
    assert injectivity(product_spec([0.6, 0.8])).injective
    assert injectivity(cluster_spec()).injective
    rep = injectivity(ghz_spec())
    assert rep.relative_gap <= 1e-6


def test_ghz_dense_form():
    psi = mps_to_dense(ghz_spec(), 4)
    amps = np.abs(psi.amplitudes)
    assert amps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[-1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.abs(amps[1:-1]).max() <= 1e-12


def test_product_spec_dense_form():
    phi = np.array([0.6, 0.8j])
    psi = mps_to_dense(product_spec(phi), 5)
    want = product_state_from_factors(psi.lattice, [phi] * 5)
    assert abs(np.vdot(want.amplitudes, psi.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_dense_transfer_overlap_agreement():
    spec = random_injective_spec(seed=7)
    rng = np.random.default_rng(0)
    for n in (8, 12):
        dense = mps_to_dense(spec, n)
        for _ in range(3):
            f = rng.normal(size=2) + 1j * rng.normal(size=2)
            f /= np.linalg.norm(f)
            via_t = product_overlap_transfer(spec, f, n)
            prod = product_state_from_factors(dense.lattice, [f] * n)
            via_d = abs(np.vdot(prod.amplitudes, dense.amplitudes))
            assert abs(via_t - via_d) <= 1e-9


def test_blocked_overlap_reduces_to_uniform():
    spec = random_injective_spec(seed=5)
    f = np.array([0.8, 0.6], dtype=complex)
    a = blocked_product_overlap(spec, [f], 12)
    b = product_overlap_transfer(spec, f, 12)
    assert a == pytest.approx(b, abs=1e-12)


def test_blocked_overlap_period_two():
    spec = cluster_spec()
    f0 = np.array([1.0, 0.0], dtype=complex)
    f1 = np.array([0.0, 1.0], dtype=complex)
    n = 8
    got = blocked_product_overlap(spec, [f0, f1], n)
    dense = mps_to_dense(spec, n)
    prod = product_state_from_factors(dense.lattice, [f0, f1] * (n // 2))
    want = abs(np.vdot(prod.amplitudes, dense.amplitudes))
    assert got == pytest.approx(want, abs=1e-10)


def test_decay_branches():
    prod = mps_overlap_decay(product_spec([1.0, 1.0]), (8, 12, 16))
    assert prod.branch == "product"
    assert prod.passed
    rej = mps_overlap_decay(ghz_spec(), (8, 12))
    assert rej.branch == "non-injective"
    assert not rej.passed
    assert rej.kappa is None
    for sizes in ((8,), (12, 12)):
        with pytest.raises(ValueError, match="two distinct"):
            mps_overlap_decay(product_spec([1.0, 1.0]), sizes)


def test_decay_cluster_state():
    rep = mps_overlap_decay(cluster_spec(), tuple(range(8, 41, 4)))
    assert rep.branch == "decay"
    assert rep.passed
    assert rep.kappa > 0.1
    assert rep.r_squared >= 0.999
    assert len(list(rep.csv_rows())) == len(rep.sizes)


def test_decay_overlaps_bounded():
    rep = mps_overlap_decay(random_injective_spec(seed=6), (8, 16, 24, 32))
    assert all(0.0 < v <= 1.0 for v in rep.max_overlaps)
    assert rep.passed


def test_local_dim_guard():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 2, 2))
    spec = MPSSpec(t)
    with pytest.raises(NotImplementedError):
        mps_overlap_decay(spec, (8, 12))
