"""Transfer operators, injectivity, and product-overlap decay."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from ergolab import mps
from ergolab.mps import (
    MPSSpec,
    ghz_spec,
    injectivity,
    mps_overlap_decay,
    mps_to_dense,
    normalized,
    product_overlap_transfer,
    random_injective_spec,
    transfer_operator,
)
from ergolab.overlaps import product_state_from_factors
from ergolab.states import ResourceGuardError


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
    assert injectivity(MPSSpec(np.reshape([0.6, 0.8], (2, 1, 1)))).injective
    assert injectivity(cluster_spec()).injective
    rep = injectivity(ghz_spec())
    assert rep.relative_gap <= 1e-6


def test_ghz_dense_form():
    psi = mps_to_dense(ghz_spec(), 4)
    amps = np.abs(psi.amplitudes)
    assert amps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[-1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.abs(amps[1:-1]).max() <= 1e-12


def test_dense_mps_refused_above_dense_guard():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="guard"):
            mps_to_dense(ghz_spec(), 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_product_mps_dense_form():
    phi = np.array([0.6, 0.8j])
    psi = mps_to_dense(MPSSpec(phi.reshape(2, 1, 1)), 5)
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


def test_decay_branches():
    # bond dimension 1: the product state with factor (1, 1)/sqrt(2) on every site
    product = MPSSpec(np.full((2, 1, 1), 1.0 / np.sqrt(2.0)))
    prod = mps_overlap_decay(product, (8, 12, 16))
    assert prod.branch == "product"
    assert prod.passed
    rej = mps_overlap_decay(ghz_spec(), (8, 12))
    assert rej.branch == "non-injective"
    assert not rej.passed
    assert rej.kappa is None
    for sizes in ((8,), (12, 12)):
        with pytest.raises(ValueError, match="two distinct"):
            mps_overlap_decay(product, sizes)


def test_decay_cluster_state():
    rep = mps_overlap_decay(cluster_spec(), tuple(range(8, 41, 4)))
    assert rep.branch == "decay"
    assert rep.passed
    assert rep.kappa > 0.1
    assert rep.r_squared >= 0.999


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


def test_local_dim_guard_precedes_injectivity():
    # a GHZ-like spec on three levels: non-injective, yet refused like an
    # injective local_dim 3 spec rather than reported as non-injective
    t = np.zeros((3, 2, 2))
    t[0, 0, 0] = t[1, 1, 1] = 1.0
    spec = MPSSpec(t)
    assert not injectivity(spec).injective
    with pytest.raises(NotImplementedError):
        mps_overlap_decay(spec, (8, 12))


def test_bond_dim_guard():
    # the closed-form 2x2 eigenvalues are exact at bond dimension 2 only;
    # a bond-3 spec used to pass as a product state with overlap one
    for bond_dim in (3, 4):
        spec = random_injective_spec(bond_dim=bond_dim, seed=2)
        with pytest.raises(NotImplementedError):
            mps_overlap_decay(spec, (8, 12))


def _padded(spec):
    pad = 2 - spec.bond_dim
    return np.pad(normalized(spec).tensors, ((0, 0), (0, pad), (0, pad)))


def _bloch_state(theta, phi_angle):
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi_angle) * np.sin(theta / 2.0)])


def test_bloch_overlaps_match_transfer_eigvals():
    product = MPSSpec(np.array([0.6, 0.8j]).reshape(2, 1, 1))
    specs = (product, cluster_spec(), random_injective_spec(seed=0), random_injective_spec(seed=7))
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.0, np.pi, size=20)
    phi_angle = rng.uniform(0.0, 2.0 * np.pi, size=20)
    sizes = np.array([1, 2, 3, 8, 13, 40])
    for spec in specs:
        z = mps._z_values(normalized(spec), sizes)
        got = mps._bloch_overlaps(_padded(spec), theta, phi_angle, sizes[:, None], z[:, None])
        for i, n in enumerate(sizes):
            for j, (t, p) in enumerate(zip(theta, phi_angle)):
                want = product_overlap_transfer(spec, _bloch_state(t, p), int(n))
                assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


REFINE_OPTIONS = {"maxiter": 200, "xatol": 1e-8, "fatol": 1e-12}


@pytest.mark.parametrize("seed", [0, 3])
def test_zoom_reaches_scipy_nelder_mead(seed):
    # scipy's simplex search on the eigvals route, started from the best
    # grid point of each size, finds no larger overlap than the zoom
    spec = random_injective_spec(seed=seed)
    sizes = (8, 13, 24, 40, 64)
    na, nb = mps.BLOCH_GRID
    theta = np.pi * (np.arange(na) + 0.5) / na
    phi_angle = 2.0 * np.pi * np.arange(nb) / nb
    n = np.array(sizes)[:, None, None]
    z = mps._z_values(normalized(spec), sizes)[:, None, None]
    starts = zip(*mps._peak(_padded(spec), theta[:, None], phi_angle, n, z)[:2])
    grid = mps_overlap_decay(spec, sizes, refine=False).max_overlaps
    zoom = mps_overlap_decay(spec, sizes).max_overlaps
    for size, x0, g, v in zip(sizes, starts, grid, zoom):

        def f(x):
            return -product_overlap_transfer(spec, _bloch_state(*x), size)

        ref = minimize(f, np.array(x0), method="Nelder-Mead", options=REFINE_OPTIONS)
        assert g <= v
        assert v >= -ref.fun - 1e-13, (size, v, -ref.fun)
