"""Model catalog, diagonalization, gap scans, thermal identities."""

import dataclasses
import math

import numpy as np
import pytest

from ergolab.hamiltonians import (
    DENSE_DIM_GUARD,
    LocalHamiltonian,
    LocalTerm,
    ResourceGuardError,
    _coincidence_pairs,
    build_model,
    check_gibbs_identities,
    degenerate_groups,
    diagonalize,
    free_energy,
    gap_report,
    gibbs_populations,
    gibbs_state,
    inverse_temperature,
    log_partition,
    trace_energy_density,
)
from ergolab.operators import pauli
from ergolab.states import LatticeSpec


def two_site_ising(j=1.0, hx=0.6):
    lat = LatticeSpec(2, 2)
    zz = np.kron(pauli("Z"), pauli("Z"))
    terms = [
        LocalTerm((0, 1), j * zz, "zz"),
        LocalTerm((0,), hx * pauli("X"), "x0"),
        LocalTerm((1,), hx * pauli("X"), "x1"),
    ]
    return LocalHamiltonian(lat, terms)


def test_two_site_ising_spectrum_oracle():
    # J ZZ + hx(X+X) diagonalizes in the swap-symmetric sectors:
    # eigenvalues -J, +J, +-sqrt(J^2 + 4 hx^2)
    j, hx = 1.0, 0.6
    spec = diagonalize(two_site_ising(j, hx))
    r = math.sqrt(j * j + 4 * hx * hx)
    want = np.sort(np.array([-j, j, -r, r]))
    got = np.sort(spec.energies + spec.hamiltonian.ground_shift)
    assert np.allclose(got, want, atol=1e-12)
    assert spec.energies[0] == pytest.approx(0.0, abs=1e-12)


def test_eigenvector_phase_convention():
    spec = diagonalize(two_site_ising())
    for k in range(spec.dim):
        v = spec.eigenvectors[:, k]
        lead = v[np.abs(v) > 1e-8][0]
        assert lead.real > 0
        assert abs(lead.imag) <= 1e-10 * abs(lead)


def test_diagonalize_orthonormal(spec6):
    v = spec6.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(spec6.dim), atol=1e-10)
    h = spec6.hamiltonian.assemble(shifted=True)
    assert np.allclose(v.conj().T @ h @ v, np.diag(spec6.energies), atol=1e-8)


def test_assemble_shift_is_scalar(lat6):
    h = build_model("mixed-field-ising", lat6)
    diagonalize(h)
    raw = h.assemble(shifted=False)
    shifted = h.assemble(shifted=True)
    assert np.allclose(shifted - raw, -h.ground_shift * np.eye(lat6.dim), atol=1e-12)


def test_term_hermiticity_enforced():
    with pytest.raises(ValueError):
        LocalTerm((0,), np.array([[0.0, 1.0], [0.0, 0.0]]), "bad")


@pytest.mark.parametrize("sites", [(0, 0), (-1, 0), (3, 4)])
def test_term_sites_checked_at_construction(sites):
    lat = LatticeSpec(4, 2)
    with pytest.raises(ValueError, match="bad-term"):
        LocalHamiltonian(lat, [LocalTerm(sites, np.eye(4), "bad-term")])


def test_build_model_catalog(lat6):
    for name in ("mixed-field-ising", "xxz-disordered", "heisenberg-random-field"):
        h = build_model(name, lat6, seed=3)
        assert max(t.norm for t in h.terms) == pytest.approx(1.0, abs=1e-12)
        assert h.name == name
    with pytest.raises(ValueError):
        build_model("nonexistent", lat6)


def test_disorder_is_seeded(lat6):
    a = build_model("xxz-disordered", lat6, seed=5)
    b = build_model("xxz-disordered", lat6, seed=5)
    c = build_model("xxz-disordered", lat6, seed=6)
    assert a.params["fields"] == b.params["fields"]
    assert a.params["fields"] != c.params["fields"]


def test_periodic_adds_wrap_bond():
    n = 6
    open_h = build_model("mixed-field-ising", LatticeSpec(n, 2, "chain-open"))
    per_h = build_model("mixed-field-ising", LatticeSpec(n, 2, "chain-periodic"))
    open_bonds = [t for t in open_h.terms if len(t.sites) == 2]
    per_bonds = [t for t in per_h.terms if len(t.sites) == 2]
    assert len(open_bonds) == n - 1
    assert len(per_bonds) == n
    assert any(set(t.sites) == {0, n - 1} for t in per_bonds)


def test_trace_energy_density_traceless(lat6):
    h = build_model("mixed-field-ising", lat6)
    assert trace_energy_density(h) == pytest.approx(0.0, abs=1e-14)


def test_dense_guard():
    lat = LatticeSpec(15, 2)
    h = build_model("mixed-field-ising", lat)
    assert lat.dim > DENSE_DIM_GUARD
    with pytest.raises(ResourceGuardError):
        diagonalize(h)


def test_boundary_terms(lat6):
    h = build_model("mixed-field-ising", lat6)
    labels = [t.label for t in h.boundary_terms((0, 1, 2))]
    assert labels == ["zz[2,3]"]
    assert h.boundary_terms(tuple(range(6))) == []


def test_gap_report_flags_paramagnet():
    # pure transverse field: spectrum (N-2k)h, gaps massively coincident
    lat = LatticeSpec(5, 2)
    terms = [LocalTerm((i,), 0.7 * pauli("X"), f"x{i}") for i in range(5)]
    spec = diagonalize(LocalHamiltonian(lat, terms))
    rep = gap_report(spec)
    assert rep.degenerate_levels > 0
    assert rep.degenerate_gap_pairs > 0
    assert not rep.sampled


def test_gap_report_generic_chain(spec6):
    rep = gap_report(spec6)
    assert rep.degenerate_levels == 0
    assert rep.degenerate_gap_pairs == 0
    assert rep.min_gap_difference > rep.tolerance
    assert rep.gaps_scanned > 0


def test_gap_report_sampling_path():
    # above 1024 levels the scan subsamples ordered pairs
    spec = diagonalize(build_model("mixed-field-ising", LatticeSpec(11, 2)))
    rep = gap_report(spec, sample_budget=50_000, seed=0)
    assert rep.sampled
    assert rep.gaps_scanned <= 50_000


def _reference_coincidence_pairs(sorted_vals, tol):
    # the former per-element loop of _coincidence_pairs
    if sorted_vals.size < 2:
        return 0
    close = np.diff(sorted_vals) <= tol
    pairs = 0
    run = 0
    for c in close:
        run = run + 1 if c else 0
        pairs += run
    return pairs


def _reference_degenerate_levels(energies, tol):
    # the former hand-rolled level loop of gap_report
    close = np.diff(np.sort(energies)) <= tol
    degen_levels = 0
    i = 0
    while i < close.size:
        if close[i]:
            j = i
            while j < close.size and close[j]:
                j += 1
            degen_levels += j - i + 1
            i = j
        else:
            i += 1
    return degen_levels


GAP_PIN_VALUES = {
    "size-0": [],
    "size-1": [0.5],
    "size-2-apart": [0.0, 1.0],
    "size-2-tied": [0.3, 0.3],
    "no-ties": [0.0, 0.5, 1.25, 2.0, 3.5],
    "all-ties": [0.7] * 9,
    "runs-at-both-ends": [0.0, 0.0, 1e-13, 0.4, 0.9, 1.3, 2.0, 2.0, 2.0, 2.0],
    "interior-runs": [0.0, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0],
    "rounded-normal": list(np.round(np.random.default_rng(5).normal(size=200), 1)),
}


@pytest.mark.parametrize("name", list(GAP_PIN_VALUES))
def test_gap_counts_match_reference_loops(name, spec6):
    tol = 1e-10
    vals = np.sort(np.asarray(GAP_PIN_VALUES[name], dtype=float))
    assert _coincidence_pairs(vals, tol) == _reference_coincidence_pairs(vals, tol)
    rep = gap_report(dataclasses.replace(spec6, energies=vals), tolerance=tol)
    gaps = np.sort((vals[:, None] - vals[None, :])[~np.eye(vals.size, dtype=bool)])
    assert rep.degenerate_gap_pairs == _reference_coincidence_pairs(gaps, tol)
    assert rep.degenerate_levels == _reference_degenerate_levels(vals, tol)


def test_coincidence_pairs_match_reference_loop_at_scale():
    # sampled-path size: long sorted arrays with many runs of ties
    vals = np.sort(np.round(np.random.default_rng(6).normal(size=100_000), 3))
    pairs = _coincidence_pairs(vals, 1e-10)
    assert pairs == _reference_coincidence_pairs(vals, 1e-10) > 0


def test_gap_report_refuses_nan_or_negative_tolerance(spec6):
    for tol in (math.nan, -1e-3):
        with pytest.raises(ValueError):
            gap_report(spec6, tolerance=tol)
    assert gap_report(spec6, tolerance=0.0).tolerance == 0.0


def test_degenerate_groups():
    e = np.array([0.0, 0.0, 1.0, 1.0 + 1e-12, 2.0])
    groups = degenerate_groups(e, 1e-10)
    assert groups == [(0, 2), (2, 4), (4, 5)]


def test_gibbs_identities(spec6):
    for beta in (0.2, 1.0, 5.0):
        rep = check_gibbs_identities(spec6, beta)
        assert rep.passed
        assert rep.population_identity_error <= 1e-10
        assert rep.min_entropy_identity_error <= 1e-10


def test_gibbs_populations_normalized(spec6):
    p = gibbs_populations(spec6, 2.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(p) <= 1e-15).all()  # colder levels win with E0 = 0
    rho = gibbs_state(spec6, 2.0)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_gibbs_beta_zero_branch(spec6):
    rep = check_gibbs_identities(spec6, 0.0)
    assert rep.passed
    assert rep.log_z == pytest.approx(math.log(spec6.dim), abs=1e-12)
    p = gibbs_populations(spec6, 0.0)
    assert np.allclose(p, 1.0 / spec6.dim, atol=1e-15)


def test_inverse_temperature_refuses_non_finite(spec6):
    for beta in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            inverse_temperature(beta)
        with pytest.raises(ValueError):
            gibbs_populations(spec6, beta)
    assert inverse_temperature(0.0) == 0.0


def test_free_energy_consistency(spec6):
    beta = 1.3
    f = free_energy(spec6, beta)
    assert f == pytest.approx(-log_partition(spec6, beta) / beta, abs=1e-12)
    with pytest.raises(ValueError):
        free_energy(spec6, 0.0)
