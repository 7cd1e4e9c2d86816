"""Model catalog, diagonalization, gap scans, thermal identities."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from ergolab import MEMORY_WORKERS, hamiltonians
from ergolab.hamiltonians import (
    _GAP_BAND,
    DENSE_DIM_GUARD,
    MODEL_NAMES,
    GapReport,
    LocalHamiltonian,
    LocalTerm,
    ResourceGuardError,
    Spectrum,
    _band_scan,
    _basis_eigh,
    _entries,
    _fix_phases,
    _joined_scan,
    _parity_block,
    _placed_vectors,
    _reflection,
    _row_ends,
    _sector_bases,
    _sectors,
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
from ergolab.operators import _support_index, pauli
from ergolab.states import LatticeSpec


GEOMETRIES = ("chain-open", "chain-periodic")


def _routes(h):
    """diagonalize of one model with and without vectors."""
    return diagonalize(h), diagonalize(h, vectors=False)


class _CatalogSpectra(dict):
    """(n, seed) -> (full, energies) of one catalog model on one geometry:
    its two ``_routes``, computed on first use."""

    def __init__(self, name, geometry):
        super().__init__()
        self.name, self.geometry = name, geometry

    def cases(self):
        """Every (n, seed): 1-11 sites (2-11 on a ring, where one site has no
        bond between distinct sites), seeds 0-3 for the random-field models."""
        seeds = range(4) if self.name != "mixed-field-ising" else [0]
        sizes = range(1 if self.geometry == "chain-open" else 2, 12)
        return [(n, seed) for n in sizes for seed in seeds]

    def drop_vectors(self, key):
        """Keep `full` as its energies alone.  The tests of one model and
        geometry run in file order, and the bits test, the last to read the
        eigenvectors, drops them, so the cache holds energies only."""
        full, spec = self[key]
        self[key] = Spectrum(full.hamiltonian, full.energies, full.ground_shift), spec

    def __missing__(self, key):
        n, seed = key
        self[key] = _routes(build_model(self.name, LatticeSpec(n, 2, self.geometry), seed=seed))
        return self[key]


@pytest.fixture(scope="module", params=[(m, g) for m in MODEL_NAMES for g in GEOMETRIES], ids="-".join)
def catalog_spectra(request):
    """One reference spectrum of each route per model, geometry, size and
    seed, shared by the module's tests of that model and geometry."""
    return _CatalogSpectra(*request.param)


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
    got = np.sort(spec.energies + spec.ground_shift)
    assert np.allclose(got, want, atol=1e-12)
    assert spec.energies[0] == pytest.approx(0.0, abs=1e-12)


def test_eigenvector_phase_convention():
    spec = diagonalize(two_site_ising())
    for k in range(spec.dim):
        v = spec.eigenvectors[:, k]
        lead = v[np.abs(v) > 1e-8][0]
        assert lead.real > 0
        assert abs(lead.imag) <= 1e-10 * abs(lead)


def _shifted_matrix(spec):
    """The assembled H of a spectrum with its ground shift taken off the
    diagonal."""
    return spec.hamiltonian.assemble() - spec.ground_shift * np.eye(spec.dim)


def test_diagonalize_orthonormal(spec6):
    v = spec6.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(spec6.dim), atol=1e-10)
    h = _shifted_matrix(spec6)
    assert np.allclose(v.conj().T @ h @ v, np.diag(spec6.energies), atol=1e-8)


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


def test_dense_guard_trips_before_any_entry_is_built():
    h = build_model("xxz-disordered", LatticeSpec(15, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_gap_report_generic_chain(spec6):
    rep = gap_report(spec6)
    assert rep.degenerate_levels == 0
    assert rep.degenerate_gap_pairs == 0
    assert rep.min_gap_difference > rep.tolerance
    assert rep.gaps_scanned == spec6.dim * (spec6.dim - 1) // 2


def _brute_force_gaps(energies):
    # every unordered pair i < j of the given (possibly unsorted) energies
    ii, jj = np.triu_indices(energies.size, k=1)
    return np.sort(np.abs(energies[jj] - energies[ii]))


def test_gap_report_matches_brute_force_oracle():
    # 2048 levels, 2096128 gaps: the scan covers every unordered pair
    spec = diagonalize(build_model("mixed-field-ising", LatticeSpec(11, 2)))
    shuffled = np.random.default_rng(11).permutation(spec.energies)
    gaps = _brute_force_gaps(spec.energies)
    assert gaps.size == 2048 * 2047 // 2
    for tol in (gap_report(spec).tolerance, 1e-12):
        want = _reference_coincidence_pairs(gaps, tol)
        for energies in (spec.energies, shuffled):
            rep = gap_report(dataclasses.replace(spec, energies=energies), tolerance=tol)
            assert rep.gaps_scanned == gaps.size
            assert rep.degenerate_gap_pairs == want > 0
            assert rep.min_gap_difference == np.diff(gaps).min()
    # the default tolerance scales with the norm, which ignores the order
    sorted_rep, shuffled_rep = (
        gap_report(dataclasses.replace(spec, energies=e)) for e in (spec.energies, shuffled)
    )
    assert shuffled_rep == sorted_rep


def test_gap_report_flags_planted_ladder(spec6):
    # 1100 levels, 40 of them in an arithmetic ladder, whose equal
    # spacings are coincident gaps
    rng = np.random.default_rng(3)
    ladder = 20.0 + 0.0137 * np.arange(40)
    generic = np.sort(np.concatenate([rng.uniform(0.0, 10.0, 1060), rng.uniform(21.0, 25.0, 40)]))
    planted = np.sort(np.concatenate([rng.uniform(0.0, 10.0, 1060), ladder]))
    reports = [
        gap_report(dataclasses.replace(spec6, energies=e), tolerance=1e-12)
        for e in (generic, planted)
    ]
    assert reports[0].degenerate_gap_pairs == 0
    assert reports[1].degenerate_gap_pairs > 0


def test_gap_report_finds_one_planted_pair_among_1e7_gaps(spec6):
    # Erdos-Turan Sidon set 2pk + (k^2 mod p): every difference of two of
    # its p integers is distinct, so no two of its p(p-1)/2 gaps coincide.
    p = 4507
    k = np.arange(p)
    sidon = (2 * p * k + (k * k) % p).astype(float)
    assert p * (p - 1) // 2 >= 10**7
    clean = gap_report(dataclasses.replace(spec6, energies=sidon), tolerance=1e-12)
    assert clean.degenerate_gap_pairs == 0
    assert clean.min_gap_difference >= 1.0
    # Replace one level by the half-integer midpoint m of two others whose
    # sum is odd.  Gaps to m are half-integers, so they miss every integer
    # gap; two of them coincide only as m - a = b - m, i.e. a + b = 2m,
    # which the Sidon property allows only for the two chosen levels.
    i = 2000
    j = next(j for j in range(3000, p) if (sidon[i] + sidon[j]) % 2 == 1)
    planted = sidon.copy()
    planted[1000] = 0.5 * (sidon[i] + sidon[j])
    rep = gap_report(dataclasses.replace(spec6, energies=planted), tolerance=1e-12)
    assert rep.degenerate_gap_pairs == 1
    assert rep.min_gap_difference == 0.0
    assert rep.degenerate_levels == clean.degenerate_levels == 0


@pytest.mark.parametrize("dim", [1024, 2048])
def test_gap_report_peak_memory(dim, spec6):
    # the bound of the walk that formed all dim(dim-1)/2 gaps at once
    energies = np.sort(np.random.default_rng(dim).normal(size=dim))
    spec = dataclasses.replace(spec6, energies=energies)
    tracemalloc.start()
    try:
        gap_report(spec, tolerance=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * dim * dim * 8


def test_gap_report_holds_no_array_of_gap_differences(spec6):
    # the bound of the walk that formed all dim(dim-1)/2 gaps and one band
    # of their differences; a second dim^2/2 array of differences would
    # have brought its peak to 1.06 dim^2
    dim = 2048
    energies = np.sort(np.random.default_rng(dim).normal(size=dim))
    spec = dataclasses.replace(spec6, energies=energies)
    tracemalloc.start()
    try:
        gap_report(spec, tolerance=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * dim * dim * 8


def _scan_in_bands(sorted_vals, tol):
    """(smallest neighbour difference, index pairs within tol) of the sorted
    values, walked in bands of _GAP_BAND values and joined."""
    diff = np.empty(_GAP_BAND)
    bands = range(0, sorted_vals.size, _GAP_BAND)
    return _joined_scan([_band_scan(sorted_vals[a : a + _GAP_BAND], tol, diff) for a in bands], tol)


def _reference_coincidence_pairs(sorted_vals, tol):
    # the former per-element loop of the coincidence count
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
    low, pairs = _scan_in_bands(vals, tol)
    assert pairs == _reference_coincidence_pairs(vals, tol)
    assert low == (np.diff(vals).min() if vals.size > 1 else np.inf)
    rep = gap_report(dataclasses.replace(spec6, energies=vals), tolerance=tol)
    assert rep.degenerate_gap_pairs == _reference_coincidence_pairs(_brute_force_gaps(vals), tol)
    assert rep.degenerate_levels == _reference_degenerate_levels(vals, tol)


def test_coincidence_pairs_match_reference_loop_at_scale():
    # long sorted arrays with many runs of ties
    vals = np.sort(np.round(np.random.default_rng(6).normal(size=100_000), 3))
    low, pairs = _scan_in_bands(vals, 1e-10)
    assert pairs == _reference_coincidence_pairs(vals, 1e-10) > 0
    assert low == np.diff(vals).min()


def test_gap_scan_runs_cross_band_borders():
    size = 3 * _GAP_BAND + 5
    assert _scan_in_bands(np.zeros(size), 0.0) == (0.0, size * (size - 1) // 2)
    # five equal values across the first border, and one tie whose
    # difference is the last of the second band
    vals = np.arange(size, dtype=float)
    vals[_GAP_BAND - 2 : _GAP_BAND + 3] = _GAP_BAND - 2
    vals[2 * _GAP_BAND] = 2 * _GAP_BAND - 1
    assert _scan_in_bands(vals, 0.0) == (0.0, 10 + 1) == (0.0, _reference_coincidence_pairs(vals, 0.0))
    # the smallest difference in the last band
    steps = np.arange(size, dtype=float)
    steps[-1] -= 0.75
    assert _scan_in_bands(steps, 0.5) == (0.25, 1)


def test_gap_report_refuses_nan_or_negative_tolerance(spec6):
    for tol in (math.nan, -1e-3):
        with pytest.raises(ValueError):
            gap_report(spec6, tolerance=tol)
    assert gap_report(spec6, tolerance=0.0).tolerance == 0.0


def _dense_gap_reports(spec, tolerances):
    """The walk that gap_report replaced, one report per tolerance: all
    dim(dim-1)/2 gaps formed row by row, sorted in place at once, and their
    neighbour differences walked whole."""
    energies = np.sort(spec.energies)
    dim = energies.size
    gaps = np.empty(dim * (dim - 1) // 2)
    start = 0
    for i in range(dim - 1):
        stop = start + dim - 1 - i
        np.subtract(energies[i + 1 :], energies[i], out=gaps[start:stop])
        start = stop
    gaps.sort()
    diff = np.diff(gaps)
    reports = []
    for tolerance in tolerances:
        tol = 1e-10 * max(spec.norm, 1.0) if tolerance is None else tolerance
        hits = np.flatnonzero(diff <= tol)
        runs = np.diff(np.concatenate(([0], np.flatnonzero(np.diff(hits) != 1) + 1, [hits.size])))
        levels = sum(b - a for a, b in degenerate_groups(energies, tol) if b - a > 1)
        low = float(diff.min()) if diff.size else np.inf
        reports.append(GapReport(tol, low, int(np.sum(runs * (runs + 1) // 2)), levels, gaps.size))
    return reports


def _check_gap_report(spec, tolerances):
    """gap_report against the dense walk and the brute-force gaps."""
    want = _dense_gap_reports(spec, tolerances)
    assert [gap_report(spec, tolerance=tol) for tol in tolerances] == want
    gaps = _brute_force_gaps(spec.energies)
    for rep in want:
        assert rep.degenerate_gap_pairs == _reference_coincidence_pairs(gaps, rep.tolerance)
        assert rep.min_gap_difference == (np.diff(gaps).min() if gaps.size > 1 else np.inf)


def _jittered_levels(n, seed):
    """n levels on a grid of 0.1, each moved by less than 1e-14, so many
    gaps differ by less than 1e-12 without being equal."""
    rng = np.random.default_rng(seed)
    return np.round(rng.uniform(0.0, 3.0, n), 1) + rng.uniform(0.0, 1e-14, n)


@pytest.mark.parametrize("band", [1, 2, 7, 64])
def test_gap_bands_keep_coincidences_across_their_edges(band, monkeypatch, spec6):
    monkeypatch.setattr(hamiltonians, "_GAP_BAND", band)
    joined = []

    def recording(bands, tol):
        joined.append(bands)
        return _joined_scan(bands, tol)

    monkeypatch.setattr(hamiltonians, "_joined_scan", recording)
    paramagnet = [LocalTerm((i,), 0.7 * pauli("X"), f"x{i}") for i in range(5)]
    spectra = {
        "jittered": dataclasses.replace(spec6, energies=_jittered_levels(50, band)),
        "all-equal": dataclasses.replace(spec6, energies=np.full(40, 0.3)),
        "ladder": dataclasses.replace(spec6, energies=0.25 * np.arange(45)),
        "paramagnet": diagonalize(LocalHamiltonian(LatticeSpec(5, 2), paramagnet)),
    }
    for name, spec in spectra.items():
        joined.clear()
        _check_gap_report(spec, (0.0, 1e-12, None, 0.05))
        if name == "jittered":
            # some run of close neighbours goes on across the edge of two bands
            straddles = [b.first != a.last and b.first - a.last <= 1e-12 for a, b in zip(joined[1], joined[1][1:])]
            assert any(straddles), name
        assert all(b.size <= band or b.first == b.last for bands in joined for b in bands), name


def test_gap_report_matches_the_dense_walk_at_12_sites():
    # the sector models, whose 12-site energies come from small blocks (a
    # 12-site mixed-field-ising takes two 2000-state blocks); at 12 sites
    # the bands of the smallest gaps overflow and are halved
    for name in ("xxz-disordered", "heisenberg-random-field"):
        for geometry in GEOMETRIES:
            spec = diagonalize(build_model(name, LatticeSpec(12, 2, geometry)), vectors=False)
            assert [gap_report(spec), gap_report(spec, tolerance=1e-12)] == _dense_gap_reports(spec, (None, 1e-12))


def test_row_ends_agree_with_the_computed_gaps():
    # levels of mixed magnitudes, so E_i + t and E_j - E_i round apart, and
    # thresholds on and next to the gaps themselves
    rng = np.random.default_rng(8)
    for energies in (
        np.sort(np.concatenate([rng.normal(size=30), 1e-17 * rng.normal(size=5), 1e8 + rng.normal(size=10)])),
        np.sort(1e3 + rng.integers(0, 40, 60) * 2.0**-40),
        np.zeros(7),
    ):
        gaps = np.subtract.outer(energies, energies).T  # gaps[i, j] = E_j - E_i
        values = np.unique(gaps[np.triu_indices(energies.size, 1)])
        thresholds = [-np.inf, 0.0, np.inf, *values, *np.nextafter(values, np.inf), *np.nextafter(values, -np.inf)]
        rows = np.arange(energies.size)
        upper = rows > rows[:, None]
        for t in thresholds:
            ends = _row_ends(energies, t)
            assert np.all((ends > rows) & (ends <= energies.size))
            below = upper & (rows < ends[:, None])
            assert np.all(gaps[below] < t) and np.all(gaps[upper & ~below] >= t), t


@pytest.mark.parametrize("dim", [2048, 4096])
def test_gap_report_peak_is_bands_not_gaps(dim, spec6, cpus):
    # per worker an index and a gap buffer of _GAP_BAND entries and one
    # band-sized temporary, one shared ramp, and a few arrays of dim; the
    # dim(dim-1)/2 gaps would take 16 and 64 MiB
    cpus(MEMORY_WORKERS)
    energies = np.sort(np.random.default_rng(dim).normal(size=dim))
    spec = dataclasses.replace(spec6, energies=energies)
    tracemalloc.start()
    try:
        gap_report(spec, tolerance=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _GAP_BAND * (3 * MEMORY_WORKERS + 2) + 64 * 8 * dim, peak


def test_degenerate_groups():
    e = np.array([0.0, 0.0, 1.0, 1.0 + 1e-12, 2.0])
    groups = degenerate_groups(e, 1e-10)
    assert groups == [(0, 2), (2, 4), (4, 5)]
    # the former per-level loop; a step of exactly the tolerance does not cut
    rng = np.random.default_rng(4)
    e = np.cumsum(rng.choice([0.0, 0.5, 1.0, 2.0], size=300))
    want, start = [], 0
    for i in range(1, e.size + 1):
        if i == e.size or e[i] - e[i - 1] > 0.5:
            want.append((start, i))
            start = i
    assert degenerate_groups(e, 0.5) == want


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


def _magnetisation(n):
    """Number of up spins of each computational basis state of n sites."""
    idx = np.arange(2**n)
    return sum((idx >> k) & 1 for k in range(n))


def _sector_pure(vectors, n):
    """Every column is supported on basis states of one magnetisation."""
    m = _magnetisation(n)
    return all(np.unique(m[np.abs(col) > 0]).size == 1 for col in vectors.T)


SECTOR_MODELS = [
    ("xxz-disordered", {}),
    ("heisenberg-random-field", {"W": 1.0}),
]


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("name,params", SECTOR_MODELS)
def test_sector_diagonalization_matches_full_eigh(name, params, geometry):
    h = build_model(name, LatticeSpec(8, 2, geometry), params=params, seed=3)
    full = np.linalg.eigh(h.assemble())[0]
    spec = diagonalize(h)
    v, e = spec.eigenvectors, spec.energies
    assert np.abs(e + spec.ground_shift - full).max() <= 1e-12
    assert np.abs(_shifted_matrix(spec) @ v - v * e).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(spec.dim)).max() <= 1e-12
    assert _sector_pure(v, 8)


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("num_sites", [6, 8])
def test_heisenberg_is_the_isotropic_xxz_chain(num_sites, geometry):
    lat = LatticeSpec(num_sites, 2, geometry)
    for seed in range(4):
        heis = build_model("heisenberg-random-field", lat, seed=seed)
        xxz = build_model("xxz-disordered", lat, params={"delta": 1.0}, seed=seed)
        assert heis.name == "heisenberg-random-field" and heis.params["delta"] == 1.0
        assert heis.norm_rescale == xxz.norm_rescale
        assert np.array_equal(heis.assemble(), xxz.assemble())


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
def test_sector_diagonalization_with_levels_degenerate_across_sectors(geometry):
    # without fields the Heisenberg chain is SU(2) symmetric: its multiplets
    # span several magnetisation sectors, so a full eigh may mix them
    h = build_model("heisenberg-random-field", LatticeSpec(8, 2, geometry), params={"W": 0.0})
    spec = diagonalize(h)
    v, e = spec.eigenvectors, spec.energies
    assert np.abs(_shifted_matrix(spec) @ v - v * e).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(spec.dim)).max() <= 1e-12
    assert _sector_pure(v, 8)


def _complex_xx_chain(n):
    """XX+YY with a Dzyaloshinskii-Moriya term XY-YX and random Z fields:
    complex, and it keeps the magnetisation."""
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    bond = np.kron(x, x) + np.kron(y, y) + 0.4 * (np.kron(x, y) - np.kron(y, x))
    fields = np.random.default_rng(2).uniform(-1, 1, n)
    terms = [LocalTerm((i, i + 1), bond, f"b{i}") for i in range(n - 1)]
    terms += [LocalTerm((i,), fields[i] * z, f"z{i}") for i in range(n)]
    return LocalHamiltonian(LatticeSpec(n, 2), terms)


def test_complex_sector_diagonalization():
    n = 6
    h = _complex_xx_chain(n)
    spec = diagonalize(h)
    v, e = spec.eigenvectors, spec.energies
    assert np.iscomplexobj(v)
    full = np.linalg.eigh(h.assemble())[0]
    assert np.abs(e + spec.ground_shift - full).max() <= 1e-12
    assert np.abs(_shifted_matrix(spec) @ v - v * e).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(spec.dim)).max() <= 1e-12
    assert _sector_pure(v, n)
    lead = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(spec.dim)]
    assert (lead.real > 0).all() and np.abs(lead.imag).max() <= 1e-12


def _lopsided_ising(n, geometry="chain-open"):
    """mixed-field-ising with the field on site 0 raised by a quarter: one
    sector and no mirror symmetry."""
    h = build_model("mixed-field-ising", LatticeSpec(n, 2, geometry))
    field = next(t for t in h.terms if t.sites == (0,))
    field.matrix = 1.25 * field.matrix
    return h


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
def test_one_sector_model_is_diagonalized_whole(geometry):
    h = _lopsided_ising(8, geometry)
    spec = diagonalize(h)
    energies, vectors = np.linalg.eigh(h.assemble())
    assert np.array_equal(spec.energies, energies - spec.ground_shift)
    assert np.array_equal(spec.eigenvectors, _fix_phases(vectors))


def test_one_sector_model_calls_eigh_once_on_the_assembled_matrix(monkeypatch):
    h = _lopsided_ising(6)
    assembled, factorized = [], []
    assemble, eigh = LocalHamiltonian.assemble, np.linalg.eigh

    def recording_assemble(self, *args, **kwargs):
        assembled.append(assemble(self, *args, **kwargs))
        return assembled[-1]

    def recording_eigh(a, *args, **kwargs):
        factorized.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(LocalHamiltonian, "assemble", recording_assemble)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    diagonalize(h)
    assert len(assembled) == 1
    assert len(factorized) == 1
    assert factorized[0] is assembled[0]


def test_one_sector_model_vectors_peak():
    # the parity blocks, their vectors and the placed output; the
    # assembled H stays alive until the output is allocated
    h = build_model("mixed-field-ising", LatticeSpec(10, 2))
    dim = h.lattice.dim
    tracemalloc.start()
    try:
        diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * dim * dim * 8


def _check_parity_spectrum(h, spec):
    """Energies of one full eigh, residual, orthonormality and R v = +-v,
    all within 1e-12."""
    full = np.linalg.eigh(h.assemble())[0]
    v, e = spec.eigenvectors, spec.energies
    assert np.abs(e + spec.ground_shift - full).max() <= 1e-12
    assert np.abs(_shifted_matrix(spec) @ v - v * e).max() <= 1e-12
    assert np.abs(v.conj().T @ v - np.eye(spec.dim)).max() <= 1e-12
    mirrored = v[_reflection(h)]
    parity = np.sign(np.einsum("ij,ij->j", mirrored.conj(), v).real)
    assert np.abs(mirrored - v * parity).max() <= 1e-12
    return parity


@pytest.mark.parametrize(
    "catalog_spectra", [("mixed-field-ising", g) for g in GEOMETRIES], ids=GEOMETRIES, indirect=True
)
@pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11])
def test_parity_route_matches_full_eigh(n, catalog_spectra):
    spec, _ = catalog_spectra[n, 0]
    h = spec.hamiltonian
    assert _reflection(h) is not None
    parity = _check_parity_spectrum(h, spec)
    # the even block holds the 2^ceil(n/2) palindromes and half the rest
    palindromes = 2 ** ((n + 1) // 2)
    assert np.count_nonzero(parity > 0) == palindromes + (2**n - palindromes) // 2


def test_parity_route_calls_eigh_once_per_parity(monkeypatch):
    h = build_model("mixed-field-ising", LatticeSpec(8, 2))
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    diagonalize(h)
    # the two parities are solved side by side, so the call order is a race
    assert sorted(sizes) == [120, 136]


def _dense_assemble(h):
    """The former ``assemble``: each term added into the dense matrix with
    ``+=``, in term order."""
    real = all(np.abs(t.matrix.imag).max() < 1e-15 for t in h.terms if np.iscomplexobj(t.matrix))
    raw = np.zeros((h.lattice.dim, h.lattice.dim), dtype=float if real else complex)
    for t in h.terms:
        block = t.matrix.real if real and np.iscomplexobj(t.matrix) else t.matrix
        rows, cols = _support_index(t.sites, h.lattice)
        raw[rows, cols] += block[:, :, None]
    return raw


def _dense_gather(h, vectors):
    """The former ``diagonalize`` up to its ground shift: the sectors of the
    dense H's nonzero pattern, each block gathered from H as
    ``raw[np.ix_(p, p)]`` or ``_parity_block(raw, p, q, sign)``; the
    unshifted energies and vectors, or energies alone."""
    raw = _dense_assemble(h)
    bases = _sector_bases(_sectors(*np.nonzero(raw), len(raw)), _reflection(h))
    solve = _basis_eigh if vectors else (lambda block, p, q: np.linalg.eigvalsh(block))
    if len(bases) == 1:
        return solve(raw, *bases[0][:2])
    parts = [
        solve(raw[np.ix_(p, p)] if q is None else _parity_block(raw, p, q, sign), p, q)
        for p, q, sign in bases
    ]
    return _placed_vectors(bases, parts) if vectors else np.sort(np.concatenate(parts))


def _check_dense_gather_bits(full, spec):
    """Both routes of one model equal, bit for bit, to the former dense
    gather on that model: ground shift, energies and eigenvectors."""
    h = full.hamiltonian
    assert spec.hamiltonian is h
    e, v = _dense_gather(h, vectors=True)
    assert full.ground_shift == e[0]
    assert np.array_equal(full.energies, e - e[0])
    assert np.array_equal(full.eigenvectors, v)
    e = _dense_gather(h, vectors=False)
    assert spec.ground_shift == e[0]
    assert np.array_equal(spec.energies, e - e[0])


def test_sector_blocks_keep_the_bits_of_the_dense_gather(catalog_spectra):
    for key in catalog_spectra.cases():
        _check_dense_gather_bits(*catalog_spectra[key])
        catalog_spectra.drop_vectors(key)


def _check_energies_route(full, spec):
    """diagonalize without vectors (`spec`) against with them (`full`):
    energies within 1e-12 max(1, ||H||), the same ground shift and the same
    integer fields of the default gap report."""
    assert type(spec) is Spectrum and not hasattr(spec, "eigenvectors")
    assert spec.energies[0] == 0.0 and np.all(np.diff(spec.energies) >= 0)
    norm = np.abs(full.energies + full.ground_shift).max()
    assert np.abs(spec.energies - full.energies).max() <= 1e-12 * max(1.0, norm)
    assert abs(spec.ground_shift - full.ground_shift) <= 1e-12
    want, got = gap_report(full), gap_report(spec)
    for field in ("degenerate_gap_pairs", "degenerate_levels", "gaps_scanned"):
        assert getattr(got, field) == getattr(want, field)


def test_energies_route_matches_diagonalize(catalog_spectra):
    for key in catalog_spectra.cases():
        _check_energies_route(*catalog_spectra[key])


def test_gap_report_matches_the_dense_walk(catalog_spectra):
    # 6 to 11 sites, energies of both routes, at the default tolerance and 1e-12
    for n in range(6, 12):
        for spec in catalog_spectra[n, 0]:
            assert [gap_report(spec), gap_report(spec, tolerance=1e-12)] == _dense_gap_reports(spec, (None, 1e-12))


def test_energies_route_matches_diagonalize_on_custom_terms():
    # one sector and no mirror, so one whole block; and complex sectors
    for n in (2, 5, 8):
        _check_energies_route(*_routes(_lopsided_ising(n)))
        _check_energies_route(*_routes(_complex_xx_chain(n)))


@pytest.mark.parametrize("vectors", [False, True], ids=["vectors-first", "energies-first"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_each_spectrum_subtracts_its_own_ground_energy(name, geometry, vectors):
    # one model diagonalised by both routes: the second spectrum, of route
    # `vectors`, is shifted by that route's own lowest eigenvalue and has
    # the bits of the same route on a freshly built model
    lat = LatticeSpec(8, 2, geometry)
    h = build_model(name, lat, seed=1)
    diagonalize(h, vectors=not vectors)
    second = diagonalize(h, vectors=vectors)
    fresh = diagonalize(build_model(name, lat, seed=1), vectors=vectors)
    raw = _dense_gather(h, vectors=vectors)
    lowest = (raw[0] if vectors else raw)[0]
    assert second.energies[0] == 0.0
    assert second.ground_shift == lowest == fresh.ground_shift
    assert np.array_equal(second.energies, fresh.energies)
    if vectors:
        assert np.array_equal(second.eigenvectors, fresh.eigenvectors)


def _cancelling_chain(n=6):
    """xxz-disordered with an X field on site 1 and its negative: the two
    terms cancel exactly on every entry they touch, so the magnetisation
    sectors stay apart."""
    h = build_model("xxz-disordered", LatticeSpec(n, 2), seed=1)
    x = 0.3 * pauli("X")
    h.terms[:0] = [LocalTerm((1,), x, "+x"), LocalTerm((1,), -x, "-x")]
    return h


def test_sector_blocks_keep_the_bits_of_the_dense_gather_on_custom_terms():
    # the sectors of the entries are those of the dense pattern, also where
    # terms cancel exactly
    h = _cancelling_chain()
    raw = _dense_assemble(h)
    assert np.array_equal(h.assemble(), raw)
    i, j, _ = _entries(h)
    sectors = _sectors(i, j, len(raw))
    assert len(sectors) == 6 + 1
    want = _sectors(*np.nonzero(raw), len(raw))
    assert all(np.array_equal(a, b) for a, b in zip(sectors, want, strict=True))
    models = [
        h,
        _swapped_factor_chain(),
        *(
            build_model("heisenberg-random-field", LatticeSpec(8, 2, g), params={"W": 0.0})
            for g in GEOMETRIES
        ),
        *(_lopsided_ising(n) for n in (2, 5, 8)),
        *(_complex_xx_chain(n) for n in (2, 5, 8)),
    ]
    for model in models:
        _check_dense_gather_bits(*_routes(model))


def test_energies_route_builds_no_dense_matrix():
    # the 12 magnetisation sectors are scattered from the entries one at a
    # time; the assembled H and its nonzero mask alone are 1.13 dim^2 doubles
    h = build_model("xxz-disordered", LatticeSpec(11, 2))
    dim = h.lattice.dim
    tracemalloc.start()
    try:
        diagonalize(h, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * dim * dim * 8


def _swapped_factor_chain(n=6):
    """Bonds X Z on the left half and Z X, their mirror images, on the
    right; the middle bond and the fields are their own mirrors."""
    x, z = pauli("X"), pauli("Z")
    terms = []
    for i in range(n - 1):
        if 2 * i + 1 == n - 1:
            bond = np.kron(x, z) + np.kron(z, x)
        else:
            bond = np.kron(x, z) if 2 * i + 1 < n - 1 else np.kron(z, x)
        terms.append(LocalTerm((i, i + 1), bond, f"b[{i}]"))
    terms += [LocalTerm((i,), 0.7 * x + 0.4 * z, f"f[{i}]") for i in range(n)]
    return LocalHamiltonian(LatticeSpec(n, 2), terms)


def test_reflection_detected_on_swapped_two_site_factors():
    h = _swapped_factor_chain()
    mirror = _reflection(h)
    # site 0 is the most significant digit: R reverses the digits
    assert mirror[0b000001] == 0b100000 and mirror[0b000110] == 0b011000
    assert np.array_equal(mirror[mirror], np.arange(2**6))
    _check_parity_spectrum(h, diagonalize(h))


def test_reflection_needs_an_exact_partner_for_every_term():
    h = build_model("mixed-field-ising", LatticeSpec(6, 2))
    assert _reflection(h) is not None
    assert _reflection(_lopsided_ising(6)) is None
    # unswapped factors on the right half break the mirror
    h = _swapped_factor_chain()
    right = next(t for t in h.terms if t.sites == (4, 5))
    right.matrix = np.kron(pauli("X"), pauli("Z"))
    assert _reflection(h) is None
    # a field off by one ulp has no partner
    h = build_model("mixed-field-ising", LatticeSpec(6, 2))
    field = next(t for t in h.terms if t.sites == (5,))
    field.matrix = np.nextafter(field.matrix, 2.0)
    assert _reflection(h) is None


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("name", ["xxz-disordered", "heisenberg-random-field"])
def test_random_field_models_are_not_mirror_symmetric(name, geometry):
    for seed in range(4):
        h = build_model(name, LatticeSpec(8, 2, geometry), params={"W": 0.5}, seed=seed)
        assert _reflection(h) is None


def test_clean_heisenberg_chain_splits_sectors_by_parity():
    # without fields each magnetisation sector is mapped onto itself
    h = build_model("heisenberg-random-field", LatticeSpec(8, 2), params={"W": 0.0})
    raw = h.assemble()
    bases = _sector_bases(_sectors(*np.nonzero(raw), len(raw)), _reflection(h))
    assert sum(p.size for p, _, _ in bases) == 2**8
    spec = diagonalize(h)
    _check_parity_spectrum(h, spec)
    assert _sector_pure(spec.eigenvectors, 8)


@pytest.mark.parametrize("n", [5, 8])
def test_xxz_sectors_are_the_magnetisation_sectors(n):
    h = build_model("xxz-disordered", LatticeSpec(n, 2), seed=1)
    raw = h.assemble()
    sectors = _sectors(*np.nonzero(raw), len(raw))
    m = _magnetisation(n)
    assert len(sectors) == n + 1
    assert sorted(idx.size for idx in sectors) == sorted(math.comb(n, k) for k in range(n + 1))
    assert all(np.unique(m[idx]).size == 1 for idx in sectors)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(2**n))


def test_mixed_field_ising_is_one_sector():
    raw = build_model("mixed-field-ising", LatticeSpec(7, 2)).assemble()
    (sector,) = _sectors(*np.nonzero(raw), len(raw))
    assert np.array_equal(sector, np.arange(2**7))


def test_tiny_entry_joins_sectors():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 200))
    raw = np.zeros((200, 200))
    raw[:120, :120] = a[:120, :120] + a[:120, :120].T
    raw[120:, 120:] = a[120:, 120:] + a[120:, 120:].T
    perm = rng.permutation(200)
    raw = raw[np.ix_(perm, perm)]
    apart = _sectors(*np.nonzero(raw), len(raw))
    assert sorted(idx.size for idx in apart) == [80, 120]
    assert all(np.array_equal(idx, np.sort(idx)) for idx in apart)
    # one entry in either triangle joins them
    i, j = apart[1][0], apart[0][0]
    for entry in ((max(i, j), min(i, j)), (min(i, j), max(i, j))):
        joined = raw.copy()
        joined[entry] = 1e-14
        (sector,) = _sectors(*np.nonzero(joined), len(joined))
        assert np.array_equal(sector, np.arange(200))


@pytest.mark.parametrize("beta", [0.0, 0.2, 1.0, 5.0, 40.0])
def test_gibbs_log_sum_exp_matches_scipy(beta, spec6):
    degenerate = diagonalize(
        build_model("heisenberg-random-field", LatticeSpec(6, 2), params={"W": 0.0})
    )
    for spec in (spec6, degenerate):
        ref = logsumexp(-beta * spec.energies)
        assert log_partition(spec, beta) == pytest.approx(ref, rel=1e-14, abs=1e-14)
        np.testing.assert_allclose(
            gibbs_populations(spec, beta), np.exp(-beta * spec.energies - ref), rtol=1e-13, atol=0
        )

