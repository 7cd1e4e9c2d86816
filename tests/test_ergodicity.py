"""Subsystem entropy scans, envelopes, and the growth/decay trends."""

import dataclasses
import math

import numpy as np
import pytest

from ergolab import ergodicity
from ergolab.ensembles import DiagonalEnsemble, site_observable, variance_exact
from ergolab.ergodicity import (
    SEARCH_MODES,
    SearchPolicy,
    _scan,
    build_profile,
    bulk_check,
    candidate_subsets,
    diagonal_entropy_growth,
    initial_state,
    tail_check,
    variance_decay_trend,
)
from ergolab.fits import fit_line
from ergolab.hamiltonians import (
    MODEL_NAMES,
    LocalHamiltonian,
    LocalTerm,
    build_model,
    diagonalize,
    gap_report,
)
from ergolab.operators import pauli
from ergolab.rates import integrated_bound_check
from ergolab.states import (
    LatticeSpec,
    ResourceGuardError,
    _rows_renyi2,
    _subset_order,
    maximally_entangled,
    random_product_state,
)


def test_policy_validation():
    with pytest.raises(ValueError):
        SearchPolicy(mode="greedy")
    with pytest.raises(ValueError):
        SearchPolicy(max_fraction=0.0)
    with pytest.raises(ValueError):
        SearchPolicy(max_fraction=1.5)
    with pytest.raises(ValueError):
        SearchPolicy(budget=0)
    with pytest.raises(ValueError, match="seed"):
        SearchPolicy(seed=-1)
    assert SearchPolicy().max_size(8) == 4


def test_exhaustive_candidates_count():
    lat = LatticeSpec(6, 2)
    subs = candidate_subsets(lat, SearchPolicy(mode="exhaustive"))
    assert len(subs) == 6 + 15 + 20  # all nonempty subsets up to half
    assert len(set(subs)) == len(subs)


def test_exhaustive_guard():
    with pytest.raises(ResourceGuardError):
        candidate_subsets(LatticeSpec(30, 2), SearchPolicy(mode="exhaustive"))


def test_half_cut_only_candidates():
    lat = LatticeSpec(8, 2)
    subs = candidate_subsets(lat, SearchPolicy(mode="half-cut-only"))
    assert all(sub == tuple(range(sub[0], sub[0] + len(sub))) for sub in subs)
    assert tuple(range(4)) in subs


def test_random_sample_budget_and_determinism():
    lat = LatticeSpec(10, 2)
    pol = SearchPolicy(mode="random-sample", budget=50, seed=4)
    a = candidate_subsets(lat, pol)
    b = candidate_subsets(lat, pol)
    assert a == b
    assert all(1 <= len(sub) <= 5 for sub in a)


def _best_subsystem(amplitudes, lattice, policy):
    cands = candidate_subsets(lattice, policy)
    best_s2, best_idx = _scan(amplitudes[:, None], lattice, cands)
    return cands[best_idx[0]], float(best_s2[0])


def test_exhaustive_scan_on_paired_state():
    # two fully mixed sites: the best subsystem reaches S2 = 2 log 2
    lat = LatticeSpec(6, 2)
    psi = maximally_entangled(lat, (0, 1))
    best, s2 = _best_subsystem(psi.amplitudes, lat, SearchPolicy(mode="exhaustive"))
    assert s2 == pytest.approx(2 * math.log(2), abs=1e-10)
    assert set(best) in ({0, 1}, {2, 3})


def test_random_sample_close_to_exhaustive(spec8):
    psi = spec8.eigenvectors[:, spec8.dim // 3]
    _, s_ex = _best_subsystem(psi, spec8.lattice, SearchPolicy(mode="exhaustive"))
    policy = SearchPolicy(mode="random-sample", budget=500, seed=0)
    _, s_rand = _best_subsystem(psi, spec8.lattice, policy)
    assert s_rand >= 0.95 * s_ex


def test_profile_envelope_is_pointwise_lower_bound(spec6):
    prof = build_profile(spec6, SearchPolicy(mode="exhaustive"))
    g_vals = np.array([prof.g_at(e) for e in prof.densities])
    assert (g_vals <= prof.s2_over_n + 1e-12).all()
    assert prof.lipschitz_k >= 0
    assert len(prof.knots_e) == len(prof.knots_g)


def test_profile_scale_invariance(spec6):
    """Rescaling all energies stretches the axis but not the envelope."""
    prof = build_profile(spec6, SearchPolicy(mode="exhaustive"))
    doubled = dataclasses.replace(spec6, energies=2.0 * spec6.energies)
    prof2 = build_profile(doubled, SearchPolicy(mode="exhaustive"))
    assert np.allclose(prof2.knots_e, 2.0 * np.asarray(prof.knots_e), atol=1e-12)
    assert np.allclose(prof2.knots_g, prof.knots_g, atol=1e-12)
    assert prof2.lipschitz_k == pytest.approx(prof.lipschitz_k / 2.0, rel=1e-10)


def test_profile_needs_populated_bins(spec6):
    with pytest.raises(ValueError):
        build_profile(spec6, SearchPolicy(mode="half-cut-only"), num_bins=1)


def test_decoupled_chain_is_not_ergodic():
    # single-site fields only: every eigenstate is a product, so g == 0.
    # Binary-weighted strengths keep the spectrum nondegenerate, otherwise
    # eigh may hand back entangled mixtures inside degenerate blocks.
    lat = LatticeSpec(6, 2)
    terms = [LocalTerm((i,), 0.4 * 2**i * pauli("X"), f"x{i}") for i in range(6)]
    spec = diagonalize(LocalHamiltonian(lat, terms))
    prof = build_profile(spec, SearchPolicy(mode="exhaustive"), num_bins=5)
    assert not prof.ergodic_interior
    assert max(prof.knots_g) <= 1e-9
    psi = random_product_state(lat, 3)
    ens = DiagonalEnsemble(spec, psi)
    e = float(ens.populations @ spec.energies) / 6
    rep = bulk_check(ens, prof, e)
    assert not rep.applicable
    assert rep.passed
    assert "inapplicable" in rep.note


def test_bulk_check_threshold_formula(spec6):
    prof = build_profile(spec6, SearchPolicy(mode="exhaustive"))
    psi = initial_state("neel", spec6.lattice, 0)
    ens = DiagonalEnsemble(spec6, psi)
    e = float(ens.populations @ spec6.energies) / 6
    rep = bulk_check(ens, prof, e)
    assert rep.applicable
    g = prof.g_at(e)
    # slack factor is reported separately, not folded into the threshold
    assert rep.threshold == pytest.approx(math.exp(-g * 6 / 4.0), rel=1e-12)
    assert rep.slack == 10.0
    assert rep.passed


def test_tail_check_empty_window(spec6):
    psi = initial_state("neel", spec6.lattice, 0)
    ens = DiagonalEnsemble(spec6, psi)
    e = float(ens.populations @ spec6.energies) / 6
    rep = tail_check([ens], [e], 50.0)
    assert rep.m is None
    assert not rep.passed
    assert rep.skipped


def test_tail_check_fits_positive_rate():
    runs = []
    centers = []
    for n in (6, 8):
        lat = LatticeSpec(n, 2)
        spec = diagonalize(build_model("mixed-field-ising", lat))
        psi = initial_state("neel", lat, 0)
        ens = DiagonalEnsemble(spec, psi)
        runs.append(ens)
        centers.append(float(ens.populations @ spec.energies) / n)
    rep = tail_check(runs, centers, 0.12)
    assert rep.m is not None and rep.m > 0
    assert rep.passed
    assert len(rep.points) == 2


def test_initial_state_recipes():
    lat = LatticeSpec(6, 2)
    neel = initial_state("neel", lat, 0)
    assert np.nonzero(neel.amplitudes)[0].tolist() == [0b010101]
    allup = initial_state("all-up", lat, 0)
    assert np.nonzero(allup.amplitudes)[0].tolist() == [0]
    r1 = initial_state("random-product", lat, 5)
    r2 = initial_state("random-product", lat, 5)
    assert np.array_equal(r1.amplitudes, r2.amplitudes)
    with pytest.raises(ValueError):
        initial_state("bogus", lat, 0)


@pytest.fixture(scope="module")
def growth68():
    rep, runs = diagonal_entropy_growth(sizes=(6, 8), seed=0)
    return rep, [ens for _, _, ens, _ in runs]


def test_entropy_growth_small_grid(growth68):
    rep, _ = growth68
    assert rep.sizes == (6, 8)
    assert rep.increasing
    assert rep.s_inf[1] > rep.s_inf[0]
    assert rep.applicable
    assert len(rep.bulk) == 2
    assert rep.variance_trend.passed
    assert rep.passed


def test_entropy_growth_needs_two_sizes():
    with pytest.raises(ValueError):
        diagonal_entropy_growth(sizes=(6,))


def test_variance_trend_small_grid(growth68):
    rep = growth68[0].variance_trend
    assert rep.included == (6, 8)
    assert rep.negative_slope
    assert rep.k_consistent
    assert rep.pointwise_ok
    assert rep.passed
    assert rep.variances[1] < rep.variances[0]
    assert all(v <= b for v, b in zip(rep.variances, rep.bounds_s2))


def _reference_variance_trend(sizes, gap_tolerance=1e-12):
    # the former trend loop: it built and diagonalised every size itself
    included, excluded, variances = [], [], []
    for n in sizes:
        lat = LatticeSpec(n, 2, "chain-open")
        spec = diagonalize(build_model("mixed-field-ising", lat, {}, 0))
        rep = gap_report(spec, tolerance=gap_tolerance)
        if rep.degenerate_levels or rep.degenerate_gap_pairs:
            excluded.append(
                (
                    n,
                    f"{rep.degenerate_levels} coincident levels, "
                    f"{rep.degenerate_gap_pairs} coincident gap pairs at tol {gap_tolerance:g}",
                )
            )
            continue
        ens = DiagonalEnsemble(spec, initial_state("neel", lat, 0))
        variances.append(variance_exact(ens, site_observable(lat, n // 2, "Z")))
        included.append(n)
    slope, _, _ = fit_line(included, np.log(np.maximum(variances, 1e-300)))
    return tuple(included), tuple(excluded), tuple(variances), slope


def test_variance_trend_matches_rebuilding_reference(growth68):
    rep = growth68[0].variance_trend
    included, excluded, variances, slope = _reference_variance_trend((6, 8))
    assert rep.included == included
    assert rep.excluded == excluded
    assert rep.variances == variances
    assert rep.slope == pytest.approx(slope, rel=0, abs=1e-12)


def test_variance_trend_gap_exclusion():
    # W = 0 is SU(2)-symmetric: coincident levels at every size
    ensembles = []
    for n in (6, 8):
        lat = LatticeSpec(n, 2)
        spec = diagonalize(build_model("heisenberg-random-field", lat, params={"W": 0.0}))
        ensembles.append(DiagonalEnsemble(spec, initial_state("neel", lat, 0)))
    rep = variance_decay_trend(ensembles, k_of_e=0.0)
    assert rep.included == ()
    assert [n for n, _ in rep.excluded] == [6, 8]
    assert all("coincident levels" in why for _, why in rep.excluded)
    assert not rep.passed
    assert "excluded" in rep.note


def _reference_renyi2(vectors, lattice, keep):
    # the former kernel: one N-axis transpose of all columns per candidate
    d, n = lattice.local_dim, lattice.num_sites
    nst = vectors.shape[1]
    kept = set(keep)
    rest = [s for s in range(n) if s not in kept]
    t = vectors.T.reshape((nst, *([d] * n)))
    t = t.transpose([0] + [1 + s for s in keep] + [1 + s for s in rest])
    t = t.reshape(nst, d ** len(keep), -1)
    if np.iscomplexobj(t):
        g = t @ t.conj().transpose(0, 2, 1)
        purity = np.einsum("nab,nab->n", g, g.conj()).real
    else:
        g = t @ t.transpose(0, 2, 1)
        purity = np.einsum("nab,nab->n", g, g)
    return -np.log(np.clip(purity, 1e-300, 1.0))


def _assert_matches_reference(vectors, lattice, cands, best_s2, best_idx):
    """best_s2 agrees with the old candidate loop to 1e-12; a different
    subset is picked only where the two subsets' S2 agree to 1e-12."""
    table = np.stack([_reference_renyi2(vectors, lattice, c) for c in cands])
    ref_s2 = np.full(vectors.shape[1], -1.0)
    ref_idx = np.zeros(vectors.shape[1], dtype=int)
    for ci, s2 in enumerate(table):
        upd = s2 > ref_s2
        ref_s2[upd] = s2[upd]
        ref_idx[upd] = ci
    np.testing.assert_allclose(best_s2, ref_s2, rtol=0, atol=1e-12)
    cols = np.arange(vectors.shape[1])
    np.testing.assert_allclose(
        table[best_idx, cols], table[ref_idx, cols], rtol=0, atol=1e-12
    )


def _unit_columns(dim, count, seed, complex_=True):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(dim, count))
    if complex_:
        v = v + 1j * rng.normal(size=(dim, count))
    return v / np.linalg.norm(v, axis=0)


def _periodic8():
    lat = LatticeSpec(8, 2, "chain-periodic")
    return diagonalize(build_model("mixed-field-ising", lat))


SCAN_CASES = {
    "real-mfi8": lambda spec8: (spec8.lattice, spec8.eigenvectors),
    "complex-columns": lambda spec8: (LatticeSpec(7, 2), _unit_columns(2**7, 53, 1)),
    "local-dim-3": lambda spec8: (LatticeSpec(5, 3), _unit_columns(3**5, 41, 2)),
    "local-dim-3-real": lambda spec8: (LatticeSpec(5, 3), _unit_columns(3**5, 30, 3, False)),
    "chain-periodic": lambda spec8: (LatticeSpec(8, 2, "chain-periodic"), _periodic8().eigenvectors),
}


@pytest.mark.parametrize("block_rows", [None, 7, 1])
@pytest.mark.parametrize("mode", SEARCH_MODES)
@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_matches_transpose_reference(case, mode, block_rows, spec8, monkeypatch):
    lattice, vectors = SCAN_CASES[case](spec8)
    if block_rows is not None:
        # blocks of 7 leave a remainder on every case; 1 is one state per block
        row_bytes = vectors.shape[0] * vectors.itemsize
        monkeypatch.setattr(ergodicity, "SCAN_BLOCK_BYTES", block_rows * row_bytes)
        assert vectors.shape[1] % block_rows or block_rows == 1
    cands = candidate_subsets(lattice, SearchPolicy(mode=mode, budget=60, seed=3))
    best_s2, best_idx = _scan(vectors, lattice, cands)
    _assert_matches_reference(vectors, lattice, cands, best_s2, best_idx)


@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_profile_matches_transpose_reference(mode, spec8, monkeypatch):
    row_bytes = spec8.eigenvectors[:, 0].nbytes
    monkeypatch.setattr(ergodicity, "SCAN_BLOCK_BYTES", 13 * row_bytes)
    policy = SearchPolicy(mode=mode, budget=80, seed=1)
    prof = build_profile(spec8, policy)
    cands = candidate_subsets(spec8.lattice, policy)
    n = spec8.lattice.num_sites
    best_idx = np.array([cands.index(sub) for sub in prof.best_subsets])
    _assert_matches_reference(
        spec8.eigenvectors, spec8.lattice, cands, prof.s2_over_n * n, best_idx
    )


# The scan before candidates were pruned by their ceiling and blocks ran on
# threads, kept verbatim: the present scan must match it bit for bit.
PINNED_SCAN_BLOCK_BYTES = 1 << 20


def _pinned_scan(vectors, lattice, cands):
    nst = vectors.shape[1]
    best_s2 = np.full(nst, -1.0)
    best_idx = np.zeros(nst, dtype=int)
    step = max(1, PINNED_SCAN_BLOCK_BYTES // (vectors.shape[0] * vectors.itemsize))
    for start in range(0, nst, step):
        rows = np.ascontiguousarray(vectors[:, start : start + step].T)
        block_s2 = best_s2[start : start + step]
        block_idx = best_idx[start : start + step]
        for ci, cand in enumerate(cands):
            s2 = _rows_renyi2(rows, lattice, cand)
            upd = s2 > block_s2
            block_s2[upd] = s2[upd]
            block_idx[upd] = ci
    return best_s2, best_idx


def _assert_pinned(vectors, lattice, cands, monkeypatch, cpus):
    """The scan equals the pinned one in blocks of 37 states (several, with
    a remainder), on 1 and 2 CPUs."""
    ref_s2, ref_idx = _pinned_scan(vectors, lattice, cands)
    monkeypatch.setattr(ergodicity, "SCAN_BLOCK_BYTES", 37 * vectors[:, 0].nbytes)
    assert vectors.shape[1] > 37 and vectors.shape[1] % 37
    for workers in (1, 2):
        cpus(workers)
        best_s2, best_idx = _scan(vectors, lattice, cands)
        assert np.array_equal(best_s2, ref_s2), workers
        assert np.array_equal(best_idx, ref_idx), workers


@pytest.mark.parametrize("mode", ["exhaustive", "random-sample"])
@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_scan_pinned_on_eigenvectors(model, geometry, mode, monkeypatch, cpus):
    lattice = LatticeSpec(8, 2, geometry)
    spec = diagonalize(build_model(model, lattice))
    cands = candidate_subsets(lattice, SearchPolicy(mode=mode, budget=60, seed=2))
    _assert_pinned(spec.eigenvectors, lattice, cands, monkeypatch, cpus)


@pytest.mark.parametrize("mode", ["exhaustive", "random-sample"])
@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
def test_scan_pinned_on_complex_columns(geometry, mode, monkeypatch, cpus):
    lattice = LatticeSpec(8, 2, geometry)
    cands = candidate_subsets(lattice, SearchPolicy(mode=mode, budget=60, seed=4))
    _assert_pinned(_unit_columns(lattice.dim, 90, 5), lattice, cands, monkeypatch, cpus)


@pytest.mark.parametrize("geometry", ["chain-open", "chain-periodic"])
@pytest.mark.parametrize("n", [8, 10])
def test_parity_route_keeps_best_s2_on_nondegenerate_levels(n, geometry):
    # the parity blocks and one full eigh agree on a level up to rounding
    # over its separation from its neighbours, eps ||H|| / gap; a degenerate
    # level (k and -k on the ring) may mix differently and is left out
    lattice = LatticeSpec(n, 2, geometry)
    h = build_model("mixed-field-ising", lattice)
    spec = diagonalize(h)
    full = np.linalg.eigh(h.assemble())[1]
    cands = candidate_subsets(lattice, SearchPolicy(mode="random-sample", budget=60, seed=1))
    gaps = np.diff(spec.energies)
    separation = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    isolated = separation > 1e-8
    assert isolated.sum() >= lattice.dim // 8
    parity_s2, full_s2 = (_scan(v, lattice, cands)[0] for v in (spec.eigenvectors, full))
    diff = np.abs(parity_s2 - full_s2)
    assert (diff[isolated] <= 1e-12 + 1e-13 / separation[isolated]).all()
    assert diff[separation > 1e-2].max() <= 1e-12


def test_scan_tie_goes_to_lower_index():
    # sites 0 and 1 form a Bell pair and site 2 is |0>: (0,) and the larger,
    # later (0, 2) have the same S2, and the larger one is visited first
    lattice = LatticeSpec(4, 2)
    vectors = maximally_entangled(lattice, (0,)).amplitudes[:, None]
    cands = [(0,), (0, 2)]
    small, large = (_rows_renyi2(vectors.T, lattice, c)[0] for c in cands)
    assert small == large == pytest.approx(math.log(2))
    best_s2, best_idx = _scan(vectors, lattice, cands)
    assert best_idx[0] == 0 and best_s2[0] == small
    ref_s2, ref_idx = _pinned_scan(vectors, lattice, cands)
    assert np.array_equal(best_s2, ref_s2) and np.array_equal(best_idx, ref_idx)


@pytest.mark.parametrize("n, d, keep", [(6, 2, (1, 4)), (5, 3, (4, 0, 2)), (4, 2, (0, 1))])
def test_subset_order_is_read_only_permutation(n, d, keep):
    order = _subset_order(n, d, keep)
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 0
    assert np.array_equal(np.sort(order), np.arange(d**n))
    assert _subset_order(n, d, keep) is order
    # gathering a row at the order puts the kept digits first
    x = np.random.default_rng(0).normal(size=d**n)
    rest = [s for s in range(n) if s not in keep]
    expected = x.reshape((d,) * n).transpose([*keep, *rest]).reshape(-1)
    assert np.array_equal(x[order], expected)


def test_integrated_bound_s2_unchanged(spec6):
    # the former route: one evolve per grid time, then the transpose kernel
    psi = random_product_state(spec6.lattice, 7)
    t = np.linspace(0.0, 2.0, 9)
    c = spec6.coefficients(psi.amplitudes)
    cols = np.stack(
        [spec6.eigenvectors @ (np.exp(-1j * spec6.energies * ti) * c) for ti in t], axis=1
    )
    for region in [(0, 1, 2), (1, 4)]:
        new = integrated_bound_check(psi, spec6, region, t)
        old = _reference_renyi2(cols, spec6.lattice, region)
        np.testing.assert_allclose(new.s2_values, old, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="empty"):
        integrated_bound_check(psi, spec6, (0, 1, 2), [])
