import _thread
import contextvars
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ergolab import deal, ensembles, hamiltonians
from ergolab.ensembles import (
    TIME_BAND,
    DiagonalEnsemble,
    _deal_bands,
    evolve_rows,
    expectation_trajectory,
    random_local_observable,
    site_observable,
    variance_sampled,
)
from ergolab.ergodicity import SearchPolicy, _scan, candidate_subsets, random_product_state
from ergolab.hamiltonians import build_model, diagonalize, gap_report
from ergolab.states import LatticeSpec

WORKERS = (1, 2, 3)


def _each_worker_count(cpus, compute):
    """compute() on 1, 2 and 3 CPUs, as bytes."""
    out = []
    for workers in WORKERS:
        cpus(workers)
        out.append([np.asarray(a).tobytes() for a in compute()])
    return out


def test_deal_hands_out_round_robin_shares_with_the_caller_as_worker_0(cpus):
    for workers, want in ((1, [range(0, 7)]), (2, [range(0, 7, 2), range(1, 7, 2)])):
        cpus(workers)
        shares, lock = {}, threading.Lock()

        def share(part):
            with lock:
                shares[part[0]] = (part, threading.get_ident())

        deal(share, range(7))
        assert [shares[k][0] for k in sorted(shares)] == want
        assert shares[0][1] == threading.get_ident()
        assert all(ident != threading.get_ident() for k, (_, ident) in shares.items() if k)


def test_deal_uses_no_more_workers_than_items(cpus):
    cpus(8)
    parts = []
    deal(parts.append, ["a", "b", "c"])
    assert sorted(parts) == [["a"], ["b"], ["c"]]
    deal(parts.append, [])
    assert len(parts) == 3


def test_workers_run_in_a_copy_of_the_callers_context(cpus):
    cpus(2)
    var, seen = contextvars.ContextVar("var"), []
    var.set("caller")
    deal(lambda part: seen.append((threading.get_ident(), var.get(None))), range(2))
    assert len({ident for ident, _ in seen}) == 2
    assert [value for _, value in seen] == ["caller", "caller"]
    # numpy's error state is the caller's in every worker
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        deal(lambda part: np.exp(np.full(1, 1e3 * part[0])), range(2))


def test_deal_raises_the_first_error_in_worker_order(cpus):
    cpus(3)

    def share(part):
        if part[0] > 0:
            raise KeyError(part[0])

    with pytest.raises(KeyError, match="1"):
        deal(share, range(3))


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("model", ["mixed-field-ising", "xxz-disordered"])
def test_diagonalize_keeps_its_bits_on_every_worker_count(model, vectors, cpus):
    # parity blocks (mixed-field-ising) and magnetisation sectors
    # (xxz-disordered) are solved side by side, largest first
    def compute():
        spec = diagonalize(build_model(model, LatticeSpec(9, 2), seed=3), vectors=vectors)
        return [spec.energies, *([spec.eigenvectors] if vectors else [])]

    first, *rest = _each_worker_count(cpus, compute)
    assert all(other == first for other in rest)


@pytest.fixture(scope="module")
def ens9():
    lat = LatticeSpec(9, 2)
    return DiagonalEnsemble(diagonalize(build_model("mixed-field-ising", lat)), random_product_state(lat, 4))


def test_time_bands_keep_their_bits_on_every_worker_count(ens9, cpus):
    # several bands and a short last one, for a real and a complex V^dag A V
    lat = ens9.spectral.lattice
    times = np.random.default_rng(2).uniform(0.0, 1e3, size=5 * TIME_BAND + 17)
    observables = [site_observable(lat, 4), site_observable(lat, 2, "Y"), random_local_observable(lat, (3, 4), 1)]

    def compute():
        rows = evolve_rows(ens9.spectral, ens9.coefficients, times)
        return [rows, *(expectation_trajectory(ens9, obs, times) for obs in observables)]

    first, *rest = _each_worker_count(cpus, compute)
    assert all(other == first for other in rest)


def test_scan_keeps_its_bits_on_every_worker_count(ens9, monkeypatch, cpus):
    from ergolab import ergodicity

    lat = ens9.spectral.lattice
    vectors = ens9.spectral.eigenvectors
    monkeypatch.setattr(ergodicity, "SCAN_BLOCK_BYTES", 37 * vectors[:, 0].nbytes)
    cands = candidate_subsets(lat, SearchPolicy(mode="random-sample", budget=80, seed=1))
    first, *rest = _each_worker_count(cpus, lambda: _scan(vectors, lat, cands))
    assert all(other == first for other in rest)


def test_gap_bands_keep_their_bits_on_every_worker_count(monkeypatch, cpus):
    # 44850 gaps in bands of at most 500, levels on a grid of 0.1 moved by
    # less than 1e-14, so runs of close gaps cross the edges of bands
    monkeypatch.setattr(hamiltonians, "_GAP_BAND", 500)
    rng = np.random.default_rng(5)
    spec = diagonalize(build_model("xxz-disordered", LatticeSpec(4, 2)), vectors=False)
    spec.energies = np.round(rng.uniform(0.0, 3.0, 300), 1) + rng.uniform(0.0, 1e-14, 300)
    threads, running = threading.active_count(), _thread._count()

    def compute():
        return [gap_report(spec, tolerance=tol) for tol in (0.0, 1e-12, None)]

    reports = []
    for workers in WORKERS:
        cpus(workers)
        reports.append(compute())
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][1].degenerate_gap_pairs > reports[0][0].degenerate_gap_pairs > 0
    assert threading.active_count() == threads
    deadline = time.monotonic() + 5.0
    while _thread._count() != running and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _thread._count() == running


def test_a_worker_error_reaches_the_caller_and_no_thread_is_left(ens9, cpus):
    cpus(2)
    threads, running = threading.active_count(), _thread._count()
    times = np.linspace(0.0, 10.0, 4 * TIME_BAND)
    times[TIME_BAND + 5] = np.nan  # in band 1, which worker 1 walks
    with pytest.raises(ValueError, match="norm drifts"):
        evolve_rows(ens9.spectral, ens9.coefficients, times)
    assert threading.active_count() == threads
    # a worker ends right after it signals that its share is done
    deadline = time.monotonic() + 5.0
    while _thread._count() != running and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _thread._count() == running


def test_band_turns_come_round_in_a_fixed_order(monkeypatch, cpus):
    # each band takes its turn three times (before, between and after its
    # two asides); a worker that is done drops out of the round
    monkeypatch.setattr(ensembles, "MEMORY_WORKERS", 3)
    times = np.zeros(4 * TIME_BAND)
    for workers, want in (
        (1, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]),
        (3, [0, 1, 2, 0, 1, 2, 0, 3, 1, 2, 3, 3]),
    ):
        cpus(workers)
        order = []

        def work(band, table, xy, prod, aside):
            order.append(band.start // TIME_BAND)
            for _ in range(2):
                with aside:
                    time.sleep(0.002 * (3 - band.start // TIME_BAND))
                order.append(band.start // TIME_BAND)

        _deal_bands(work, times, 4)
        assert order == want, workers


def _band_peaks(ens, obs):
    # test_ensembles.test_time_band_peak_memory's measurement: the peak of
    # variance_sampled, and the peak growth of a trajectory on 8000 times
    # against 2000
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sampled = peak(lambda: variance_sampled(ens, obs, samples=2000))
    grids = [np.linspace(0.0, 100.0, n) for n in (2000, 8000)]
    small, large = (peak(lambda: expectation_trajectory(ens, obs, t)) for t in grids)
    return sampled, large - small


def test_band_peak_memory_holds_on_every_worker_count(ens9, cpus):
    # at most MEMORY_WORKERS workers walk the bands, so more CPUs add no
    # band buffers, and the turns keep the peak to the output's growth
    obs = site_observable(ens9.spectral.lattice, 4)
    ens9._eigenbasis(obs)
    peaks = {}
    for workers in (2, 3, 4):
        cpus(workers)
        peaks[workers], growth = _band_peaks(ens9, obs)
        assert growth <= (8000 - 2000) * 8, workers
    one_worker_buffers = 6 * TIME_BAND * ens9.spectral.dim * 8
    assert max(peaks.values()) < peaks[2] + one_worker_buffers / 2


def test_scan_peak_memory_holds_on_every_worker_count(cpus):
    # the blocks of more than two workers share two blocks' worth of bytes,
    # so the scan's peak does not grow with the CPU count
    lat = LatticeSpec(10, 2)
    vectors = diagonalize(build_model("mixed-field-ising", lat)).eigenvectors
    cands = candidate_subsets(lat, SearchPolicy(budget=30))
    _scan(vectors, lat, cands)  # fills the caches of the site-index maps
    peaks = {}
    for workers in (2, 3, 4, 8):
        cpus(workers)
        tracemalloc.start()
        try:
            _scan(vectors, lat, cands)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1.1 * peaks[2], peaks
