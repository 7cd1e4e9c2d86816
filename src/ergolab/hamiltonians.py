"""Strictly local chain Hamiltonians: catalog, dense spectra, Gibbs data.

Each spectrum's energies are shifted so its own ground energy is exactly
zero, the shift kept on the spectrum, and are labelled by density
e_i = E_i / num_sites.  Catalog terms are divided by the largest
single-term spectral norm, so the strongest term has norm one; the factor
is kept on the model for unit bookkeeping.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import BAND_ROWS, MEMORY_WORKERS, deal, worker_count
from .entropy import renyi_entropy
from .operators import _support_index, is_hermitian, operator_norm, pauli
from .states import DensityMatrix, LatticeSpec, ResourceGuardError

DENSE_DIM_GUARD = 2**14

MODEL_NAMES = ("mixed-field-ising", "xxz-disordered", "heisenberg-random-field")

_GAP_BAND = 2**16  # gaps per band of gap_report, filled, sorted and walked at once


@dataclass
class LocalTerm:
    sites: tuple[int, ...]
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.sites = tuple(int(s) for s in self.sites)
        self.matrix = np.asarray(self.matrix)
        if not is_hermitian(self.matrix, 1e-10):
            raise ValueError(f"term {self.label!r} is not hermitian")

    @property
    def diameter(self) -> int:
        return max(self.sites) - min(self.sites) + 1

    @property
    def norm(self) -> float:
        return operator_norm(self.matrix)


@dataclass
class LocalHamiltonian:
    lattice: LatticeSpec
    terms: list[LocalTerm]
    locality: int = 2
    norm_rescale: float = 1.0
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        d, n = self.lattice.local_dim, self.lattice.num_sites
        for t in self.terms:
            s = t.sites
            if not s or min(s) < 0 or max(s) >= n or len(set(s)) != len(s):
                raise ValueError(f"term {t.label!r} sites {s} are not distinct lattice sites")
            if self._term_diameter(t) > self.locality:
                raise ValueError(f"term {t.label!r} exceeds declared locality")
            if t.matrix.shape != (d ** len(t.sites),) * 2:
                raise ValueError(f"term {t.label!r} shape mismatch")

    def _term_diameter(self, t: LocalTerm) -> int:
        # on a ring the wrap bond spans 2 sites, not the whole chain
        if self.lattice.geometry != "chain-periodic":
            return t.diameter
        s = sorted(set(t.sites))
        n = self.lattice.num_sites
        gaps = [b - a for a, b in zip(s, s[1:])] + [s[0] + n - s[-1]]
        return n - max(gaps) + 1

    def assemble(self) -> np.ndarray:
        """Dense matrix of the unshifted term sum, scattered from
        ``_entries``: real whenever every term is real."""
        dense_guard(self.lattice.dim)
        i, j, values = _entries(self)
        h = np.zeros((self.lattice.dim, self.lattice.dim), dtype=values.dtype)
        h[i, j] = values
        return h

    def boundary_terms(self, region_sites: tuple[int, ...]) -> list[LocalTerm]:
        """Terms whose support straddles the region boundary."""
        inside = set(region_sites)
        out = []
        for t in self.terms:
            hit = set(t.sites) & inside
            if hit and set(t.sites) - inside:
                out.append(t)
        return out


def dense_guard(dim: int) -> None:
    """Refuse a dense dim x dim matrix above ``DENSE_DIM_GUARD``; called
    before anything of that size is built."""
    if dim > DENSE_DIM_GUARD:
        raise ResourceGuardError(f"dimension {dim} exceeds dense guard {DENSE_DIM_GUARD}")


def _entries(h: LocalHamiltonian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries of the term sum, in
    row-major order.

    Each entry is summed from zero over the terms that touch it, in term
    order, so it has the bits of a dense ``+=`` of the terms; an entry that
    sums to exactly zero is dropped, so the pattern is that of the dense
    matrix's nonzeros.  The values are real whenever every term is real
    (imaginary parts below 1e-15 are dropped).
    """
    dim = h.lattice.dim
    real = all(np.abs(t.matrix.imag).max() < 1e-15 for t in h.terms if np.iscomplexobj(t.matrix))
    keys, values = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for t in h.terms:
        block = t.matrix.real if real and np.iscomplexobj(t.matrix) else t.matrix
        rows, cols = _support_index(t.sites, h.lattice)
        a, b = np.nonzero(block)
        keys.append((rows[a, 0] * dim + cols[0, b]).ravel())
        values.append(np.repeat(block[a, b], rows.shape[-1]))
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")  # equal keys keep their term order
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    # np.add.at adds in index order, one term after another; a pairwise
    # reduction would round the many-term diagonal differently
    total = np.zeros(np.count_nonzero(first), dtype=float if real else complex)
    np.add.at(total, np.cumsum(first) - 1, np.concatenate(values)[order])
    keep = total != 0
    i, j = np.divmod(key[first][keep], dim)
    return i, j, total[keep]


def _bonds(lattice: LatticeSpec) -> list[tuple[int, int]]:
    n = lattice.num_sites
    pairs = [(i, i + 1) for i in range(n - 1)]
    if lattice.geometry == "chain-periodic":
        pairs.append((n - 1, 0))
    return pairs


def build_model(
    name: str,
    lattice: LatticeSpec,
    params: dict | None = None,
    seed: int = 0,
) -> LocalHamiltonian:
    """Construct a catalog model on the given chain.

    Catalog (all strictly local with range 2, local dimension 2):

    - ``mixed-field-ising``: J ZZ couplings with uniform transverse and
      longitudinal fields; defaults J=1, hx=0.9045, hz=0.8090.
    - ``xxz-disordered``: XX+YY+delta ZZ couplings with site-random Z
      fields drawn uniformly from [-W, W]; defaults delta=0.5, W=1.0.
    - ``heisenberg-random-field``: ``xxz-disordered`` with delta fixed to
      1, the isotropic couplings; default W=1.0.

    Randomness is fully determined by the seed.  Models whose spectra
    carry degeneracies or near-coincident gaps are not excluded here;
    they are surfaced by ``gap_report`` downstream.
    """
    if lattice.local_dim != 2:
        raise ValueError("catalog models are spin-1/2 chains")
    params = dict(params or {})
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    terms: list[LocalTerm] = []
    if name == "mixed-field-ising":
        j = float(params.setdefault("J", 1.0))
        hx = float(params.setdefault("hx", 0.9045))
        hz = float(params.setdefault("hz", 0.8090))
        for i, k in _bonds(lattice):
            terms.append(LocalTerm((i, k), j * np.kron(z, z), f"zz[{i},{k}]"))
        for i in range(lattice.num_sites):
            terms.append(LocalTerm((i,), hx * x + hz * z, f"field[{i}]"))
    elif name in ("xxz-disordered", "heisenberg-random-field"):
        if name == "heisenberg-random-field":  # the isotropic point of the xxz chain
            params["delta"] = 1.0
        delta = float(params.setdefault("delta", 0.5))
        w = float(params.setdefault("W", 1.0))
        rng = np.random.default_rng(seed)
        fields = rng.uniform(-w, w, size=lattice.num_sites)
        params["fields"] = [float(v) for v in fields]
        bond = np.kron(x, x) + np.kron(y, y) + delta * np.kron(z, z)
        for i, k in _bonds(lattice):
            terms.append(LocalTerm((i, k), bond.real, f"xxz[{i},{k}]"))
        for i in range(lattice.num_sites):
            terms.append(LocalTerm((i,), fields[i] * z, f"wz[{i}]"))
    else:
        raise ValueError(f"unknown model {name!r}; catalog: {MODEL_NAMES}")
    rescale = max(t.norm for t in terms)
    if rescale == 0.0:
        raise ValueError("all terms vanish")
    for t in terms:
        t.matrix = t.matrix / rescale
    return LocalHamiltonian(
        lattice=lattice,
        terms=terms,
        locality=2,
        norm_rescale=rescale,
        name=name,
        params=params,
    )


@dataclass
class Spectrum:
    """Energies of a chain Hamiltonian, ground energy shifted to zero: the
    eigenvalues of H are ``energies + ground_shift``."""

    hamiltonian: LocalHamiltonian
    energies: np.ndarray  # ascending, energies[0] == 0
    ground_shift: float  # the lowest eigenvalue of H

    @property
    def lattice(self) -> LatticeSpec:
        return self.hamiltonian.lattice

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def densities(self) -> np.ndarray:
        return self.energies / self.lattice.num_sites

    @property
    def e_max(self) -> float:
        return float(self.energies[-1]) / self.lattice.num_sites

    @property
    def norm(self) -> float:
        """Spectral norm of the shifted Hamiltonian, in any energy order."""
        return float(self.energies.max())


@dataclass
class SpectralData(Spectrum):
    """Full spectrum of a chain Hamiltonian: its energies and eigenvectors."""

    eigenvectors: np.ndarray  # columns, phase-fixed

    def coefficients(self, amplitudes: np.ndarray) -> np.ndarray:
        """V^dag a of an amplitude vector a, or of each row of a stack (..., dim)."""
        v = self.eigenvectors
        out = np.empty((*amplitudes.shape[:-1], v.shape[1]), dtype=np.result_type(v, amplitudes))
        return _matmul(amplitudes, v.conj(), out)


def _matmul(z: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z @ m written into `out`.  A complex z against a real m takes one real
    product of Re z and Im z stacked, where numpy would cast m to a complex
    copy and spend four real multiplications per term."""
    if np.iscomplexobj(m) or not np.iscomplexobj(z):
        return np.matmul(z, m, out=out)
    parts = (np.stack((z.real, z.imag)).reshape(-1, m.shape[0]) @ m).reshape(2, *out.shape)
    out.real = parts[0]
    out.imag = parts[1]
    return out


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """First component above 1e-8 in magnitude is made positive real, in
    place on `vectors`, which is returned."""
    v = vectors
    lead = np.argmax(np.abs(v) > 1e-8, axis=0)
    pivot = v[lead, np.arange(v.shape[1])]
    phase = np.where(np.abs(pivot) > 0, pivot / np.abs(pivot), 1.0)
    if np.iscomplexobj(v):
        v /= phase
    else:
        v *= np.sign(phase).real
    return v


def _sectors(i: np.ndarray, j: np.ndarray, size: int) -> list[np.ndarray]:
    """Indices of each decoupled sector of a pattern of `size` indices
    given by its nonzero index pairs (i, j), ascending within a sector,
    the sectors in order of their lowest index.

    The sectors are the connected components of the pattern read as an
    undirected graph, so every entry between two sectors is exactly zero.
    """
    # every index takes the lowest label among its neighbours, then the
    # label of that label, until nothing changes; a label never exceeds its
    # index, so each sector ends up labelled by its lowest index
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, i, label[j])
        np.minimum.at(low, j, label[i])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _sector_scatter(entries: tuple, sectors: list[np.ndarray]) -> Callable[[int], np.ndarray]:
    """A function of k that returns sector k's s x s block of H, scattered
    from the `entries` of ``_entries`` on the sector's own indices 0..s-1,
    a new matrix on each call."""
    i, j, values = entries
    owner, local = np.empty((2, sum(idx.size for idx in sectors)), dtype=np.intp)
    for k, idx in enumerate(sectors):
        owner[idx] = k
        local[idx] = np.arange(idx.size)
    order = np.argsort(owner[i], kind="stable")
    picks = np.split(order, np.searchsorted(owner[i][order], np.arange(1, len(sectors))))

    def scatter(k: int) -> np.ndarray:
        at, size = picks[k], sectors[k].size
        block = np.zeros((size, size), dtype=values.dtype)
        block[local[i[at]], local[j[at]]] = values[at]
        return block

    return scatter


def _reflection(h: LocalHamiltonian) -> np.ndarray | None:
    """Basis permutation of the site reflection R: i -> N-1-i, or None
    unless the term list is mirror-symmetric.

    Mirror-symmetric means that every term on sites S has a partner of its
    own on R(S) whose matrix equals the term's with its tensor factors in
    reverse order (for a two-site term, the two factors swapped), exactly.
    """
    n, d = h.lattice.num_sites, h.lattice.local_dim
    by_sites: dict[tuple[int, ...], list[np.ndarray]] = {}
    for t in h.terms:
        by_sites.setdefault(tuple(sorted(t.sites)), []).append(t.matrix)
    for sites, matrices in by_sites.items():
        partners = list(by_sites.get(tuple(sorted(n - 1 - s for s in sites)), ()))
        m = len(sites)
        flip = [*range(m - 1, -1, -1), *range(2 * m - 1, m - 1, -1)]
        for a in matrices:
            mirrored = a.reshape((d,) * (2 * m)).transpose(flip).reshape(a.shape)
            hit = next((k for k, b in enumerate(partners) if np.array_equal(b, mirrored)), None)
            if hit is None:
                return None
            del partners[hit]
    return np.arange(d**n).reshape((d,) * n).transpose().ravel()


def _sector_bases(
    sectors: list[np.ndarray], mirror: np.ndarray | None
) -> list[tuple[np.ndarray, np.ndarray | None, float]]:
    """The bases ``diagonalize`` solves the blocks of H on, as (p, q, sign).

    A sector that the reflection `mirror` maps onto itself, moving some of
    its states, splits into its even and odd parity blocks.  Their basis
    vectors are e_p + sign e_q over the representatives p <= q = R(p),
    ascending, normalised; a palindrome (p == q) is even only.  Any other
    sector is one basis (indices, None, 1.0) of its own states.
    """
    bases = []
    for idx in sectors:
        image = None if mirror is None else mirror[idx]
        if image is None or np.array_equal(image, idx) or not np.array_equal(np.sort(image), idx):
            bases.append((idx, None, 1.0))
            continue
        even, odd = idx[idx <= image], idx[idx < image]
        bases += [(even, mirror[even], 1.0), (odd, mirror[odd], -1.0)]
    return bases


def _parity_block(m: np.ndarray, p: np.ndarray, q: np.ndarray, sign: float) -> np.ndarray:
    """<b_k|H|b_l> over the parity basis b_k = c_k (e_p + sign e_q), gathered
    from the sector's matrix `m` as c_k c_l (H_pp + H_qq + sign (H_pq + H_qp)),
    with p and q the sector's own indices of the basis states.

    That sum equals the block of (H + RHR)/2, so the rounding that breaks
    the reflection in H couples no two parities.  A pair has
    c_k = 1/sqrt(2).  A palindrome (p == q) is e_p itself, but its four
    gathered entries are one entry counted four times, so it takes 1/2.
    The block is gathered BAND_ROWS rows at a time, so its
    temporaries stay small beside the block itself.
    """
    block = np.empty((p.size, p.size), dtype=m.dtype)
    for a in range(0, p.size, BAND_ROWS):
        rows, rp, rq = block[a : a + BAND_ROWS], p[a : a + BAND_ROWS], q[a : a + BAND_ROWS]
        rows[...] = m[np.ix_(rp, p)]
        rows += m[np.ix_(rq, q)]
        cross = m[np.ix_(rp, q)]
        cross += m[np.ix_(rq, p)]
        if sign > 0:
            rows += cross
        else:
            rows -= cross
        del cross
    block *= 0.5
    fixed = np.flatnonzero(p == q)
    block[fixed] *= np.sqrt(0.5)
    block[:, fixed] *= np.sqrt(0.5)
    return block


def _basis_eigh(block: np.ndarray, p: np.ndarray, q: np.ndarray | None) -> tuple:
    """``eigh`` of the block of basis (p, q), its vectors scaled to unit norm
    over the basis states and phase-fixed in place."""
    e, v = np.linalg.eigh(block)
    if q is not None:
        v *= np.where(p == q, 1.0, np.sqrt(0.5))[:, None]
    # p ascending and p <= q: the lead row of v is the lead of the whole vector
    return e, _fix_phases(v)


def _placed_vectors(bases: list, parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Ascending energies and eigenvectors of H from the ``_basis_eigh`` of
    each of its bases' blocks, two or more.

    Each basis's vectors are kept until the energies of every basis give
    the columns they go to, and are then put on its basis states.
    """
    energies = np.concatenate([e for e, _ in parts])
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vectors = np.zeros((order.size, order.size), dtype=np.result_type(*(v for _, v in parts)))
    start = 0
    for k, (p, q, sign) in enumerate(bases):
        e, v = parts[k]
        parts[k] = None  # each basis's vectors are freed once placed
        cols = column[start : start + e.size]
        vectors[np.ix_(p, cols)] = v
        if q is not None:
            vectors[np.ix_(q, cols)] = v if sign > 0 else np.negative(v, out=v)
        start += e.size
        del v
    return energies[order], vectors


def diagonalize(h: LocalHamiltonian, vectors: bool = True) -> Spectrum:
    """Dense eigendecomposition, a ``SpectralData`` with the ground energy
    shifted to zero: its ``ground_shift`` is the lowest eigenvalue that this
    call found, and `h` is left as it was.

    H is split into its decoupled sectors (see ``_sectors``), read from
    the pattern of its nonzero entries (``_entries``).  With two or more
    sectors, each sector's block is scattered from the entries into an
    s x s matrix of its own (``_sector_scatter``), so no dim x dim H is
    built; a one-sector model takes its one block, the whole H, from
    ``assemble``.  When the term list is mirror-symmetric (see
    ``_reflection``), each sector that the reflection maps onto itself is
    split further into its even and odd parity blocks (see
    ``_sector_bases``), so every eigenvector is a parity eigenvector.
    Each basis's block goes to ``eigh`` and its eigenvectors are placed on
    its basis states; a model with one sector and no reflection is one
    basis, and its ``eigh`` is the result.

    The blocks are dealt by ``ergolab.deal``, largest first, to at most
    MEMORY_WORKERS workers: a parity-split model has two blocks, and more
    workers on a sector model would only add blocks, in malloc arenas of
    their own, to its peak.  A worker scatters (or gathers, for a parity
    block) each of its blocks, solves it and frees it before it forms the
    next, so at most one block, its eigenvectors and its ``eigh`` workspace
    are alive per worker; the deal changes no block's arithmetic.

    With ``vectors=False`` each block goes to ``eigvalsh`` instead, one
    after the other in the calling thread, and a ``Spectrum`` of the
    sorted energies alone is returned, so no dim x dim matrix is formed
    for a model with two or more sectors.  Its energies agree with those
    of the eigenvector route to rounding (LAPACK finds eigenvalues alone
    by another algorithm).
    """
    dim = h.lattice.dim
    dense_guard(dim)
    entries = _entries(h)
    sectors = _sectors(entries[0], entries[1], dim)
    if len(sectors) == 1:
        del entries  # freed before the dense H is assembled
        # the closure keeps H alive until the dim x dim output is allocated:
        # allocated after H is freed, the output comes from the heap instead
        # of a mapping of its own, since glibc raises its mmap threshold on a
        # large free; that raises the peak RSS of a 10-site `theorem1` by 5 MB
        whole = h.assemble()
        matrix = lambda k: whole  # noqa: E731
    else:
        matrix = _sector_scatter(entries, sectors)
        del entries  # held by the scatter until diagonalize returns
    mirror = _reflection(h)
    blocks = [(k, *basis) for k, idx in enumerate(sectors) for basis in _sector_bases([idx], mirror)]
    parts = [None] * len(blocks)

    def solve(picks) -> None:
        for b in picks:
            k, p, q, sign = blocks[b]
            block = matrix(k)
            if q is not None:
                block = _parity_block(block, *np.searchsorted(sectors[k], (p, q)), sign)
            parts[b] = _basis_eigh(block, p, q) if vectors else np.linalg.eigvalsh(block)
            del block  # freed once solved, before the worker forms its next

    order = sorted(range(len(blocks)), key=lambda b: -blocks[b][1].size)
    if not vectors:
        # dealt, the workers' malloc arenas kept the blocks they freed:
        # +3% to +8% peak RSS on `dense`, for 5 ms of its 11-site spectrum
        solve(order)
        energies = np.sort(np.concatenate(parts))
        return Spectrum(h, energies - energies[0], float(energies[0]))
    deal(solve, order, limit=MEMORY_WORKERS)
    bases = [basis for _, *basis in blocks]
    energies, v = parts[0] if len(parts) == 1 else _placed_vectors(bases, parts)
    return SpectralData(h, energies - energies[0], float(energies[0]), v)


def trace_energy_density(h: LocalHamiltonian) -> float:
    """tr(H)/(N d^N) of the unshifted term sum, computed term-wise."""
    d, n = h.lattice.local_dim, h.lattice.num_sites
    total = 0.0
    for t in h.terms:
        total += float(np.trace(t.matrix).real) * d ** (n - len(t.sites))
    return total / (n * d**n)


@dataclass(frozen=True)
class GapReport:
    tolerance: float
    min_gap_difference: float
    degenerate_gap_pairs: int
    degenerate_levels: int
    gaps_scanned: int


class _BandScan(NamedTuple):
    """One sorted band of gaps: its size, first and last gap, smallest
    neighbour difference (inf for one gap), the index pairs within the
    tolerance counted inside the band alone, and its leading and trailing
    runs of close neighbour differences."""

    size: int
    first: float
    last: float
    low: float
    pairs: int
    head: int
    tail: int


def _band_scan(vals: np.ndarray, tol: float, diff: np.ndarray) -> _BandScan:
    """The ``_BandScan`` of the sorted, non-empty `vals`; their neighbour
    differences are written into `diff`.

    A run of L consecutive close neighbours holds L(L+1)/2 index pairs
    within tol.  The runs are read from the indices of the close
    neighbours alone, which break wherever two successive indices are not
    adjacent.
    """
    n = vals.size
    d = diff[: n - 1]
    np.subtract(vals[1:], vals[:-1], out=d)
    low = float(d.min()) if n > 1 else np.inf
    if low > tol:  # no close neighbours
        return _BandScan(n, float(vals[0]), float(vals[-1]), low, 0, 0, 0)
    hits = np.flatnonzero(d <= tol)
    breaks = np.flatnonzero(np.diff(hits) != 1) + 1
    runs = np.diff(np.concatenate(([0], breaks, [hits.size])))
    head = int(runs[0]) if hits.size and hits[0] == 0 else 0
    tail = int(runs[-1]) if hits.size and hits[-1] == n - 2 else 0
    return _BandScan(n, float(vals[0]), float(vals[-1]), low, int(np.sum(runs * (runs + 1) // 2)), head, tail)


def _joined_scan(bands: list[_BandScan], tol: float) -> tuple[float, int]:
    """Smallest neighbour difference and index pairs within tol of the
    bands laid end to end in order, as if they were one sorted array: each
    border adds the difference of its two sides, and a run of close
    neighbours that reaches a border goes on into the next band."""
    low, pairs, run, last = np.inf, 0, 0, None
    for b in bands:
        if last is not None:
            border = b.first - last
            low = min(low, border)
            run = run + 1 if border <= tol else 0
            pairs += run
        # the band's leading run goes on from the open one
        low, pairs = min(low, b.low), pairs + b.pairs + b.head * run
        run = run + b.size - 1 if b.head == b.size - 1 else b.tail
        last = b.last
    return low, pairs


def _row_ends(energies: np.ndarray, t: float) -> np.ndarray:
    """For each row i of the sorted energies, the first j > i whose gap
    fl(E_j - E_i) is at least t, or dim.

    The gaps of a row are monotone in j, so the gaps below t are one
    leading range.  ``searchsorted`` finds its end from E_i + t; the end
    is then moved, one energy value at a time, until the computed gaps
    agree, so that every gap falls on the side of t that its own value
    puts it.
    """
    dim = energies.size
    first = np.arange(1, dim + 1)
    padded = np.append(energies, np.inf)  # the gap at j = dim is never below t
    j = np.maximum(np.searchsorted(energies, energies + t), first)
    while True:
        up = padded[j] - energies < t
        down = (j > first) & (padded[j - 1] - energies >= t)
        if not (up.any() or down.any()):
            return j
        # past every level of the energy whose gap is below t, or back to the
        # first level of the energy whose gap is not
        j[up] = np.searchsorted(energies, padded[j[up]], side="right")
        j[down] = np.maximum(np.searchsorted(energies, energies[j[down] - 1]), first[down])


def _gap_edges(energies: np.ndarray) -> list[float]:
    """Cuts of gap value, -inf first and inf last, between which the gaps of
    the sorted energies fall about 3/4 of ``_GAP_BAND`` to a band: the
    quantiles of the gaps among about sqrt(_GAP_BAND/2) evenly spread
    levels.  A spectrum of at most _GAP_BAND gaps is one band."""
    dim = energies.size
    total = dim * (dim - 1) // 2
    if total <= _GAP_BAND:
        return [-np.inf, np.inf]
    thinned = energies[:: -(-dim // max(2, math.isqrt(_GAP_BAND // 2)))]
    # the gaps of the thinned levels: the top half of their differences
    sample = np.sort(np.subtract.outer(thinned, thinned), axis=None)[thinned.size * (thinned.size + 1) // 2 :]
    parts = min(-(-4 * total // (3 * _GAP_BAND)), sample.size)
    return [-np.inf, *dict.fromkeys(sample[np.arange(1, parts) * sample.size // parts].tolist()), np.inf]


def _band_scans(energies, start, stop, tol, ramp, index, vals) -> list[_BandScan]:
    """The ``_BandScan`` of each band, in order, of the gaps whose row i
    runs over the columns start[i]:stop[i], a range of gap value.

    A band of at most ``_GAP_BAND`` gaps is filled, sorted and walked in
    the first entries of the buffers `index` (np.intp) and `vals`
    (doubles), and the neighbour differences go into `index`'s memory;
    `ramp` holds 0, 1, 2, ...  The column of each gap is its place in the
    band shifted by its row's, and the gap is fl(E_j - E_i), as when the
    gaps were formed whole.  More gaps are halved in value between the
    smallest and the largest, until they fit or are of one value v, whose
    band is not filled: its sorted gaps are v, ..., v.
    """
    lengths = stop - start
    count = int(lengths.sum())
    if not count:
        return []
    rows = np.flatnonzero(lengths)
    if count <= _GAP_BAND:
        lengths = lengths[rows]
        index, vals = index[:count], vals[:count]
        np.add(np.repeat(start[rows] - (np.cumsum(lengths) - lengths), lengths), ramp[:count], out=index)
        np.take(energies, index, out=vals, mode="clip")  # the clip mode takes no copy of `out`
        np.subtract(vals, np.repeat(energies[rows], lengths), out=vals)
        vals.sort()
        return [_band_scan(vals, tol, index.view(np.float64))]
    least = float(np.min(energies[start[rows]] - energies[rows]))
    most = float(np.max(energies[stop[rows] - 1] - energies[rows]))
    if least == most:
        return [_BandScan(count, least, least, 0.0, count * (count - 1) // 2, count - 1, count - 1)]
    # least < t <= most, so both halves hold a gap
    t = min(max(least + (most - least) / 2, float(np.nextafter(least, np.inf))), most)
    middle = _row_ends(energies, t)
    below = _band_scans(energies, start, middle, tol, ramp, index, vals)
    return below + _band_scans(energies, middle, stop, tol, ramp, index, vals)


def gap_tolerance(tolerance: float | None) -> float | None:
    """A coincidence tolerance gap_report accepts: None (scaled to the
    norm) or a non-negative number."""
    if tolerance is not None and not tolerance >= 0:
        raise ValueError(f"gap tolerance must be non-negative, got {tolerance!r}")
    return tolerance


def gap_report(s: Spectrum, tolerance: float | None = None) -> GapReport:
    """Scan the positive energy gaps E_j - E_i (unordered pairs, i < j of
    the sorted energies) for coincidences, exactly.

    Only the energies are read, so the ``Spectrum`` of
    ``diagonalize(h, vectors=False)`` serves as well as a ``SpectralData``.
    The dim(dim-1)/2 gaps are never formed at once.  They are cut into
    bands of gap value, of at most ``_GAP_BAND`` gaps or of one value
    (``_gap_edges``, ``_band_scans``), and each band is filled, sorted and
    walked on its own.  The bands are dealt by ``ergolab.deal`` to at most
    MEMORY_WORKERS workers, each walking neighbouring bands in buffers of
    one band that the calling thread makes before the deal; a spectrum of
    one band is walked in the calling thread.  The bands are then joined
    in order (``_joined_scan``), so the report is that of the whole sorted
    gap array, bit for bit, whatever the worker count.  The peak is a few
    band-sized arrays per worker and a few arrays of dim, not dim^2/2
    doubles.  The default tolerance scales with the Hamiltonian norm;
    absolute spacings shrink quickly with system size, so certification
    at large N needs an explicit, tighter tolerance.
    """
    energies = np.sort(s.energies)
    dim = energies.size
    tol = 1e-10 * max(s.norm, 1.0) if tolerance is None else gap_tolerance(tolerance)
    # level degeneracies first
    degen_levels = sum(b - a for a, b in degenerate_groups(energies, tol) if b - a > 1)
    edges = _gap_edges(energies)
    bands = len(edges) - 1
    scans = [None] * bands
    workers = min(worker_count(), bands, MEMORY_WORKERS)
    size = min(_GAP_BAND, dim * (dim - 1) // 2)
    ramp = np.arange(size)

    def walk(mine: list) -> None:
        # a worker's bands are neighbours, so each band starts where the last stopped
        ((k, index, vals),) = mine
        own = range(k * bands // workers, (k + 1) * bands // workers)
        start = _row_ends(energies, edges[own.start])
        for b in own:
            stop = _row_ends(energies, edges[b + 1])
            scans[b] = _band_scans(energies, start, stop, tol, ramp, index, vals)
            start = stop

    deal(walk, [(k, np.empty(size, dtype=np.intp), np.empty(size)) for k in range(workers)])
    min_diff, pairs = _joined_scan([scan for band in scans for scan in band], tol)
    return GapReport(
        tolerance=tol,
        min_gap_difference=min_diff,
        degenerate_gap_pairs=pairs,
        degenerate_levels=degen_levels,
        gaps_scanned=dim * (dim - 1) // 2,
    )


def degenerate_groups(energies: np.ndarray, tolerance: float) -> list[tuple[int, int]]:
    """Maximal runs [start, stop) of energies equal within the tolerance."""
    cuts = [0, *(np.flatnonzero(np.diff(energies) > tolerance) + 1).tolist(), energies.size]
    return list(zip(cuts[:-1], cuts[1:]))


def inverse_temperature(beta: float) -> float:
    """A beta the Gibbs routines accept: zero or positive, and finite."""
    if not 0 <= beta < np.inf:
        raise ValueError(f"inverse temperature must be finite and non-negative, got {beta!r}")
    return beta


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))), shifted by the largest entry.

    The m entries at the maximum are counted rather than exponentiated and
    the rest are summed as exp(x - max), so the result is
    log1p(rest / m) + log(m) + max, the form of scipy.special.logsumexp.
    """
    top = x.max()
    at_top = x == top
    m = float(np.count_nonzero(at_top))
    rest = np.sum(np.where(at_top, 0.0, np.exp(x - top)))
    return float(np.log1p(rest / m) + np.log(m) + top)


def gibbs_populations(s: SpectralData, beta: float) -> np.ndarray:
    beta = inverse_temperature(beta)
    logw = -beta * s.energies
    return np.exp(logw - _logsumexp(logw))


def gibbs_state(s: SpectralData, beta: float) -> DensityMatrix:
    p = gibbs_populations(s, beta)
    v = s.eigenvectors
    return DensityMatrix(s.lattice, (v * p) @ v.conj().T)


def log_partition(s: SpectralData, beta: float) -> float:
    return _logsumexp(-beta * s.energies)


def free_energy(s: SpectralData, beta: float) -> float:
    """F(beta) = -log Z / beta for the shifted spectrum (ground energy 0)."""
    if beta <= 0:
        raise ValueError("free energy needs beta > 0; beta = 0 is maximally mixed")
    return -log_partition(s, beta) / beta


@dataclass(frozen=True)
class GibbsIdentityReport:
    beta: float
    log_z: float
    free_energy: float | None
    ground_population: float
    population_identity_error: float
    min_entropy_identity_error: float
    tolerance: float
    passed: bool


def check_gibbs_identities(
    s: SpectralData, beta: float, tolerance: float = 1e-10
) -> GibbsIdentityReport:
    """Ground-state population and min-entropy identities of a Gibbs state.

    With the ground energy at zero: the largest population equals
    exp(beta F) and the min-entropy of the Gibbs state equals -beta F.
    At beta = 0 the state is maximally mixed and the identity is checked
    as log Z = log dim.
    """
    rho = gibbs_state(s, beta)
    p = gibbs_populations(s, beta)
    s_inf = renyi_entropy(rho, np.inf)
    logz = log_partition(s, beta)
    ground_p = float(p[int(np.argmin(s.energies))])
    if beta == 0:
        err_p = abs(ground_p - 1.0 / s.dim)
        err_s = abs(s_inf - np.log(s.dim)) + abs(logz - np.log(s.dim))
        f = None
    else:
        f = free_energy(s, beta)
        err_p = abs(ground_p - np.exp(beta * f))
        err_s = abs(s_inf - (-beta * f))
    return GibbsIdentityReport(
        beta=beta,
        log_z=logz,
        free_energy=f,
        ground_population=ground_p,
        population_identity_error=err_p,
        min_entropy_identity_error=err_s,
        tolerance=tolerance,
        passed=bool(err_p <= tolerance and err_s <= tolerance),
    )
