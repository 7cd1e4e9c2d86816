"""Strictly local chain Hamiltonians: catalog, dense spectra, Gibbs data.

Energies are shifted so the ground energy is exactly zero and are labelled
by density e_i = E_i / num_sites.  Catalog terms are divided by the largest
single-term spectral norm, so the strongest term has norm one; the factor
is kept on the model for unit bookkeeping.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import deal
from .entropy import renyi_entropy
from .operators import _support_index, is_hermitian, operator_norm, pauli
from .states import DensityMatrix, LatticeSpec, ResourceGuardError
from .tolerances import TOL

DENSE_DIM_GUARD = 2**14

MODEL_NAMES = ("mixed-field-ising", "xxz-disordered", "heisenberg-random-field")

# workers that solve the blocks of diagonalize at most, each with one block,
# its eigenvectors and its eigh workspace alive: a parity-split model has
# two blocks, and more workers on a sector model only add blocks, in malloc
# arenas of their own, to its peak, whatever the number of CPUs
BLOCK_WORKERS = 2

_GAP_BAND = 2**16  # neighbour differences per band of the gap scan
_GATHER_ROWS = 64  # rows per band of a gathered parity block


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
    ground_shift: float | None = None
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
        """Dense matrix of the term sum, without ``ground_shift``, scattered
        from ``_entries``: real whenever every term is real."""
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
    """Energies of a chain Hamiltonian, ground energy shifted to zero."""

    lattice: LatticeSpec
    hamiltonian: LocalHamiltonian
    energies: np.ndarray  # ascending, energies[0] == 0

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
    The block is gathered ``_GATHER_ROWS`` rows at a time, so its
    temporaries stay small beside the block itself.
    """
    block = np.empty((p.size, p.size), dtype=m.dtype)
    for a in range(0, p.size, _GATHER_ROWS):
        rows, rp, rq = block[a : a + _GATHER_ROWS], p[a : a + _GATHER_ROWS], q[a : a + _GATHER_ROWS]
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


def _shifted_to_ground(h: LocalHamiltonian, energies: np.ndarray) -> np.ndarray:
    """Ascending energies of H less its ground shift, which the first
    spectrum of H sets to its lowest energy; a stale shift raises."""
    if h.ground_shift is None:
        h.ground_shift = float(energies[0])
    energies = energies - h.ground_shift
    if abs(energies.min()) > TOL.ground_shift:
        raise ValueError(
            f"ground energy {energies.min()!r} not zero after shift; "
            "stored shift is stale"
        )
    return energies


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
    shifted to zero.

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
    BLOCK_WORKERS workers.  A worker scatters (or gathers, for a parity
    block) each of its blocks, solves it and frees it before it forms the
    next, so at most one block per worker is alive; the deal changes no
    block's arithmetic.

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
        return Spectrum(h.lattice, h, _shifted_to_ground(h, np.sort(np.concatenate(parts))))
    deal(solve, order, limit=BLOCK_WORKERS)
    bases = [basis for _, *basis in blocks]
    energies, v = parts[0] if len(parts) == 1 else _placed_vectors(bases, parts)
    return SpectralData(h.lattice, h, _shifted_to_ground(h, energies), v)


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


def _gap_scan(sorted_vals: np.ndarray, tol: float) -> tuple[float, int]:
    """Smallest difference of neighbours in `sorted_vals` (inf for fewer
    than two values) and the number of index pairs within tol of each
    other, in one pass over bands of ``_GAP_BAND`` neighbour differences.

    A run of L consecutive close neighbours holds L(L+1)/2 such pairs.  The
    runs are read from the indices of the close neighbours alone, which
    break wherever two successive indices are not adjacent.
    """
    n = sorted_vals.size - 1
    diff = np.empty(min(max(n, 0), _GAP_BAND))
    low, hits = np.inf, [np.empty(0, dtype=np.intp)]
    for start in range(0, n, _GAP_BAND):
        stop = min(start + _GAP_BAND, n)
        d = diff[: stop - start]
        np.subtract(sorted_vals[start + 1 : stop + 1], sorted_vals[start:stop], out=d)
        low = min(low, float(d.min()))
        hits.append(np.flatnonzero(d <= tol) + start)
    hits = np.concatenate(hits)
    breaks = np.flatnonzero(np.diff(hits) != 1) + 1
    runs = np.diff(np.concatenate(([0], breaks, [hits.size])))
    return low, int(np.sum(runs * (runs + 1) // 2))


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
    The dim(dim-1)/2 gaps are sorted in place once and their neighbour
    differences walked once in bands (``_gap_scan``), so the peak is about
    dim^2/2 doubles.  The default tolerance scales with the Hamiltonian
    norm; absolute spacings shrink quickly with system size, so
    certification at large N needs an explicit, tighter tolerance.
    """
    energies = np.sort(s.energies)
    dim = energies.size
    tol = 1e-10 * max(s.norm, 1.0) if tolerance is None else gap_tolerance(tolerance)
    # level degeneracies first
    degen_levels = sum(b - a for a, b in degenerate_groups(energies, tol) if b - a > 1)
    gaps = np.empty(dim * (dim - 1) // 2)
    start = 0
    for i in range(dim - 1):
        stop = start + dim - 1 - i
        np.subtract(energies[i + 1 :], energies[i], out=gaps[start:stop])
        start = stop
    gaps.sort()
    min_diff, pairs = _gap_scan(gaps, tol)
    return GapReport(
        tolerance=tol,
        min_gap_difference=min_diff,
        degenerate_gap_pairs=pairs,
        degenerate_levels=degen_levels,
        gaps_scanned=int(gaps.size),
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
