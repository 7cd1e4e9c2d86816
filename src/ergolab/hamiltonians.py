"""Strictly local chain Hamiltonians: catalog, dense spectra, Gibbs data.

Energies are shifted so the ground energy is exactly zero and are labelled
by density e_i = E_i / num_sites.  Catalog terms are divided by the largest
single-term spectral norm, so the strongest term has norm one; the factor
is kept on the model for unit bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .entropy import renyi_entropy
from .operators import _support_index, is_hermitian, operator_norm, pauli
from .states import DensityMatrix, LatticeSpec, ResourceGuardError
from .tolerances import TOL

DENSE_DIM_GUARD = 2**14

MODEL_NAMES = ("mixed-field-ising", "xxz-disordered", "heisenberg-random-field")


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

    def assemble(self, shifted: bool = True) -> np.ndarray:
        """Dense matrix of the term sum, real whenever every term is real."""
        if self.lattice.dim > DENSE_DIM_GUARD:
            raise ResourceGuardError(
                f"dimension {self.lattice.dim} exceeds dense guard {DENSE_DIM_GUARD}"
            )
        real = all(np.abs(t.matrix.imag).max() < 1e-15 for t in self.terms if np.iscomplexobj(t.matrix))
        dtype = float if real else complex
        h = np.zeros((self.lattice.dim, self.lattice.dim), dtype=dtype)
        for t in self.terms:
            block = t.matrix.real if real and np.iscomplexobj(t.matrix) else t.matrix
            rows, cols = _support_index(t.sites, self.lattice)
            h[rows, cols] += block[:, :, None]
        if shifted:
            if self.ground_shift is None:
                raise ValueError("ground shift unknown; diagonalize first")
            h[np.diag_indices_from(h)] -= self.ground_shift
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
    - ``heisenberg-random-field``: isotropic couplings with site-random Z
      fields; default W=1.0.

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
    elif name == "xxz-disordered":
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
    elif name == "heisenberg-random-field":
        w = float(params.setdefault("W", 1.0))
        rng = np.random.default_rng(seed)
        fields = rng.uniform(-w, w, size=lattice.num_sites)
        params["fields"] = [float(v) for v in fields]
        bond = np.kron(x, x) + np.kron(y, y) + np.kron(z, z)
        for i, k in _bonds(lattice):
            terms.append(LocalTerm((i, k), bond.real, f"hb[{i},{k}]"))
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
class SpectralData:
    """Full spectrum of a chain Hamiltonian, ground energy shifted to zero."""

    lattice: LatticeSpec
    hamiltonian: LocalHamiltonian
    energies: np.ndarray  # ascending, energies[0] == 0
    eigenvectors: np.ndarray  # columns, phase-fixed

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
        """Spectral norm of the shifted Hamiltonian."""
        return float(self.energies[-1])

    def coefficients(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.eigenvectors.conj().T @ amplitudes


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """First component above 1e-8 in magnitude is made positive real."""
    v = vectors
    lead = np.argmax(np.abs(v) > 1e-8, axis=0)
    pivot = v[lead, np.arange(v.shape[1])]
    phase = np.where(np.abs(pivot) > 0, pivot / np.abs(pivot), 1.0)
    return v / phase if np.iscomplexobj(v) else v * np.sign(phase).real


def diagonalize(h: LocalHamiltonian) -> SpectralData:
    """Dense eigendecomposition with the ground energy shifted to zero."""
    if h.lattice.dim > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"dimension {h.lattice.dim} exceeds dense guard {DENSE_DIM_GUARD}"
        )
    raw = h.assemble(shifted=False)
    energies, vectors = np.linalg.eigh(raw)
    if h.ground_shift is None:
        h.ground_shift = float(energies[0])
    energies = energies - h.ground_shift
    if abs(energies.min()) > TOL.ground_shift:
        raise ValueError(
            f"ground energy {energies.min()!r} not zero after shift; "
            "stored shift is stale"
        )
    return SpectralData(h.lattice, h, energies, _fix_phases(vectors))


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
    sampled: bool
    gaps_scanned: int


def _coincidence_pairs(sorted_vals: np.ndarray, tol: float) -> int:
    """Number of index pairs within tol of each other, by adjacent runs.

    A run of L consecutive close neighbours holds L(L+1)/2 such pairs.
    """
    close = np.diff(sorted_vals) <= tol
    edges = np.flatnonzero(np.diff(np.concatenate(([False], close, [False])).astype(np.int8)))
    runs = edges[1::2] - edges[::2]
    return int(np.sum(runs * (runs + 1) // 2))


def gap_tolerance(tolerance: float | None) -> float | None:
    """A coincidence tolerance gap_report accepts: None (scaled to the
    norm) or a non-negative number."""
    if tolerance is not None and not tolerance >= 0:
        raise ValueError(f"gap tolerance must be non-negative, got {tolerance!r}")
    return tolerance


def gap_report(
    s: SpectralData,
    tolerance: float | None = None,
    sample_budget: int = 2_000_000,
    seed: int = 0,
) -> GapReport:
    """Scan energy differences E_i - E_j (ordered pairs, i != j) for
    coincidences.

    Exact for up to 1024 levels; larger spectra are subsampled with the
    given budget and flagged.  The default tolerance scales with the
    Hamiltonian norm; absolute spacings shrink quickly with system size,
    so certification at large N needs an explicit, tighter tolerance.
    """
    energies = s.energies
    dim = energies.size
    tol = 1e-10 * max(s.norm, 1.0) if tolerance is None else gap_tolerance(tolerance)
    # level degeneracies first
    degen_levels = sum(
        b - a for a, b in degenerate_groups(np.sort(energies), tol) if b - a > 1
    )
    exact = dim <= 1024
    if exact:
        diff = energies[:, None] - energies[None, :]
        gaps = diff[~np.eye(dim, dtype=bool)]
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, dim, size=sample_budget)
        jj = rng.integers(0, dim, size=sample_budget)
        keep = ii != jj
        gaps = energies[ii[keep]] - energies[jj[keep]]
    gaps = np.sort(gaps)
    min_diff = float(np.diff(gaps).min()) if gaps.size > 1 else np.inf
    pairs = _coincidence_pairs(gaps, tol)
    return GapReport(
        tolerance=tol,
        min_gap_difference=min_diff,
        degenerate_gap_pairs=pairs,
        degenerate_levels=degen_levels,
        sampled=not exact,
        gaps_scanned=int(gaps.size),
    )


def degenerate_groups(energies: np.ndarray, tolerance: float) -> list[tuple[int, int]]:
    """Maximal runs [start, stop) of energies equal within the tolerance."""
    groups = []
    start = 0
    for i in range(1, energies.size + 1):
        if i == energies.size or energies[i] - energies[i - 1] > tolerance:
            groups.append((start, i))
            start = i
    return groups


def inverse_temperature(beta: float) -> float:
    """A beta the Gibbs routines accept: zero or positive, and finite."""
    if not 0 <= beta < np.inf:
        raise ValueError(f"inverse temperature must be finite and non-negative, got {beta!r}")
    return beta


def gibbs_populations(s: SpectralData, beta: float) -> np.ndarray:
    beta = inverse_temperature(beta)
    logw = -beta * s.energies
    return np.exp(logw - logsumexp(logw))


def gibbs_state(s: SpectralData, beta: float) -> DensityMatrix:
    p = gibbs_populations(s, beta)
    v = s.eigenvectors
    return DensityMatrix(s.lattice, (v * p) @ v.conj().T)


def log_partition(s: SpectralData, beta: float) -> float:
    return float(logsumexp(-beta * s.energies))


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
