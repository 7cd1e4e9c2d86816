"""Pure states and density matrices on finite qudit chains.

Index convention: site 0 is the most significant digit of the base-d
computational index, so ``amplitudes.reshape([d] * num_sites)`` exposes
site ``s`` on axis ``s``.  ``_subset_order`` is the one implementation of
this convention: bipartitions, local-operator application (gates,
observables and boundary terms), Hamiltonian assembly and the maximally
entangled state all take their basis indices from it.  ``_reduced_states``
is the one reduced-state kernel (M M^dag of the bipartition matrices) and
``_rows_renyi2`` the one Renyi-2 kernel built on it.  ``_product_rows``
is the one product-state factory: random, basis and factor-built product
states, and the product vectors an overlap optimisation contracts
against, are all built by it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tolerances import TOL


class ResourceGuardError(RuntimeError):
    """Raised when a request exceeds the dense-representation budget."""


def shown(value) -> str:
    """repr(value) for a message, with an integer beyond 128 bits, also
    inside a list or tuple, shown by its size: Python refuses the repr of
    an integer of more than 4300 digits, and a message may be formatted
    whether its check fails or not."""
    if isinstance(value, int) and abs(value).bit_length() > 128:
        return f"{'a negative' if value < 0 else 'an'} integer of {abs(value).bit_length()} bits"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(shown, value)) + ("," if type(value) is tuple and len(value) == 1 else "")
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return repr(value)


GEOMETRIES = ("chain-open", "chain-periodic")


@dataclass(frozen=True)
class LatticeSpec:
    """A one-dimensional arrangement of qudits."""

    num_sites: int
    local_dim: int = 2
    geometry: str = "chain-open"

    def __post_init__(self) -> None:
        # single-site lattices arise as partial-trace targets
        if self.num_sites < 1:
            raise ValueError("lattice needs at least one site")
        if self.local_dim < 2:
            raise ValueError("local dimension must be at least 2")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        # total dimension must stay addressable as a platform integer
        if self.num_sites > 62 / math.log2(self.local_dim):  # takes any Python int
            raise ResourceGuardError(
                "total Hilbert-space dimension exceeds index range"
            )

    @property
    def dim(self) -> int:
        return self.local_dim**self.num_sites


@dataclass(frozen=True)
class SiteSet:
    """A non-empty subset of lattice sites, stored sorted."""

    lattice: LatticeSpec
    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        sites = tuple(sorted(set(int(s) for s in self.sites)))
        if not sites:
            raise ValueError("site set must be non-empty")
        if sites[0] < 0 or sites[-1] >= self.lattice.num_sites:
            raise ValueError(f"sites {shown(sites)} outside lattice of {self.lattice.num_sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    @property
    def dim(self) -> int:
        return self.lattice.local_dim ** len(self.sites)

    def complement(self) -> "SiteSet":
        rest = tuple(s for s in range(self.lattice.num_sites) if s not in set(self.sites))
        if not rest:
            raise ValueError("complement of the full lattice is empty")
        return SiteSet(self.lattice, rest)


def site_set(lattice: LatticeSpec, sites: SiteSet | Iterable[int]) -> SiteSet:
    """Coerce an iterable of site indices into a validated SiteSet."""
    if isinstance(sites, SiteSet):
        if sites.lattice != lattice:
            raise ValueError("site set belongs to a different lattice")
        return sites
    return SiteSet(lattice, tuple(sites))


@dataclass(frozen=True)
class PureState:
    lattice: LatticeSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.lattice.dim,):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match "
                f"lattice dimension {self.lattice.dim}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TOL.normalization:
            raise ValueError(f"state norm {norm!r} is not 1 within tolerance")
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        d, n = self.lattice.local_dim, self.lattice.num_sites
        return self.amplitudes.reshape([d] * n)


@dataclass(frozen=True)
class DensityMatrix:
    lattice: LatticeSpec
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dim = self.lattice.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {dim}")
        if np.abs(m - m.conj().T).max() > TOL.normalization:
            raise ValueError("density matrix is not hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TOL.normalization:
            raise ValueError(f"trace {tr!r} is not 1 within tolerance")
        low = float(np.linalg.eigvalsh(m).min())
        if low < -TOL.psd_clamp:
            raise ValueError(f"matrix has negative eigenvalue {low!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.lattice.dim


def density_from_pure(state: PureState) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.lattice, np.outer(amps, amps.conj()))


def _sublattice(lattice: LatticeSpec, num_sites: int) -> LatticeSpec:
    # reduced states live on an abstract open chain of the kept sites
    return LatticeSpec(num_sites, lattice.local_dim, "chain-open")


@functools.cache
def _subset_order(num_sites: int, d: int, keep: tuple[int, ...]) -> np.ndarray:
    """Read-only basis-index permutation that puts the `keep` digits first.

    Taking a state-major row at these indices lists its amplitudes with the
    kept digits most significant, so a reshape to (d**len(keep), -1) gives
    the bipartition matrix without an N-axis transpose of the state.
    """
    kept = set(keep)
    rest = [s for s in range(num_sites) if s not in kept]
    order = np.arange(d**num_sites).reshape((d,) * num_sites)
    order = np.ascontiguousarray(order.transpose([*keep, *rest])).reshape(-1)
    order.flags.writeable = False
    return order


def bipartition_matrix(
    amplitudes: np.ndarray, keep: Iterable[int], lattice: LatticeSpec
) -> np.ndarray:
    """Reshape amplitudes into (kept, traced) matrices M.

    `amplitudes` is one vector or a stack of state-major rows of shape
    (..., dim); the result has shape (..., d**k, d**(n-k)).  The reduced
    state of a row on the kept sites is M M^dag (`_reduced_states`); the
    kept axes are ordered as given, which every caller passes ascending.
    The full density matrix is never materialised.
    """
    keep = tuple(keep)
    a = np.asarray(amplitudes)
    order = _subset_order(lattice.num_sites, lattice.local_dim, keep)
    return a.take(order, axis=-1).reshape(*a.shape[:-1], lattice.local_dim ** len(keep), -1)


def _reduced_states(amplitudes: np.ndarray, keep: tuple[int, ...], lattice: LatticeSpec) -> np.ndarray:
    """Reduced states M M^dag on `keep` of one vector or of each row of a
    stack (..., dim), from the bipartition matrices M."""
    m = bipartition_matrix(amplitudes, keep, lattice)
    return m @ m.conj().swapaxes(-1, -2)


def _rows_renyi2(rows: np.ndarray, lattice: LatticeSpec, keep: tuple[int, ...]) -> np.ndarray:
    """S_2 of the reduced state on `keep`, for every state-major row."""
    # conj() and .real return real input itself, so real rows stay real
    g = _reduced_states(rows, keep, lattice)
    purity = np.einsum("nab,nab->n", g, g.conj()).real
    return -np.log(np.clip(purity, 1e-300, 1.0))


def partial_trace(state: PureState, keep: SiteSet | Iterable[int]) -> DensityMatrix:
    """Reduce a pure state to the given sites (contiguous or not).

    Parameters
    ----------
    state
        Pure state on the full lattice.
    keep
        Sites to retain.  Output axes are ordered by ascending site index.
    """
    keep = site_set(state.lattice, keep)
    if len(keep) == state.lattice.num_sites:
        return density_from_pure(state)
    rho = _reduced_states(state.amplitudes, keep.sites, state.lattice)
    # guard against accumulated round-off before validation
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(_sublattice(state.lattice, len(keep)), rho)


def overlap(a: PureState, b: PureState) -> complex:
    if a.lattice != b.lattice:
        raise ValueError("states live on different lattices")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, PureState):
        return density_from_pure(state).matrix
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state)


def trace_distance(rho, sigma) -> float:
    """Trace norm ||rho - sigma||_1 (sum of absolute eigenvalues).

    Accepts pure states, density matrices, or raw hermitian arrays.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError("dimension mismatch")
    return float(np.abs(np.linalg.eigvalsh(r - s)).sum())


def _product_rows(factors: np.ndarray) -> np.ndarray:
    """Amplitude rows (..., d**N) of the product states of single-site
    factors (..., N, d); multiplying sites in left to right gives the bits
    of a chain of ``np.kron``, and N = 0 gives rows of one amplitude 1."""
    *lead, n, d = factors.shape
    amps = np.ones((*lead, 1), dtype=factors.dtype)
    for k in range(n):
        amps = (amps[..., :, None] * factors[..., k, None, :]).reshape(*lead, d ** (k + 1))
    return amps


def _row_norms(v: np.ndarray) -> np.ndarray:
    """2-norms over the last axis, summed as ``np.linalg.norm`` sums one
    complex vector, so a stack normalises to the bits of a loop over it."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _random_factors(lattice: LatticeSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` stacks (count, N, d) of normalised Gaussian factors from one
    draw; row i is the i-th of successive per-site draws (d real parts,
    then d imaginary parts)."""
    g = rng.normal(size=(count, lattice.num_sites, 2, lattice.local_dim))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    return v / _row_norms(v)[..., None]


def random_product_state(
    lattice: LatticeSpec, seed: int | np.random.Generator = 0
) -> PureState:
    """Haar-random single-site factors, deterministic under the seed."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return PureState(lattice, _product_rows(_random_factors(lattice, rng, 1)[0]))


def basis_product_state(lattice: LatticeSpec, digits: Iterable[int]) -> PureState:
    """Computational basis state |digits[0], digits[1], ...>."""
    digits = list(digits)
    if len(digits) != lattice.num_sites:
        raise ValueError("one digit per site required")
    d = lattice.local_dim
    for g in digits:
        if not 0 <= g < d:
            raise ValueError(f"digit {g} outside local dimension {d}")
    return PureState(lattice, _product_rows(np.eye(d)[digits]))


def maximally_entangled(lattice: LatticeSpec, region: SiteSet | Iterable[int]) -> PureState:
    """Maximally entangled state between a region and its complement.

    Site ``region[k]`` is paired with the k-th complement site, in
    ascending order; complement sites beyond the pairing are left in
    |0>.  The reduced state on the region is maximally mixed, so its
    min-entropy equals log of the region dimension.
    """
    region = site_set(lattice, region)
    comp = region.complement()
    m = len(region)
    if m > len(comp):
        raise ValueError("region larger than half the lattice is unsupported")
    d, n = lattice.local_dim, lattice.num_sites
    d_a = d**m
    # column k * d**(n - 2m) gives the first m complement sites the digits of k, the rest 0
    o = _subset_order(n, d, region.sites).reshape(d_a, -1)
    k = np.arange(d_a)
    amps = np.zeros(lattice.dim, dtype=complex)
    amps[o[k, k * d ** (n - 2 * m)]] = 1.0 / np.sqrt(d_a)
    return PureState(lattice, amps)


def state_to_json(state: PureState) -> str:
    pairs = [[float(a.real), float(a.imag)] for a in state.amplitudes]
    return json.dumps(
        {
            "num_sites": state.lattice.num_sites,
            "local_dim": state.lattice.local_dim,
            "geometry": state.lattice.geometry,
            "amplitudes": pairs,
        }
    )
