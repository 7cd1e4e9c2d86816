"""Finite-depth local circuits: construction, application, layer
generators, and extensivity of entanglement on spaced sublattices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import renyi_entropy
from .hamiltonians import LocalHamiltonian, LocalTerm
from .operators import apply_local
from .overlaps import max_product_overlap
from .rates import QuasiLocalUnitary
from .states import LatticeSpec, PureState, partial_trace, site_set, trace_distance

UNITARITY_TOL = 1e-10


@dataclass
class CircuitLayer:
    """Disjoint local gates applied simultaneously."""

    lattice: LatticeSpec
    gates: list[tuple[tuple[int, ...], np.ndarray]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        d = self.lattice.local_dim
        norm_gates = []
        for i, (sites, mat) in enumerate(self.gates):
            sites = tuple(sorted(int(s) for s in sites))
            if len(set(sites)) != len(sites):
                raise ValueError(f"gate {i} sites {sites} are not distinct")
            if any(s < 0 or s >= self.lattice.num_sites for s in sites):
                raise ValueError("gate support outside lattice")
            if seen & set(sites):
                raise ValueError("gates within a layer must be disjoint")
            seen |= set(sites)
            mat = np.asarray(mat, dtype=complex)
            dim = d ** len(sites)
            if mat.shape != (dim, dim):
                raise ValueError("gate shape does not match its support")
            if np.abs(mat @ mat.conj().T - np.eye(dim)).max() > UNITARITY_TOL:
                raise ValueError("gate is not unitary")
            norm_gates.append((sites, mat))
        self.gates = norm_gates

    @property
    def gate_range(self) -> int:
        return max((s[-1] - s[0] + 1 for s, _ in self.gates), default=1)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brickwork(
    lattice: LatticeSpec,
    depth: int,
    gate,
    period: int = 2,
) -> list[CircuitLayer]:
    """Layers of identical-width gates on (i, i+1) pairs.

    Layer l places gates at i = offset, offset+period, ... with offset
    l modulo the period, the classic
    even/odd bricks at period 2.  No wrap-around gates are placed, also
    on rings; a period-p single layer on a ring multiple of p is still
    translation invariant by p on the gated span.

    `gate` is a d^2 x d^2 matrix or a callable of the left site index.
    """
    n = lattice.num_sites
    layers = []
    for l in range(depth):
        offset = l % period
        gates = []
        for i in range(offset, n - 1, period):
            g = gate(i) if callable(gate) else gate
            gates.append(((i, i + 1), g))
        layers.append(CircuitLayer(lattice, gates))
    return layers


def apply_circuit(psi: PureState, layers: list[CircuitLayer]) -> PureState:
    """Apply the layers in order; composition of unitaries keeps the norm."""
    a = psi.amplitudes
    for layer in layers:
        if layer.lattice != psi.lattice:
            raise ValueError("layer lattice mismatch")
        for sites, mat in layer.gates:
            a = apply_local(mat, sites, psi.lattice, a)
    return PureState(psi.lattice, a)


@dataclass(frozen=True)
class ExtensivityReport:
    spacing: int
    sublattice: tuple[int, ...]
    s2_site: float
    s2_sublattice: float
    additivity_error: float
    product_power_distance: float
    marginals_max_distance: float
    branch: str
    product_overlap: float | None
    note: str
    passed: bool


def circuit_extensivity_check(
    psi: PureState,
    spacing: int,
    light_cone_radius: int | None = None,
) -> ExtensivityReport:
    """Reduced state on an evenly spaced sublattice against the tensor
    power of its single-site marginal.

    For circuit states whose light cone is shorter than the spacing, the
    sublattice marginal factorizes: trace distance to the product of the
    single-site states within 1e-8, Renyi-2 additive within 1e-6, and all
    marginals identical under translation invariance.  If the single-site
    entropy vanishes the state must be globally product, which is
    cross-checked with the product-overlap optimizer.
    """
    lattice = psi.lattice
    n = lattice.num_sites
    if spacing < 1 or n % spacing:
        raise ValueError("spacing must divide the chain length")
    note = ""
    if light_cone_radius is not None and spacing < light_cone_radius + 1:
        note = "spacing below the light-cone radius; factorization not guaranteed"
        warnings.warn(note)
    sub = tuple(range(0, n, spacing))
    keep = site_set(lattice, sub)
    rho_sub = partial_trace(psi, keep)
    marginals = [partial_trace(psi, site_set(lattice, (x,))).matrix for x in sub]
    marg_dist = 0.0
    for a in range(len(marginals)):
        for b in range(a + 1, len(marginals)):
            marg_dist = max(marg_dist, trace_distance(marginals[a], marginals[b]))
    power = np.array([[1.0 + 0.0j]])
    for m in marginals:
        power = np.kron(power, m)
    prod_dist = trace_distance(rho_sub.matrix, power)
    s2_site = renyi_entropy(marginals[0], 2.0)
    s2_sub = renyi_entropy(rho_sub, 2.0)
    additivity = abs(s2_sub - len(sub) * s2_site)
    if s2_site < 1e-10:
        _, ov = max_product_overlap(psi, restarts=4, sweeps=40)
        branch = "product"
        branch_ok = ov >= 1.0 - 1e-8
        product_overlap = float(ov)
    else:
        branch = "extensive"
        branch_ok = True
        product_overlap = None
    passed = (
        prod_dist <= 1e-8
        and additivity <= 1e-6
        and marg_dist <= 1e-8
        and branch_ok
    )
    return ExtensivityReport(
        spacing=spacing,
        sublattice=sub,
        s2_site=float(s2_site),
        s2_sublattice=float(s2_sub),
        additivity_error=float(additivity),
        product_power_distance=float(prod_dist),
        marginals_max_distance=float(marg_dist),
        branch=branch,
        product_overlap=product_overlap,
        note=note,
        passed=bool(passed),
    )


def _unitary_log(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a unitary, W diag(i arg w) W^-1.

    A unitary is normal, so it diagonalises; solving against W rather than
    taking W^dag keeps the result exact on degenerate eigenvalues, where
    eig's eigenvectors need not be orthogonal.
    """
    w, vecs = np.linalg.eig(u)
    return np.linalg.solve(vecs.T, (vecs * (1j * np.angle(w))).T).T


def layer_generator(layer: CircuitLayer) -> QuasiLocalUnitary:
    """The layer as exp(-i H' t): disjoint gates commute, so the matrix
    logarithms of the individual gates assemble into one strictly local
    generator; the largest single-gate strength becomes the time."""
    strengths = []
    raw_terms = []
    for sites, mat in layer.gates:
        v = 1.0j * _unitary_log(mat)
        v = 0.5 * (v + v.conj().T)
        strengths.append(float(np.abs(np.linalg.eigvalsh(v)).max()))
        raw_terms.append((sites, v))
    gamma = max(strengths, default=0.0)
    if gamma < 1e-14:
        ham = LocalHamiltonian(layer.lattice, [], locality=max(2, layer.gate_range))
        return QuasiLocalUnitary(ham, 0.0)
    terms = [
        LocalTerm(sites, v / gamma, f"gate[{sites[0]},{sites[-1]}]")
        for sites, v in raw_terms
    ]
    ham = LocalHamiltonian(
        layer.lattice, terms, locality=max(2, layer.gate_range), name="layer-generator"
    )
    return QuasiLocalUnitary(ham, gamma)
