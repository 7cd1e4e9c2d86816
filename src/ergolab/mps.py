"""Translationally invariant matrix product states on rings: dense
realization, transfer spectra, and product-overlap decay fits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fits import fit_line
from .hamiltonians import dense_guard
from .states import LatticeSpec, PureState

INJECTIVITY_GAP = 1e-6
# (polar, azimuthal) points of the Bloch-sphere grid that seeds each
# product-overlap optimisation
BLOCH_GRID = (64, 128)
# 9 x 9 windows that refine the best grid point: the first spans two grid
# steps to each side, each later one is 4 times narrower (one point spacing
# of the window before) and centred on the best point so far
ZOOM_ROUNDS = 16


@dataclass(frozen=True)
class MPSSpec:
    """Site-independent tensors A_i (one D x D matrix per basis label),
    closed by a bond trace on a ring."""

    tensors: np.ndarray  # (local_dim, bond_dim, bond_dim)

    def __post_init__(self) -> None:
        t = np.asarray(self.tensors, dtype=complex)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError("tensors must have shape (local_dim, D, D)")
        if t.shape[0] < 2 or t.shape[1] < 1:
            raise ValueError("need local_dim >= 2 and bond_dim >= 1")
        object.__setattr__(self, "tensors", t)

    @property
    def local_dim(self) -> int:
        return self.tensors.shape[0]

    @property
    def bond_dim(self) -> int:
        return self.tensors.shape[1]

    def to_json(self) -> str:
        payload = {
            "bond_dim": self.bond_dim,
            "local_dim": self.local_dim,
            "tensors": [
                [[[float(v.real), float(v.imag)] for v in row] for row in mat]
                for mat in self.tensors
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "MPSSpec":
        data = json.loads(text)
        missing = {"local_dim", "bond_dim", "tensors"} - set(data)
        if missing:
            raise ValueError(f"spec JSON lacks {sorted(missing)}")
        d, bd = int(data["local_dim"]), int(data["bond_dim"])
        tensors = np.array(
            [
                [[complex(re, im) for re, im in row] for row in mat]
                for mat in data["tensors"]
            ]
        )
        if tensors.shape != (d, bd, bd):
            raise ValueError("tensor payload does not match declared dimensions")
        return MPSSpec(tensors)


def transfer_operator(spec: MPSSpec) -> np.ndarray:
    d = spec.bond_dim
    t = np.zeros((d * d, d * d), dtype=complex)
    for a in spec.tensors:
        t += np.kron(a, a.conj())
    return t


@dataclass(frozen=True)
class InjectivityReport:
    leading: float
    second: float
    relative_gap: float
    injective: bool


def injectivity(spec: MPSSpec) -> InjectivityReport:
    """Surrogate test: the transfer operator must have a simple leading
    eigenvalue with a relative gap of at least 1e-6."""
    t = transfer_operator(spec)
    vals = np.abs(np.linalg.eigvals(t))
    vals.sort()
    leading = float(vals[-1])
    if leading <= 0.0:
        return InjectivityReport(0.0, 0.0, 0.0, False)
    if vals.size == 1:
        return InjectivityReport(leading, 0.0, math.inf, True)
    second = float(vals[-2])
    gap = (leading - second) / leading
    return InjectivityReport(leading, second, gap, gap >= INJECTIVITY_GAP)


def normalized(spec: MPSSpec) -> MPSSpec:
    """Rescale so the transfer operator has unit spectral radius; overlap
    ratios are invariant, but large-N powers stay in floating range."""
    lead = injectivity(spec).leading
    if lead <= 0.0:
        raise ValueError("zero transfer spectrum; MPS vanishes")
    return MPSSpec(spec.tensors / math.sqrt(lead))


def mps_to_dense(spec: MPSSpec, num_sites: int) -> PureState:
    """Trace-closed chain contraction, normalized; the result must be
    exactly translation invariant on the ring (checked to 1e-9)."""
    d = spec.local_dim
    dense_guard(d**num_sites)
    cur = spec.tensors
    for _ in range(num_sites - 1):
        cur = np.einsum("sab,tbc->stac", cur.reshape(-1, *spec.tensors.shape[1:]), spec.tensors)
        cur = cur.reshape(-1, spec.bond_dim, spec.bond_dim)
    amps = np.einsum("saa->s", cur)
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("all trace closures vanish; zero-norm MPS")
    lattice = LatticeSpec(num_sites, d, "chain-periodic")
    state = PureState(lattice, amps / norm)
    shifted = np.moveaxis(state.tensor(), 0, -1).reshape(-1)
    if abs(abs(np.vdot(shifted, state.amplitudes)) - 1.0) > 1e-9:
        raise AssertionError("dense MPS is not translation invariant")
    return state


def _z_values(spec: MPSSpec, sizes: Sequence[int]) -> np.ndarray:
    mu = np.linalg.eigvals(transfer_operator(spec))
    out = []
    for n in sizes:
        z = np.sum(mu**n)
        if abs(z.imag) > 1e-9 * max(abs(z.real), 1e-30):
            raise AssertionError("norm trace has an imaginary residue")
        out.append(float(z.real))
    return np.array(out)


def product_overlap_transfer(
    spec: MPSSpec, phi: np.ndarray, num_sites: int
) -> float:
    """|<phi^N|MPS_N>| evaluated through bond space, no dense vector."""
    phi = np.asarray(phi, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    b = np.tensordot(phi.conj(), spec.tensors, axes=(0, 0))
    lam = np.linalg.eigvals(b)
    num = abs(np.sum(lam**num_sites))
    z = _z_values(spec, [num_sites])[0]
    return float(num / math.sqrt(z))


def ghz_spec() -> MPSSpec:
    a0 = np.diag([1.0, 0.0])
    a1 = np.diag([0.0, 1.0])
    return MPSSpec(np.stack([a0, a1]))


def random_injective_spec(bond_dim: int = 2, local_dim: int = 2, seed: int = 0) -> MPSSpec:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        t = rng.normal(size=(local_dim, bond_dim, bond_dim)) + 1j * rng.normal(
            size=(local_dim, bond_dim, bond_dim)
        )
        spec = normalized(MPSSpec(t))
        if injectivity(spec).injective:
            return spec
    raise RuntimeError("no injective draw in 50 attempts")


def _bloch_overlaps(a, theta, phi_angle, n, zn):
    """|<phi^N|MPS_N>| for the Bloch states phi = (cos t/2, e^{i p} sin t/2)
    at the angles, from the closed-form eigenvalues of the 2x2 matrix
    conj(phi) . A; the ring sizes n and their norm traces zn broadcast
    against the angle arrays."""
    a0, a1 = a
    c0, c1 = np.cos(theta / 2.0), np.exp(-1j * phi_angle) * np.sin(theta / 2.0)
    det0, det1 = np.linalg.det(a0), np.linalg.det(a1)
    det_mix = np.linalg.det(a0 + a1) - det0 - det1
    tr_b = c0 * np.trace(a0) + c1 * np.trace(a1)
    det_b = c0 * c0 * det0 + c1 * c1 * det1 + c0 * c1 * det_mix
    disc = np.sqrt(tr_b * tr_b - 4.0 * det_b + 0j)
    lam_p, lam_m = (tr_b + disc) / 2.0, (tr_b - disc) / 2.0
    return np.abs(lam_p**n + lam_m**n) / np.sqrt(zn)


def _peak(a, theta, phi_angle, n, zn):
    """Per ring size (the leading axis of n), the angles of the largest
    overlap among the given Bloch points, and that overlap."""
    vals = _bloch_overlaps(a, theta, phi_angle, n, zn)
    rows, k = np.arange(len(n)), vals.reshape(len(n), -1).argmax(axis=1)
    return [
        np.broadcast_to(x, vals.shape).reshape(len(n), -1)[rows, k]
        for x in (theta, phi_angle, vals)
    ]


@dataclass(frozen=True)
class DecayReport:
    branch: str  # "decay" | "product" | "non-injective"
    injectivity: InjectivityReport
    sizes: tuple[int, ...]
    max_overlaps: tuple[float, ...]
    kappa: float | None
    intercept: float | None
    r_squared: float | None
    refined: bool
    passed: bool


def decay_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Ring sizes of a decay fit: at least two distinct ones, each of at
    least one site."""
    sizes = tuple(int(n) for n in sizes)
    if len(set(sizes)) < 2:
        raise ValueError("a decay fit needs at least two distinct sizes")
    if min(sizes) < 1:
        raise ValueError(f"ring sizes must be at least 1, got {min(sizes)}")
    return sizes


def mps_overlap_decay(
    spec: MPSSpec,
    sizes: Sequence[int] = tuple(range(8, 65, 4)),
    refine: bool = True,
) -> DecayReport:
    """Maximal product overlap per ring size through the transfer
    operator, fitted to an exponential.

    The single-site factor is optimized over the BLOCH_GRID points with
    closed-form 2x2 eigenvalues, then refined by ZOOM_ROUNDS shrinking
    windows of the same evaluation, each re-centred on the best point so
    far; every window holds its centre, so no round lowers the value.
    A local dimension other than 2 or a bond dimension above 2 raises
    NotImplementedError, injective or not; a bond-dimension-1 spec is
    padded with a zero block.  Non-injective specs are rejected before any
    fit; a product MPS comes out as the flat branch with overlap one at
    every size.
    """
    sizes = decay_sizes(sizes)
    if spec.local_dim != 2 or spec.bond_dim > 2:
        raise NotImplementedError("overlap optimizer implemented for local_dim 2, bond_dim <= 2")
    inj = injectivity(spec)
    if not inj.injective:
        return DecayReport(
            branch="non-injective",
            injectivity=inj,
            sizes=sizes,
            max_overlaps=(),
            kappa=None,
            intercept=None,
            r_squared=None,
            refined=False,
            passed=False,
        )
    spec = normalized(spec)
    pad = 2 - spec.bond_dim
    a = np.pad(spec.tensors, ((0, 0), (0, pad), (0, pad)))
    n = np.array(sizes)[:, None, None]
    zn = _z_values(spec, sizes)[:, None, None]
    na, nb = BLOCH_GRID
    theta = np.pi * (np.arange(na) + 0.5) / na
    phi_angle = 2.0 * np.pi * np.arange(nb) / nb
    t_best, p_best, grid_top = _peak(a, theta[:, None], phi_angle, n, zn)
    top = grid_top
    if refine:
        offsets = np.linspace(-1.0, 1.0, 9)
        half = 2.0 * np.array([np.pi / na, 2.0 * np.pi / nb])
        for _ in range(ZOOM_ROUNDS):
            t_best, p_best, top = _peak(
                a,
                t_best[:, None, None] + half[0] * offsets[:, None],
                p_best[:, None, None] + half[1] * offsets,
                n,
                zn,
            )
            half = half / 4.0
    refined_any = bool(np.any(top > grid_top))
    best = [min(float(v), 1.0) for v in top]
    if min(best) >= 1.0 - 1e-8:
        branch, kappa, intercept, r2, passed = "product", 0.0, 0.0, None, True
    else:
        slope, intercept, r2 = fit_line(sizes, np.log(np.maximum(best, 1e-300)))
        kappa = -slope
        branch, passed = "decay", bool(kappa > 0 and r2 >= 0.99)
    return DecayReport(
        branch=branch,
        injectivity=inj,
        sizes=sizes,
        max_overlaps=tuple(best),
        kappa=kappa,
        intercept=intercept,
        r_squared=r2,
        refined=refined_any,
        passed=passed,
    )
