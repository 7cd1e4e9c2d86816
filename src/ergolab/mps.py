"""Translationally invariant matrix product states on rings: dense
realization, transfer spectra, and product-overlap decay fits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .fits import fit_line
from .hamiltonians import DENSE_DIM_GUARD, ResourceGuardError
from .states import LatticeSpec, PureState

INJECTIVITY_GAP = 1e-6


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
    if d**num_sites > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"dense MPS on {num_sites} sites exceeds guard {DENSE_DIM_GUARD}"
        )
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


def random_injective_spec(
    bond_dim: int = 2, local_dim: int = 2, seed: int = 0, attempts: int = 50
) -> MPSSpec:
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        t = rng.normal(size=(local_dim, bond_dim, bond_dim)) + 1j * rng.normal(
            size=(local_dim, bond_dim, bond_dim)
        )
        spec = normalized(MPSSpec(t))
        if injectivity(spec).injective:
            return spec
    raise RuntimeError("no injective draw within the attempt budget")


def _bloch_coefficients(theta, phi_angle):
    """Conjugated amplitudes of the Bloch state (cos t/2, e^{i p} sin t/2)."""
    c0 = np.cos(theta / 2.0)
    c1 = np.exp(-1j * phi_angle) * np.sin(theta / 2.0)
    return c0, c1


def _pair_eigvals_2x2(t, det):
    disc = np.sqrt(t * t - 4.0 * det + 0j)
    return (t + disc) / 2.0, (t - disc) / 2.0


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

    def csv_rows(self):
        for n, v in zip(self.sizes, self.max_overlaps):
            yield n, v, math.log(v) if v > 0 else -math.inf


def decay_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """Ring sizes of a decay fit: at least two distinct ones."""
    sizes = tuple(int(n) for n in sizes)
    if len(set(sizes)) < 2:
        raise ValueError("a decay fit needs at least two distinct sizes")
    return sizes


def mps_overlap_decay(
    spec: MPSSpec,
    sizes: Sequence[int] = tuple(range(8, 65, 4)),
    grid_shape: tuple[int, int] = (64, 128),
    refine: bool = True,
) -> DecayReport:
    """Maximal product overlap per ring size through the transfer
    operator, fitted to an exponential.

    The single-site factor is optimized over a Bloch-sphere grid with
    closed-form 2x2 eigenvalues, then polished with a local simplex
    search from the best grid point.  Non-injective specs are rejected
    before any fit; a product MPS comes out as the flat branch with
    overlap one at every size.
    """
    sizes = decay_sizes(sizes)
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
    if spec.local_dim != 2:
        raise NotImplementedError("overlap optimizer implemented for local_dim 2")
    spec = normalized(spec)
    a0, a1 = spec.tensors[0], spec.tensors[1]
    na, nb = grid_shape
    theta = np.pi * (np.arange(na) + 0.5) / na
    phi_angle = 2.0 * np.pi * np.arange(nb) / nb
    tt, pp = np.meshgrid(theta, phi_angle, indexing="ij")
    c0, c1 = _bloch_coefficients(tt, pp)
    tr_b = c0 * np.trace(a0) + c1 * np.trace(a1)
    det0 = np.linalg.det(a0)
    det1 = np.linalg.det(a1)
    det_mix = np.linalg.det(a0 + a1) - det0 - det1
    det_b = c0 * c0 * det0 + c1 * c1 * det1 + c0 * c1 * det_mix
    lam_p, lam_m = _pair_eigvals_2x2(tr_b, det_b)
    z = _z_values(spec, sizes)

    def overlap_at(x: np.ndarray, n: int, zn: float) -> float:
        cc0, cc1 = _bloch_coefficients(x[0], x[1])
        b = cc0 * a0 + cc1 * a1
        lam = np.linalg.eigvals(b)
        return float(abs(np.sum(lam**n)) / math.sqrt(zn))

    best = []
    refined_any = False
    for n, zn in zip(sizes, z):
        vals = np.abs(lam_p**n + lam_m**n) / math.sqrt(zn)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        top = float(vals[idx])
        if refine:
            x0 = np.array([tt[idx], pp[idx]])
            res = minimize(
                lambda x: -overlap_at(x, n, zn),
                x0,
                method="Nelder-Mead",
                options={"maxiter": 200, "xatol": 1e-8, "fatol": 1e-12},
            )
            if -res.fun > top:
                top = float(-res.fun)
                refined_any = True
        best.append(min(top, 1.0))
    if min(best) >= 1.0 - 1e-8:
        return DecayReport(
            branch="product",
            injectivity=inj,
            sizes=sizes,
            max_overlaps=tuple(best),
            kappa=0.0,
            intercept=0.0,
            r_squared=None,
            refined=refined_any,
            passed=True,
        )
    y = np.log(np.maximum(best, 1e-300))
    slope, intercept, r2 = fit_line(sizes, y)
    kappa = -slope
    return DecayReport(
        branch="decay",
        injectivity=inj,
        sizes=sizes,
        max_overlaps=tuple(best),
        kappa=kappa,
        intercept=intercept,
        r_squared=r2,
        refined=refined_any,
        passed=bool(kappa > 0 and r2 >= 0.99),
    )
