"""Operator utilities: Pauli matrices, local-operator application, hermitian bases."""

from __future__ import annotations

import numpy as np

from .states import LatticeSpec, _subset_order
from .tolerances import TOL

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli(axis: str) -> np.ndarray:
    try:
        return PAULI[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def is_hermitian(m: np.ndarray, tol: float | None = None) -> bool:
    tol = TOL.normalization if tol is None else tol
    return bool(np.abs(m - np.conj(m.T)).max() <= tol)


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm; hermitian operators take the cheap eigenvalue route."""
    if is_hermitian(m, 1e-12):
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    return float(np.linalg.norm(m, 2))


def _support_index(sites, lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column basis indices of a local operator in the full chain.

    ``full[rows, cols] = op[:, :, None]`` embeds `op`, whose axes follow
    ascending site order; every (rows, cols) pair is distinct, so ``+=``
    through the same indices adds a term exactly.
    """
    sites = tuple(sorted(sites))
    d = lattice.local_dim
    o = _subset_order(lattice.num_sites, d, sites).reshape(d ** len(sites), -1)
    return o[:, None, :], o[None, :, :]


def _local_support(op: np.ndarray, sites, lattice: LatticeSpec) -> tuple[int, ...]:
    """Ascending support of a local operator, refused unless its sites are
    distinct lattice sites and `op` is d^m x d^m for m of them."""
    sites = tuple(sorted(int(s) for s in sites))
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites in support")
    if sites and (sites[0] < 0 or sites[-1] >= lattice.num_sites):
        raise ValueError("support outside lattice")
    m = len(sites)
    if np.shape(op) != (lattice.local_dim**m,) * 2:
        raise ValueError(f"operator shape {np.shape(op)} does not fit {m} sites")
    return sites


def apply_local(op: np.ndarray, sites, lattice: LatticeSpec, amps: np.ndarray) -> np.ndarray:
    """The operator acting on the given sites, applied to a vector (dim,)
    or a stack of columns (dim, k) without embedding it in the full chain.

    Supports are arbitrary (non-contiguous allowed); the operator's axes
    must be ordered by ascending site index, matching the global
    convention that site 0 is the most significant digit.  The support's
    basis indices are gathered, multiplied by the d^m x d^m block and
    scattered back; they cover every basis index once.
    """
    sites = _local_support(op, sites, lattice)
    amps = np.asarray(amps)
    if amps.shape[0] != lattice.dim:
        raise ValueError(f"{amps.shape[0]} amplitudes do not match dimension {lattice.dim}")
    o = _subset_order(lattice.num_sites, lattice.local_dim, sites).reshape(len(op), -1)
    g = amps[o]
    out = np.empty(amps.shape, dtype=np.result_type(op, amps))
    out[o] = (op @ g.reshape(len(op), -1)).reshape(g.shape)
    return out


def hermitian_site_basis(d: int) -> list[tuple[str, np.ndarray]]:
    """Hermitian operator basis with unit spectral norm for one qudit.

    For d=2 this is exactly {I, X, Y, Z}.  For larger d: the identity,
    the symmetric and antisymmetric pair operators, and the diagonal
    traceless generators rescaled to unit spectral norm.  The elements
    are mutually orthogonal under the Hilbert-Schmidt inner product.
    """
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    basis: list[tuple[str, np.ndarray]] = [("I", np.eye(d))]
    for j in range(d):
        for k in range(j + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[j, k] = x[k, j] = 1.0
            basis.append((f"X{j}{k}", x))
            y = np.zeros((d, d), dtype=complex)
            y[j, k] = -1.0j
            y[k, j] = 1.0j
            basis.append((f"Y{j}{k}", y))
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        diag /= np.abs(diag).max()
        basis.append((f"D{l}", np.diag(diag).astype(complex)))
    return basis


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    return norm * h / operator_norm(h)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
