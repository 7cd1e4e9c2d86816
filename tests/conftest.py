import ergolab.cli  # noqa: F401  sets one-thread BLAS, as a run does, before numpy loads
import numpy as np
import pytest

from ergolab.hamiltonians import build_model, diagonalize
from ergolab.states import LatticeSpec


def _reference_embed(op, sites, lattice):
    """The dense kron-with-identities embedding of a local operator: the
    reference that local-operator application and assembly are pinned to."""
    sites = tuple(sorted(int(s) for s in sites))
    d, n = lattice.local_dim, lattice.num_sites
    m = len(sites)
    if m == n:
        return op
    if m > 0 and sites[-1] - sites[0] + 1 == m:
        left, right = sites[0], n - sites[-1] - 1
        return np.kron(np.kron(np.eye(d**left), op), np.eye(d**right))
    rest = [s for s in range(n) if s not in sites]
    full = np.kron(op, np.eye(d ** (n - m)))
    perm = np.argsort(list(sites) + rest)
    t = full.reshape([d] * (2 * n))
    t = np.transpose(t, list(perm) + [n + p for p in perm])
    return np.ascontiguousarray(t).reshape(lattice.dim, lattice.dim)


@pytest.fixture(scope="session")
def lat6():
    return LatticeSpec(6, 2, "chain-open")


@pytest.fixture(scope="session")
def spec6(lat6):
    """Diagonalized 6-site mixed-field Ising chain, reused across tests."""
    return diagonalize(build_model("mixed-field-ising", lat6))


@pytest.fixture(scope="session")
def spec8():
    lat = LatticeSpec(8, 2, "chain-open")
    return diagonalize(build_model("mixed-field-ising", lat))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
