"""Renyi entropies of density operators and their order relations.

Natural logarithm throughout.  Spectra are cleaned once, centrally:
eigenvalues in [-psd_clamp, 0) are clamped to zero (with renormalisation),
anything more negative raises, and values below the spectrum floor are
excluded from entropy sums to avoid spurious divergences at small order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import DensityMatrix
from .tolerances import TOL

INF = math.inf


def clean_spectrum(values: np.ndarray) -> np.ndarray:
    """Validate and normalise a candidate probability spectrum."""
    vals = np.asarray(values, dtype=float).reshape(-1)
    low = vals.min() if vals.size else 0.0
    if low < -TOL.psd_clamp:
        raise ValueError(f"spectrum has negative weight {low!r}")
    vals = np.where(vals < 0.0, 0.0, vals)
    total = vals.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"spectrum sums to {total!r}, not 1")
    return vals / total


def spectrum_of(state: DensityMatrix | np.ndarray | Sequence[float]) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return clean_spectrum(np.linalg.eigvalsh(state.matrix))
    arr = np.asarray(state)
    if arr.ndim == 2:
        return clean_spectrum(np.linalg.eigvalsh(arr))
    return clean_spectrum(arr.astype(float))


def renyi_entropy(state: DensityMatrix | np.ndarray | Sequence[float], order: float) -> float:
    """Renyi entropy of the given order (order 1 = von Neumann, inf = min).

    Accepts a density matrix, a hermitian matrix, or a 1-D spectrum.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    q = spectrum_of(state)
    q = q[q > TOL.spectrum_floor]
    if order == INF:
        return float(-np.log(q.max()))
    if order == 1.0:
        return float(-np.sum(q * np.log(q)))
    if order == 0.0:
        return float(np.log(q.size))
    return float(np.log(np.sum(q**order)) / (1.0 - order))


@dataclass(frozen=True)
class OrderingReport:
    """Margins of the entropy order relations for one spectrum."""

    alphas: tuple[float, ...]
    beta: float
    s_inf: float
    # S_alpha - S_inf, one per alpha; each must be >= -tolerance
    alpha_margins: tuple[float, ...]
    # S_inf - ((beta-1)/beta) S_beta, must be >= -tolerance
    beta_margin: float
    tolerance: float
    passed: bool
    note: str = "eigenvalues below the spectrum floor are excluded"
    spectrum: tuple[float, ...] = ()


def check_renyi_ordering(
    state: DensityMatrix | np.ndarray | Sequence[float],
    alphas: Iterable[float] = (0.0, 0.5, 1.0, 2.0, 5.0, INF),
    beta: float = 2.0,
    tolerance: float | None = None,
) -> OrderingReport:
    """Check S_alpha >= S_inf and S_inf >= ((beta-1)/beta) S_beta.

    A failed check returns passed=False with the offending spectrum
    attached; nothing is raised.
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    tol = TOL.structural if tolerance is None else tolerance
    q = spectrum_of(state)
    s_inf = renyi_entropy(q, INF)
    margins = tuple(renyi_entropy(q, a) - s_inf for a in alphas)
    s_beta = renyi_entropy(q, beta)
    beta_margin = s_inf - (beta - 1.0) / beta * s_beta
    ok = all(m >= -tol for m in margins) and beta_margin >= -tol
    return OrderingReport(
        alphas=tuple(alphas),
        beta=beta,
        s_inf=s_inf,
        alpha_margins=margins,
        beta_margin=beta_margin,
        tolerance=tol,
        passed=ok,
        spectrum=() if ok else tuple(float(v) for v in q),
    )
