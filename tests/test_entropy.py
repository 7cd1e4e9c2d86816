"""Renyi entropies and the ordering relations between them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.entropy import (
    INF,
    check_renyi_ordering,
    clean_spectrum,
    renyi_entropy,
    spectrum_of,
)


def test_clean_spectrum_clamps_and_validates():
    out = clean_spectrum(np.array([0.5, 0.5, -1e-12]))
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        clean_spectrum(np.array([0.9, -0.1, 0.2]))
    with pytest.raises(ValueError):
        clean_spectrum(np.array([0.4, 0.4]))


def test_maximally_mixed_all_orders():
    p = np.full(8, 1.0 / 8)
    for a in (0.0, 0.5, 1.0, 2.0, 5.0, INF):
        assert renyi_entropy(p, a) == pytest.approx(math.log(8), abs=1e-12)


def test_pure_spectrum_zero_entropy():
    p = np.array([1.0, 0.0, 0.0])
    for a in (0.0, 1.0, 2.0, INF):
        assert renyi_entropy(p, a) == pytest.approx(0.0, abs=1e-12)


def test_order_zero_counts_support():
    p = np.array([0.7, 0.3, 0.0, 0.0])
    assert renyi_entropy(p, 0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_two_point_closed_forms():
    p, q = 0.7, 0.3
    spec = np.array([p, q])
    assert renyi_entropy(spec, 1.0) == pytest.approx(-p * math.log(p) - q * math.log(q), abs=1e-12)
    assert renyi_entropy(spec, 2.0) == pytest.approx(-math.log(p * p + q * q), abs=1e-12)
    assert renyi_entropy(spec, INF) == pytest.approx(-math.log(p), abs=1e-12)


def test_spectrum_of_accepts_matrix():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.allclose(sorted(spectrum_of(rho)), [0.25, 0.75])


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        renyi_entropy(np.array([1.0]), -1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=24))
def test_ordering_property(raw):
    """S_alpha >= S_inf and ((beta-1)/beta) S_beta <= S_inf for beta > 1."""
    p = np.array(raw)
    p /= p.sum()
    for beta in (1.5, 2.0, 4.0):
        rep = check_renyi_ordering(p, beta=beta)
        assert rep.passed, (rep.alpha_margins, rep.beta_margin)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=16))
def test_monotone_property(raw):
    p = np.array(raw)
    p /= p.sum()
    # S_alpha is non-increasing in the order alpha
    vals = [renyi_entropy(p, a) for a in (0.5, 1.0, 1.5, 2.0, 3.0, 8.0, INF)]
    assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))


def test_ordering_report_fields():
    rep = check_renyi_ordering(np.array([0.6, 0.4]), beta=2.0)
    assert rep.beta == 2.0
    assert rep.s_inf == pytest.approx(-math.log(0.6))
    assert min(rep.alpha_margins) >= -rep.tolerance
