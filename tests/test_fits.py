"""The shared least-squares line fit."""

import numpy as np
import pytest

from ergolab.fits import fit_line


def _reference_fit(x, y):
    # the copy each trend check used to carry
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * np.asarray(x) + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@pytest.mark.parametrize(
    "x, y",
    [
        ((6, 8, 10, 12), np.log([0.3, 0.11, 0.05, 0.017])),
        ((8, 12, 16, 20, 24), np.array([-0.9, -1.41, -1.79, -2.4, -2.81])),
        (np.array([0.25, 0.5, 0.75]), np.array([1.0, 1.0, 1.0])),
        ((6, 8), (0.9, 1.3)),
    ],
)
def test_fit_line_matches_polyfit_copy(x, y):
    assert fit_line(x, y) == _reference_fit(x, np.asarray(y, dtype=float))


def test_fit_line_flat_and_exact():
    slope, intercept, r2 = fit_line([1, 2, 3], [2.0, 2.0, 2.0])
    assert slope == pytest.approx(0.0, abs=1e-14)
    assert r2 == 1.0
    slope, intercept, r2 = fit_line([0, 1, 2], [1.0, 3.0, 5.0])
    assert (slope, intercept) == pytest.approx((2.0, 1.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [(8,), (8, 8, 8), ()])
def test_fit_line_refuses_fewer_than_two_distinct_x(x):
    with pytest.raises(ValueError, match="two distinct"):
        fit_line(x, np.zeros(len(x)))
