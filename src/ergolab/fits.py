"""The least-squares line fit shared by the finite-size trend checks."""

from __future__ import annotations

import numpy as np


def fit_line(x, y) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of the least-squares line through (x, y).

    R^2 is 1 when y is flat.  Fewer than two distinct x values leave the
    line undetermined and are refused.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or not x.max() > x.min():
        raise ValueError("a line fit needs at least two distinct x values")
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
