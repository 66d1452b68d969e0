"""Standard normal CDF, density and quantile.

Built on the standard library, so the runtime needs nothing beyond numpy:
the CDF is 0.5 * erfc(-x / sqrt(2)) from `math.erfc`, and the quantile is
`statistics.NormalDist.inv_cdf`, Wichura's rational approximation AS 241
(Appl. Statist. 37, 1988), accurate to about 1e-16 relative.  Both are
applied element by element: a scalar in gives a scalar out, and an array
gives an array of the same shape.  The quantile is -inf at 0, +inf at 1
and NaN outside [0, 1] or at NaN.  The test suite validates both against
quadrature and bisection oracles at 1e-12; confidence-interval correctness
rests on them.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = ["norm_cdf", "norm_pdf", "norm_ppf", "z_quantile"]

_STANDARD = NormalDist()
_SQRT2 = math.sqrt(2.0)


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _ppf(q: float) -> float:
    if 0.0 < q < 1.0:
        return _STANDARD.inv_cdf(q)
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    return math.nan


def _elementwise(fn, x):
    arr = np.asarray(x, dtype=float)
    out = np.array([fn(v) for v in arr.ravel().tolist()], dtype=float)
    return out.reshape(arr.shape)[()]


def norm_cdf(x):
    return _elementwise(_cdf, x)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def norm_ppf(q):
    return _elementwise(_ppf, q)


def z_quantile(alpha: float) -> float:
    """Two-sided critical value z_{alpha/2} with P(|Z| > z) = alpha; alpha
    must lie in (0, 1) and be large enough for z to be finite."""
    z = _ppf(1.0 - 0.5 * alpha) if 0.0 < alpha < 1.0 else math.nan
    if not math.isfinite(z):
        raise ValueError(f"alpha must be in (0, 1) with z_(alpha/2) finite, got {alpha}")
    return z
