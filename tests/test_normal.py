"""Normal CDF/quantile against quadrature and bisection oracles.

Interval correctness rests on these functions, so they are validated to
1e-12 against independent computations rather than trusted.
"""

import numpy as np
from scipy.integrate import quad

from plugmc import norm_cdf, norm_pdf, norm_ppf, z_quantile


def cdf_by_quadrature(x: float) -> float:
    # integrate the density from 0 and add 1/2; avoids the infinite tail
    val, err = quad(norm_pdf, 0.0, abs(x), epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return 0.5 + val if x >= 0 else 0.5 - val


def ppf_by_bisection(q: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_matches_quadrature_to_1e12():
    for x in [-6.0, -3.2, -1.0, -0.1, 0.0, 0.3, 1.0, 1.959964, 2.5, 4.0, 7.0]:
        assert abs(norm_cdf(x) - cdf_by_quadrature(x)) < 1e-12


def test_ppf_matches_bisection_to_1e12():
    # bisection on the CDF resolves the lower tail and the center sharply;
    # the far upper tail is covered by the symmetry test below
    for q in [1e-6, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975]:
        assert abs(norm_ppf(q) - ppf_by_bisection(q)) < 1e-12


def test_ppf_symmetry():
    # upper-tail arguments 1 - q are float-rounded, which moves the exact
    # answer by ~q-relative-ulp / density; 1e-11 absorbs that at q = 1e-6
    for q in [1e-6, 0.01, 0.025, 0.2]:
        assert abs(norm_ppf(1.0 - q) + norm_ppf(q)) < 1e-11


def test_ppf_inverts_cdf():
    x = np.linspace(-5, 5, 41)
    assert np.max(np.abs(norm_ppf(norm_cdf(x)) - x)) < 1e-9


def test_two_sided_quantile_05():
    # frozen from the bisection oracle
    assert abs(z_quantile(0.05) - 1.959963984540054) < 1e-12


def test_quantile_rejects_bad_alpha():
    import pytest

    with pytest.raises(ValueError):
        z_quantile(0.0)
    with pytest.raises(ValueError):
        z_quantile(1.5)
    with pytest.raises(ValueError, match="finite"):
        z_quantile(1e-300)  # 1 - alpha / 2 rounds to 1, where z is infinite
