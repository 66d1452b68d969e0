"""Plug-in Monte Carlo estimation of expected functionals with error bars.

Given an estimated parameter, the expected functional H is estimated by
averaging the functional over seeded simulated paths.  The statistical
error of that plug-in estimate is driven by the estimator's fluctuation
through the correction vector

    C(theta) = E[ payoff'(X_*) Ytilde ],

estimated here by averaging pathwise gradients over coupled (X, Y)
simulations.  With estimator information I and slowest rate gamma, the
plug-in error is asymptotically normal with variance C' I^{-1} C, which
yields the confidence interval

    H_hat -+ z_{alpha/2} * gamma * sqrt(C' I^{-1} C).

When a parameter coordinate converges strictly faster than the slowest
rate, its contribution degenerates to zero and is masked out of the
quadratic form.  When H is known in closed form, C must equal its
gradient; the mean-reverting oracle (experiments.run_ou_oracle) reports
C against a central-difference gradient of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import Functional
from .models import JumpDiffusionModel
from .normal import norm_cdf, z_quantile
from .simulate import TimeGrid, simulate_batch

Array = np.ndarray

__all__ = [
    "InferenceReport",
    "estimate_C",
    "bs_call_closed_form",
    "ou_discounted_value",
    "asymptotic_variance",
    "confidence_interval",
    "central_difference_gradient",
    "information_inverse",
    "build_report",
]


def estimate_C(
    model: JumpDiffusionModel,
    functional: Functional,
    theta,
    n_paths: int,
    root_seed: int,
    grid: TimeGrid,
    *,
    start_index: int = 0,
) -> tuple[Array, Array, float, float] | list[tuple]:
    """Monte Carlo estimate of the correction vector C(theta).

    Averages pathwise gradients over n_paths coupled (X, Y) paths; returns
    (C, C_se), with shape (p,) each, and the plug-in (H, H_se) from the
    same paths (common random numbers).  theta is one vector, or a (k, p)
    stack of them, for which the result is a list of k such tuples, all
    from the same paths; row j's equals the tuple of theta[j] alone.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be >= 100")
    res = simulate_batch(
        model,
        theta,
        grid,
        root_seed,
        n_paths,
        start_index=start_index,
        want_y=True,
        weights=functional.weights(grid),
    )

    def moments(res):
        c_hat, c_se = _mean_se(functional.gradients_from_batch(res))  # (B, p) -> (p,)
        h, h_se = _mean_se(functional.values_from_batch(res))
        return c_hat, c_se, float(h), float(h_se)

    return [moments(r) for r in res] if isinstance(res, list) else moments(res)


def _mean_se(values: Array) -> tuple:
    """Mean over a batch's paths (axis 0) and its Monte Carlo standard error."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(len(values))


def bs_call_closed_form(
    theta, eps: float, x: float, strike: float, rate: float, horizon: float
) -> float:
    """European call price under geometric Brownian dynamics with drift mu.

    The expectation is taken under the model's own law (no change of
    measure), so the growth rate mu — not the discount rate — drives the
    log-normal mean:

        price = e^{-(r - mu) T} [ x Phi(d1) - K e^{-mu T} Phi(d2) ],
        d1 = (log(x / K) + (mu + eps^2 sigma^2 / 2) T) / (eps sigma sqrt(T)),
        d2 = d1 - eps sigma sqrt(T).

    Degenerate noise (eps sigma sqrt(T) = 0) gives the discounted
    deterministic payoff; K = 0 gives x e^{(mu - r) T}.
    """
    theta = np.asarray(theta, dtype=float)
    mu, sigma = float(theta[0]), float(theta[1])
    if strike < 0:
        raise ValueError(f"strike must be >= 0, got {strike}")
    if x <= 0 or horizon <= 0:
        raise ValueError("x and horizon must be positive")
    disc = np.exp(-rate * horizon)
    if strike == 0.0:
        return float(x * np.exp((mu - rate) * horizon))
    s = eps * sigma * np.sqrt(horizon)
    if s == 0.0:
        return float(disc * max(x * np.exp(mu * horizon) - strike, 0.0))
    d1 = (np.log(x / strike) + (mu + 0.5 * eps**2 * sigma**2) * horizon) / s
    d2 = d1 - s
    return float(
        np.exp(-(rate - mu) * horizon)
        * (x * norm_cdf(d1) - strike * np.exp(-mu * horizon) * norm_cdf(d2))
    )


def ou_discounted_value(
    mu: float, eta: float, lam: float, discount: float, horizon: float, x0: float
) -> float:
    """Closed-form discounted integral E int_0^T e^{-delta t} X_t dt for the
    mean-reverting jump model.

    From E[X_t] = x0 e^{-mu t} + (lam eta / mu)(1 - e^{-mu t}):

        H = x0 (1 - e^{-(mu+d)T}) / (mu+d)
            + (lam eta / mu) [ (1 - e^{-dT}) / d - (1 - e^{-(mu+d)T}) / (mu+d) ]

    Validated in the test suite against quadrature of the mean ODE.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if discount <= 0:
        raise ValueError(f"discount must be > 0, got {discount}")
    md = mu + discount
    first = x0 * (1.0 - np.exp(-md * horizon)) / md
    bracket = (1.0 - np.exp(-discount * horizon)) / discount - (
        1.0 - np.exp(-md * horizon)
    ) / md
    return float(first + (lam * eta / mu) * bracket)


def asymptotic_variance(c_hat, sigma, rates=None) -> float:
    """Quadratic form C' Sigma C with degenerate-rate masking.

    When per-coordinate convergence rates are supplied, only coordinates
    at the slowest rate (the largest entry) contribute; faster coordinates
    degenerate to zero in the limit and are masked out.
    """
    c = np.asarray(c_hat, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if s.shape != (c.size, c.size):
        raise ValueError(f"covariance shape {s.shape} does not match C {c.shape}")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    if np.any(np.linalg.eigvalsh(s) < -1e-10):
        raise ValueError("covariance must be positive semi-definite")
    if rates is not None:
        rates = np.asarray(rates, dtype=float)
        if rates.shape != c.shape:
            raise ValueError("rates shape does not match C")
        mask = rates >= np.max(rates) * (1.0 - 1e-12)
        c = np.where(mask, c, 0.0)
    return float(max(c @ s @ c, 0.0))


def confidence_interval(
    h_hat: float, asy_var: float, gamma_star: float, alpha: float
) -> tuple[float, float]:
    """Two-sided plug-in interval H_hat -+ z_{alpha/2} gamma sqrt(var)."""
    if asy_var < 0:
        raise ValueError("asy_var must be >= 0")
    half = z_quantile(alpha) * gamma_star * np.sqrt(asy_var)
    return (float(h_hat - half), float(h_hat + half))


def central_difference(fn, theta: Array, i: int) -> float:
    """Central difference of a scalar function of theta in coordinate i,
    with the step max(1e-6, 1e-6 |theta_i|); non-finite where fn is
    non-finite at either probe."""
    h = max(1e-6, 1e-6 * abs(theta[i]))
    tp, tm = theta.copy(), theta.copy()
    tp[i] += h
    tm[i] -= h
    return (fn(tp) - fn(tm)) / (2.0 * h)


def central_difference_gradient(h_fn, theta) -> Array:
    """Gradient of a scalar function of theta by central_difference; raises
    if a coordinate's is non-finite, as where h_fn is at either probe."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        grad[i] = central_difference(h_fn, theta, i)
        if not np.isfinite(grad[i]):
            raise ValueError(f"H is non-finite near theta (coordinate {i})")
    return grad


def information_inverse(model: JumpDiffusionModel, info) -> Array:
    """Inverse of the estimator's information matrix, the one judge of it.

    Callers invert before any Monte Carlo pass, so a matrix that is not
    the inverse of a covariance fails at once, naming the information
    matrix: one of the wrong shape, not finite, not symmetric (at the
    tolerance of asymptotic_variance) or with a negative eigenvalue.  A
    matrix singular to working precision (an eigenvalue at or below p *
    machine epsilon times the largest in size) raises a ValueError naming
    the parameters with a component in its null space, for example the
    jump mean eta of the ou model at jump intensity 0, or mu and eta of
    the levy model, which enter the drift identically; inverting it
    instead would give a variance made of rounding error.
    """
    info = np.asarray(info, dtype=float)
    if info.shape != (model.p, model.p):
        raise ValueError(
            f"information matrix must have shape ({model.p}, {model.p}), got {info.shape}"
        )
    if not np.all(np.isfinite(info)):
        raise ValueError(f"information matrix is not finite: {info.tolist()}")
    if not np.allclose(info, info.T, atol=1e-10):
        raise ValueError(f"information matrix is not symmetric: {info.tolist()}")
    w, v = np.linalg.eigh(info)
    tol = np.max(np.abs(w)) * model.p * np.finfo(float).eps
    if np.any(w < -tol):
        raise ValueError(f"information matrix is not positive definite: eigenvalues {w.tolist()}")
    null = v[:, np.abs(w) <= tol]
    if not null.shape[1]:
        return np.linalg.inv(info)
    names = [name for k, name in enumerate(model.param_names) if np.any(np.abs(null[k]) > 1e-8)]
    raise ValueError(
        f"{model.name}: singular information matrix, parameter(s) "
        f"{', '.join(names)} not identified"
    )


@dataclass(frozen=True)
class InferenceReport:
    """Plug-in estimate with its asymptotic error decomposition."""

    theta: Array
    h_hat: float
    h_se_mc: float
    c_hat: Array
    c_se: Array
    asy_var: float
    gamma_star: float
    alpha: float
    ci: tuple[float, float]

    def __post_init__(self):
        # a NaN would otherwise surface as a CI that misses its own point
        for name in ("h_hat", "c_hat", "asy_var"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"InferenceReport: {name} is not finite: {value}")
        lo, hi = self.ci
        if not (lo <= self.h_hat <= hi):
            raise ValueError("confidence interval must contain the point estimate")
        if self.asy_var < 0:
            raise ValueError("asy_var must be >= 0")

    def to_dict(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta],
            "H_hat": self.h_hat,
            "H_se_mc": self.h_se_mc,
            "C_hat": [float(v) for v in self.c_hat],
            "C_se": [float(v) for v in self.c_se],
            "asy_var": self.asy_var,
            "gamma_star": self.gamma_star,
            "alpha": self.alpha,
            "ci_low": self.ci[0],
            "ci_high": self.ci[1],
        }


def build_report(
    model: JumpDiffusionModel,
    functional: Functional,
    theta,
    rates,
    info,
    n_paths: int,
    root_seed: int,
    grid: TimeGrid,
    *,
    alpha: float = 0.05,
    start_index: int = 0,
) -> InferenceReport:
    """Assemble the plug-in report at theta.

    The correction vector is estimated from the same seeded paths as the
    plug-in mean (common random numbers): paths start_index onwards of
    root_seed.  alpha (through z_quantile), the rates (finite and > 0, one
    per parameter) and the information (by information_inverse) are
    checked before any Monte Carlo pass.
    """
    z_quantile(alpha)
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (model.p,):
        raise ValueError(f"rates must have shape ({model.p},), got {rates.shape}")
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError(f"rates must be finite and > 0, got {rates.tolist()}")
    info_inv = information_inverse(model, info)
    moments = estimate_C(
        model, functional, theta, n_paths, root_seed, grid, start_index=start_index
    )
    return report_from_moments(theta, rates, info_inv, moments, alpha)


def report_from_moments(theta, rates, info_inv, moments, alpha: float) -> InferenceReport:
    """The report at theta from estimate_C's (C, C_se, H, H_se) there, given
    rates and an information inverse checked as build_report checks them."""
    c_hat, c_se, h_hat, h_se = moments
    asy_var = asymptotic_variance(c_hat, info_inv, rates=rates)
    gamma_star = float(np.max(rates))
    ci = confidence_interval(h_hat, asy_var, gamma_star, alpha)
    return InferenceReport(
        theta=np.asarray(theta, dtype=float),
        h_hat=h_hat,
        h_se_mc=h_se,
        c_hat=c_hat,
        c_se=c_se,
        asy_var=asy_var,
        gamma_star=gamma_star,
        alpha=alpha,
        ci=ci,
    )
