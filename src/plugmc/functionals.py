"""Path functionals and their pathwise gradient rules.

A functional maps a path to the scalar h = payoff(reducer(path)), where
the reducer is one of: terminal value, time average, or discounted
integral of the path.  Its pathwise gradient combines the payoff
derivative with the matching reduction of the sensitivity path:

    G = payoff'(X_*) * Ytilde,
    Ytilde = Y_T | time-average of Y | int e^{-delta t} Y dt.

Averaging G over simulated (X, Y) pairs estimates the correction vector
C(theta) that drives the plug-in error variance.

The European call payoff is handled through a smooth approximation

    phi(x) = e^{-rT}/2 * (sqrt((x-K)^2 + d^2) + x - K),

which sandwiches the discounted hockey stick within e^{-rT} d / 2
uniformly in x, so the smoothing width d trades bias against the kink
at a known rate.  All grid integrals use the trapezoid rule; a batch
gets its weights (Functional.weights) and keeps one weighted path sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import BatchResult, TimeGrid

Array = np.ndarray

KINDS = (
    "terminal",
    "time_average",
    "discounted_integral",
    "smoothed_call_terminal",
    "smoothed_call_average",
)
_TERMINAL = ("terminal", "smoothed_call_terminal")
_AVERAGE = ("time_average", "smoothed_call_average")

__all__ = [
    "Functional",
    "KINDS",
    "smoothed_call",
    "smoothed_call_deriv",
]


def smoothed_call(x, strike: float, eps_smooth: float, rate: float, horizon: float):
    """Smooth discounted call payoff; exact as eps_smooth -> 0."""
    x = np.asarray(x, dtype=float)
    d = x - strike
    # numpy's power, the same float as Python's, overflows to inf, not an OverflowError
    return 0.5 * np.exp(-rate * horizon) * (np.sqrt(d * d + np.float64(eps_smooth) ** 2) + d)


def smoothed_call_deriv(x, strike: float, eps_smooth: float, rate: float, horizon: float):
    x = np.asarray(x, dtype=float)
    d = x - strike
    if eps_smooth == 0.0:
        # sgn convention: 0 exactly at the kink, fixed for determinism
        return 0.5 * np.exp(-rate * horizon) * (np.sign(d) + 1.0)
    width_sq = np.float64(eps_smooth) ** 2
    return 0.5 * np.exp(-rate * horizon) * (d / np.sqrt(d * d + width_sq) + 1.0)


@dataclass(frozen=True)
class Functional:
    """A payoff/evaluation rule h on paths plus its pathwise gradient rule.

    kind       : one of KINDS
    horizon    : T, the time span the rule needs the path to cover
    strike, rate, eps_smooth : call-payoff constants (smoothed kinds)
    discount   : delta in the discounted integral int e^{-delta t} X_t dt
    """

    kind: str
    horizon: float
    strike: float = 0.0
    rate: float = 0.0
    eps_smooth: float = 0.0
    discount: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        for name in ("horizon", "strike", "rate", "eps_smooth", "discount"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        # the closed forms' domain of strike and discount (ou_discounted_value
        # also rejects a discount of 0, which it divides by)
        call, discounted = self.kind.startswith("smoothed_call"), self.kind == "discounted_integral"
        for name, read in (("strike", call), ("eps_smooth", call), ("discount", discounted)):
            if read and getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not call:
            return
        # the payoff squares x - strike and eps_smooth, and scales by e^{-rT}
        with np.errstate(over="ignore"):
            square = self.strike * self.strike + np.float64(self.eps_smooth) ** 2
            discount_factor = np.exp(-self.rate * self.horizon)
        if not np.isfinite(square):
            raise ValueError(
                f"strike and eps_smooth must have a finite sum of squares, got "
                f"{self.strike} and {self.eps_smooth}"
            )
        if not 0 < discount_factor < np.inf:
            raise ValueError(
                f"rate must give a finite, positive discount factor e^(-rT), got "
                f"rate {self.rate} with horizon {self.horizon}"
            )

    # -- payoff phi and its derivative on the reduced scalar ---------------

    def payoff(self, x_star):
        if self.kind in ("terminal", "time_average", "discounted_integral"):
            return np.asarray(x_star, dtype=float)
        return smoothed_call(x_star, self.strike, self.eps_smooth, self.rate, self.horizon)

    def payoff_deriv(self, x_star):
        if self.kind in ("terminal", "time_average", "discounted_integral"):
            return np.ones_like(np.asarray(x_star, dtype=float))
        return smoothed_call_deriv(
            x_star, self.strike, self.eps_smooth, self.rate, self.horizon
        )

    # -- reductions on a batch's terminal values and path sums ------------

    def weights(self, grid: TimeGrid) -> Array | None:
        """Trapezoid weights of the batch path sum (None for terminal kinds).

        The grid must span [0, horizon]; e^{-delta t_k} weighs the discounted
        integral, and the averages divide the sum by the horizon.
        """
        if abs(grid.horizon - self.horizon) > 1e-9:
            raise ValueError(
                f"batch grid horizon {grid.horizon} must equal functional horizon "
                f"{self.horizon}"
            )
        if self.kind in _TERMINAL:
            return None
        w = np.full(grid.steps + 1, grid.dt)
        w[[0, -1]] = 0.5 * grid.dt
        if self.kind == "discounted_integral":
            w = np.exp(-self.discount * grid.times()) * w
        return w

    def values_from_batch(self, res: BatchResult) -> Array:
        return self.payoff(self._from_batch(res.x_terminal, res.x_sum))

    def gradients_from_batch(self, res: BatchResult) -> Array:
        """Per-path pathwise gradients, shape (B, p)."""
        phi_prime = self.payoff_deriv(self._from_batch(res.x_terminal, res.x_sum))
        return phi_prime[:, None] * self._from_batch(res.y_terminal, res.y_sum)

    def _from_batch(self, terminal: Array, weighted_sum: Array) -> Array:
        """The reduction (X_* or Ytilde) from a batch's terminal value and sum."""
        if self.kind in _TERMINAL:
            return terminal
        if self.kind in _AVERAGE:
            return weighted_sum / self.horizon
        return weighted_sum

