"""Checks of the sensitivity process of a jump-diffusion model.

The parameter sensitivity Y (one coordinate per model parameter) solves a
linear-in-Y system driven by the same Brownian motion and jump measure as
X, with coefficients

    a_x(x) y + a_theta(x),   b_x(x) y + b_theta(x),   c_x(x, z) y + c_theta(x, z)

and initial value equal to the theta-gradient of the initial condition.
All of them come from the model's `coefficients` and `jump_kernel` calls,
and the Euler stepper in `simulate` advances Y with X.  On shared noise,
X^{theta+u} - X^theta - u.Y is small pathwise (order |u|^2 in sup norm);
the order check below measures it from two recorded batches on the same
seeds, (X, Y) at theta and X alone at theta + u.

For the mean-reverting jump model the system solves in closed form; that
solution, discretized on the simulation grid, is the cross-validation
oracle for the Euler-coupled route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import JumpDiffusionModel
from .simulate import NoiseBundle, TimeGrid, coupling_residual_supnorms, sup_norm_moment

Array = np.ndarray

__all__ = [
    "ou_derivative_closed_form",
    "order_check",
    "OrderCheckResult",
]


def ou_derivative_closed_form(theta, noise: NoiseBundle, x0: float) -> Array:
    """Closed-form sensitivity paths of the mean-reverting jump model.

    For theta = (mu, sigma, eta) with mu > 0 the three coordinates are

        Y1_t = -int_0^t X_s e^{-mu (t-s)} ds
        Y2_t =  int_0^t e^{-mu (t-s)} dW_s
        Y3_t =  int_0^t e^{-mu (t-s)} dN_s   (N = jump counting process)

    The eta-coordinate integrates against the jump *count*: perturbing the
    jump mean shifts every jump by the same amount, so the pathwise
    derivative weights each jump event by 1.  Equivalently, Y3 is the mean
    response (lam/mu)(1 - e^{-mu t}) plus an integral against the
    compensated count; the two terms recombine into the bare count
    integral, which is the form computed here.

    Deterministic and Brownian integrals are discretized by left-point
    sums on the bundle's grid with the exact kernel; jump events use their
    exact times.  X inside Y1 is the closed-form solution

        X_t = x0 e^{-mu t} + int_0^t e^{-mu (t-s)} (sigma dW_s + dZ_s)

    evaluated the same way, so nothing here depends on the Euler engine.
    Returns an array of shape (steps + 1, 3).
    """
    theta = np.asarray(theta, dtype=float)
    mu, sigma, eta = theta
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    grid = noise.grid
    n, dt = grid.steps, grid.dt
    decay = np.exp(-mu * dt)
    dW = noise.brownian_increments
    jump_steps = noise.jump_step_indices()

    # Per-step jump aggregates with exact-time kernels e^{-mu (t_{k+1} - tau)}.
    kern_x = np.zeros(n)  # sum of (z + eta) * kernel, feeds the X solution
    kern_n = np.zeros(n)  # sum of 1 * kernel, feeds the count integral
    if jump_steps.size:
        t_next = (jump_steps + 1) * dt
        w = np.exp(-mu * (t_next - noise.jump_times))
        np.add.at(kern_x, jump_steps, w * (noise.jump_sizes + eta))
        np.add.at(kern_n, jump_steps, w)

    y = np.zeros((n + 1, 3))
    x_prev = float(x0)
    stoch = 0.0  # int e^{-mu (t-s)} (sigma dW + dZ)
    y1 = y2 = y3 = 0.0
    for k in range(n):
        y1 = decay * (y1 - x_prev * dt)
        y2 = decay * (y2 + dW[k])
        y3 = decay * y3 + kern_n[k]
        stoch = decay * (stoch + sigma * dW[k]) + kern_x[k]
        x_prev = x0 * np.exp(-mu * (k + 1) * dt) + stoch
        y[k + 1] = (y1, y2, y3)
    return y


@dataclass(frozen=True)
class OrderCheckResult:
    direction: int
    magnitudes: Array
    moments: Array
    stderrs: Array
    slope: float


def order_check(
    model: JumpDiffusionModel,
    theta,
    grid: TimeGrid,
    direction: int,
    root_seed: int,
    n_paths: int = 200,
    exponents=range(3, 8),
    p: float = 2,
) -> OrderCheckResult:
    """Coupling-order study along one coordinate direction.

    For u = 2^{-j} e_k, estimates E || X^{theta+u} - X^theta - u.Y ||^p
    over shared noise and regresses log moment on log |u|.  When the
    pathwise coupling is second order the slope is 2p (so 4 at p = 2).
    """
    theta = np.asarray(theta, dtype=float)
    mags = np.array([2.0**-j for j in exponents])
    moments = np.empty(mags.size)
    stderrs = np.empty(mags.size)
    for i, h in enumerate(mags):
        u = np.zeros(model.p)
        u[direction] = h
        sups = coupling_residual_supnorms(model, theta, u, grid, root_seed, n_paths)
        moments[i], stderrs[i] = sup_norm_moment(sups, p)
    slope = float(np.polyfit(np.log(mags), np.log(moments), 1)[0])
    return OrderCheckResult(
        direction=direction, magnitudes=mags, moments=moments, stderrs=stderrs, slope=slope
    )

