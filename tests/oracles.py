"""Independent reference routes that the tests compare plugmc against.

None of these runs in plugmc's commands, which take the batch
derivative-process route alone (simulate_batch, estimate_C,
build_report).  Each computes a quantity that route also gives, by
another road:

- the single-path functional reductions (check_grid, reduce,
  reduce_gradient, eval_functional, pathwise_gradient) apply the
  trapezoid rule to a recorded path, where a batch keeps one weighted
  path sum;
- the delta-method variance takes the gradient of an explicitly known H
  by central differences, where the package averages pathwise gradients;
- the closed-form sensitivity paths of the mean-reverting jump model
  solve the Y system exactly, where the package steps it with Euler;
- the coupling-order study measures X^{theta+u} - X^theta - u.Y from two
  recorded batches on the same seeds, (X, Y) at theta and X alone at
  theta + u.  On shared noise it is small pathwise (order |u|^2 in sup
  norm), so the log-log slope of its p-th moment is 2p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from plugmc.functionals import _AVERAGE, _TERMINAL, Functional
from plugmc.inference import central_difference_gradient
from plugmc.models import JumpDiffusionModel
from plugmc.simulate import NoiseBundle, Path, TimeGrid, simulate_batch

Array = np.ndarray


# ---------------------------------------------------------------------------
# Functional reductions on one recorded path
# ---------------------------------------------------------------------------


def check_grid(functional: Functional, grid: TimeGrid) -> int:
    """Index of the grid node at the functional's horizon."""
    if grid.horizon < functional.horizon - 1e-9:
        raise ValueError(
            f"path grid covers [0, {grid.horizon}], functional needs [0, {functional.horizon}]"
        )
    k = functional.horizon / grid.dt
    if abs(k - round(k)) > 1e-6:
        raise ValueError("functional horizon must land on a grid node")
    return int(round(k))


def reduce(functional: Functional, path: Path) -> float:
    """X_*: the scalar the payoff is applied to."""
    k = check_grid(functional, path.grid)
    x = path.values[: k + 1]
    t = path.grid.times()[: k + 1]
    if functional.kind in _TERMINAL:
        return float(x[-1])
    if functional.kind in _AVERAGE:
        return float(np.trapezoid(x, t) / functional.horizon)
    return float(np.trapezoid(np.exp(-functional.discount * t) * x, t))


def reduce_gradient(functional: Functional, x_path: Path, y_values: Array) -> Array:
    """Ytilde: the matching reduction of the sensitivity path, shape (p,)."""
    k = check_grid(functional, x_path.grid)
    y = y_values[: k + 1]
    t = x_path.grid.times()[: k + 1]
    if functional.kind in _TERMINAL:
        return np.asarray(y[-1], dtype=float)
    if functional.kind in _AVERAGE:
        return np.trapezoid(y, t, axis=0) / functional.horizon
    w = np.exp(-functional.discount * t)
    return np.trapezoid(w[:, None] * y, t, axis=0)


def eval_functional(functional: Functional, path: Path) -> float:
    """h(x) for one recorded path."""
    return float(functional.payoff(reduce(functional, path)))


def pathwise_gradient(functional: Functional, x_path: Path, y_values: Array) -> Array:
    """One Monte Carlo draw of the gradient G; averaging estimates C(theta)."""
    y_values = np.asarray(y_values, dtype=float)
    if y_values.ndim != 2 or y_values.shape[0] != x_path.values.shape[0]:
        raise ValueError(
            f"sensitivity path shape {y_values.shape} does not match "
            f"path length {x_path.values.shape[0]}"
        )
    x_star = reduce(functional, x_path)
    ytilde = reduce_gradient(functional, x_path, y_values)
    return float(functional.payoff_deriv(x_star)) * ytilde


# ---------------------------------------------------------------------------
# Delta method
# ---------------------------------------------------------------------------


def delta_method_variance(h_fn, theta, sigma) -> float:
    """grad H' Sigma grad H with a central-difference gradient.

    Available whenever H is an explicit function of theta; serves as the
    independent check of the derivative-process route.
    """
    grad = central_difference_gradient(h_fn, theta)
    sigma = np.asarray(sigma, dtype=float)
    return float(max(grad @ sigma @ grad, 0.0))


# ---------------------------------------------------------------------------
# Closed-form sensitivity of the mean-reverting jump model
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Coupling order
# ---------------------------------------------------------------------------


def coupling_residual_supnorms(
    model: JumpDiffusionModel, theta, u, grid: TimeGrid, root_seed: int, n_paths: int
) -> Array:
    """Sup-norm over grid nodes of X^{theta+u} - X^theta - u.Y per path.

    Two recorded batches on the same seeds: (X, Y) at theta, X at theta + u.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths for a usable moment estimate")
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    base = simulate_batch(model, theta, grid, root_seed, n_paths, want_y=True, record=True)
    shifted = simulate_batch(model, theta + u, grid, root_seed, n_paths, record=True)
    residual = shifted.x_path - base.x_path - u @ base.y_path  # (steps + 1, B)
    return np.max(np.abs(residual), axis=0)


def sup_norm_moment(residual_sup_norms: Array, p: float) -> tuple[float, float]:
    """Sample mean and standard error of the p-th power of sup-norm residuals."""
    if p not in (1, 2, 4):
        raise ValueError(f"p must be one of 1, 2, 4; got {p}")
    v = np.asarray(residual_sup_norms, dtype=float) ** p
    est = float(np.mean(v))
    se = float(np.std(v, ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return est, se


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
