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
- the hand-written coefficient tuples of the built-in models are those
  the models had before they were built from their linear tables; the
  table-built ones must give their values bit for bit;
- reference_step_block is the Euler stepper as it was before the
  stepper skipped terms and reused buffers, one new array per
  operation, stepping every model through its coefficients; a user
  model's step must give its floats bit for bit, a built-in's, which
  steps from its table, within rounding;
- complex_step_terminal runs the Euler iterates of X alone in complex
  arithmetic at theta + i h e_j, in the stepper's order for the model
  (for ou and levy its weighted sums of the increments), whose imaginary
  part over h is the derivative the package's Y steps, free of
  cancellation;
- the coupling-order study measures X^{theta+u} - X^theta - u.Y from two
  recorded batches on the same seeds, (X, Y) at theta and X alone at
  theta + u.  On shared noise it is small pathwise (order |u|^2 in sup
  norm), so the log-log slope of its p-th moment is 2p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from plugmc.functionals import _AVERAGE, _TERMINAL, Functional
from plugmc.inference import central_difference_gradient
from plugmc.models import JumpDiffusionModel
from plugmc.simulate import (
    BatchResult,
    NoiseBundle,
    Path,
    SimulationBlowup,
    TimeGrid,
    simulate_batch,
)

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
# Hand-written coefficients of the built-in models
# ---------------------------------------------------------------------------


def hand_written_bs(eps: float):
    """(coefficients, jump_kernel) of bs_small_noise_model as written by hand:
    dX = mu X dt + eps sigma X dW."""

    def coefficients(x, th):
        return (th[0] * x, eps * th[1] * x, th[0], eps * th[1], (x, 0.0), (0.0, eps * x))

    return coefficients, None


def hand_written_ou(lam: float):
    """(coefficients, jump_kernel) of ou_jump_model as written by hand: the
    compensated drift -mu x + lam eta and the kernel z + eta."""

    def coefficients(x, th):
        drift = -th[0] * x + lam * th[2]
        coef = (drift, th[1], -th[0], 0.0, (-x, 0.0, lam), (0.0, 1.0, 0.0))
        if lam > 0:
            coef += (lam * th[2], 0.0, (0.0, 0.0, lam))
        return coef

    def jump_kernel(x, z, th):
        return (z + th[2], 0.0, (0.0, 0.0, 1.0))

    return coefficients, jump_kernel if lam > 0 else None


def hand_written_levy():
    """(coefficients, jump_kernel) of levy_model as written by hand: the
    compensated drift mu + eta and the kernel eta z."""

    def coefficients(x, th):
        return (
            th[0] + th[2], th[1], 0.0, 0.0, (1.0, 0.0, 1.0), (0.0, 1.0, 0.0),
            th[2], 0.0, (0.0, 0.0, 1.0),
        )

    return coefficients, lambda x, z, th: (th[2] * z, 0.0, (0.0, 0.0, z))


# ---------------------------------------------------------------------------
# Reference Euler stepper
# ---------------------------------------------------------------------------


def _pos_zero(v) -> bool:
    """v is a float +0.0, so s - v * dt is s bit for bit (dt > 0)."""
    return isinstance(v, float) and v == 0.0 and math.copysign(1.0, v) > 0


@np.errstate(over="ignore", invalid="ignore")
def reference_step_block(
    model: JumpDiffusionModel,
    theta: Array,
    grid: TimeGrid,
    increments: Array,  # (steps, m), one column per path
    jumps,  # output of _flat_jumps or None
    *,
    want_y: bool = False,
    weights: Array | None = None,  # (steps + 1,), one per grid node
    record: bool = False,
    path_offset: int = 0,
    check_steps: bool = False,
) -> BatchResult:
    """Advance a block of m paths over the full grid.

    weights adds the weighted sums x_sum (and y_sum); record=True keeps
    the full paths in x_path and y_path (small blocks only).  Raises
    SimulationBlowup at the first step where X or Y turns non-finite,
    found by a re-run with check_steps=True if the end-of-block check fails;
    numpy's overflow warnings are silenced, as that error reports them.
    """
    n, m = increments.shape
    dt = grid.dt
    p = model.p
    x = np.full(m, float(model.initial(theta)))
    has_jumps = model.has_jumps

    y = None
    if want_y:
        y0 = np.asarray(model.initial_grad(theta), dtype=float)
        y = np.repeat(y0[:, None], m, axis=1)  # (p, m)
        y_prev = np.empty_like(y)  # the two swap each step

    x_sum = y_sum = None
    if weights is not None:
        x_sum = weights[0] * x
        if y is not None:
            y_sum = weights[0] * y

    rec_x = rec_y = None
    if record:
        rec_x = np.empty((n + 1, m))
        rec_x[0] = x
        if y is not None:
            rec_y = np.empty((n + 1, p, m))
            rec_y[0] = y

    for k in range(n):
        dw = increments[k]
        x_prev = x

        coef = model.coefficients(x_prev, theta)
        a, b, a_x, b_x, a_th, b_th = coef[:6]
        x = x_prev + a * dt + b * dw
        if has_jumps:
            comp, comp_x, comp_th = coef[6:]
            x -= comp * dt

        if y is not None:
            # factored tangent step: the factor g is shared by all p rows
            g = 1.0 + a_x * dt + b_x * dw
            if has_jumps and not _pos_zero(comp_x):
                g -= comp_x * dt
            y, y_prev = y_prev, y
            np.multiply(y_prev, g, out=y)
            for j in range(p):
                y[j] += a_th[j] * dt + b_th[j] * dw
                if has_jumps and not _pos_zero(comp_th[j]):
                    y[j] -= comp_th[j] * dt

        if jumps is not None:
            paths_j, sizes_j, bounds = jumps
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                pj = paths_j[lo:hi]
                c, c_x, c_th = model.jump_kernel(x_prev[pj], sizes_j[lo:hi], theta)
                np.add.at(x, pj, c)
                if y is not None:
                    c_th_rows = np.empty((p, hi - lo))  # each entry broadcast to its row
                    for j in range(p):
                        c_th_rows[j] = c_th[j]
                    np.add.at(y, (slice(None), pj), c_x * y_prev[:, pj] + c_th_rows)

        if check_steps:
            for label, state in (("X", x), ("Y", y)):
                if state is not None and not np.isfinite(state).all():
                    finite = np.isfinite(state).reshape(-1, m).all(axis=0)
                    bad = int(np.flatnonzero(~finite)[0])
                    raise SimulationBlowup(
                        k + 1, detail=f" in {label} (path index {path_offset + bad})"
                    )

        if x_sum is not None:
            x_sum += weights[k + 1] * x
            if y_sum is not None:
                y_sum += weights[k + 1] * y

        if record:
            rec_x[k + 1] = x
            if rec_y is not None:
                rec_y[k + 1] = y

    if not check_steps and not (np.isfinite(x).all() and (y is None or np.isfinite(y).all())):
        reference_step_block(
            model, theta, grid, increments, jumps,
            want_y=want_y, path_offset=path_offset, check_steps=True,
        )

    def per_path(block):
        # (p, m) -> C-contiguous (m, p); an F-ordered array would change the
        # summation order of the reductions over paths (mean(axis=0))
        return None if block is None else np.ascontiguousarray(block.T)

    return BatchResult(
        x_terminal=x,
        x_sum=x_sum,
        y_terminal=per_path(y),
        y_sum=per_path(y_sum),
        x_path=rec_x,
        y_path=rec_y,
    )


# ---------------------------------------------------------------------------
# Complex-step derivative
# ---------------------------------------------------------------------------

# The complex step h: Im f(theta + i h e_j) / h is df/dtheta_j up to
# O(h^2) and involves no subtraction, so h can be tiny (Squire and Trapp,
# "Using complex variables to estimate derivatives of real functions",
# SIAM Review 40, 1998).
COMPLEX_STEP = 1e-30


def complex_step_terminal(
    model: JumpDiffusionModel, theta, grid: TimeGrid, increments: Array, jumps
) -> tuple[Array, Array]:
    """(Re X_T, Im X_T / h) of the Euler iterates of X, each of shape (p, m):
    row j is stepped at theta + i h e_j, so Im X_T / h is dX_T/dtheta_j.

    For each coordinate j, X alone runs in complex arithmetic at
    theta + i h e_j, in _step_block's order for the model.  A table without
    delta entries takes the weighted sums of the increments (_affine_sums);
    any other model the recursion: without a table (X_k + a dt) + b dW_k,
    minus comp dt; with one, X_k g_k + alpha dt + gamma dW_k with
    g_k = (1 + beta dt) + delta dW_k, the table's theta-scalars, each term
    left out where the table's entries are all 0.  The recursion then adds
    the step's jumps (jumps is _flat_jumps' output or None) one at a time
    from the left limit X_k.  The model's coefficients, table and
    jump_kernel are called on the complex values as they are, so they must
    be complex-analytic in x and theta (the built-ins are polynomials).
    Each row of Re X_T is X_T: a product of two imaginary parts lies below
    the rounding of the real one beside it.
    """
    n, m = increments.shape
    dt = grid.dt
    table = model.table
    x_t, dx = np.empty((model.p, m)), np.empty((model.p, m))
    for j in range(model.p):
        th = np.asarray(theta, dtype=complex)
        th[j] += 1j * COMPLEX_STEP
        if table is not None and all(d_j is None for d_j in table.delta):
            x = _affine_sums(model, th, grid, increments, jumps)
            x_t[j], dx[j] = x.real, x.imag / COMPLEX_STEP
            continue
        x = np.full(m, model.initial(th), dtype=complex)
        if table is not None:
            alpha, beta, gamma, delta = table.scalars(th)[:4]
        for k in range(n):
            x_prev, dw = x, increments[k]
            if table is None:
                coef = model.coefficients(x_prev, th)
                x = x_prev + coef[0] * dt + coef[1] * dw
                if model.has_jumps:
                    x = x - coef[6] * dt
            else:
                g = 1.0 if beta is None else 1.0 + beta * dt
                if delta is not None:
                    g = g + delta * dw
                x = x_prev * g
                if alpha is not None:
                    x = x + alpha * dt
                if gamma is not None:
                    x = x + gamma * dw
            if jumps is not None:
                paths_j, sizes_j, bounds = jumps
                pj = paths_j[bounds[k] : bounds[k + 1]]
                if pj.size:
                    c = model.jump_kernel(x_prev[pj], sizes_j[bounds[k] : bounds[k + 1]], th)[0]
                    np.add.at(x, pj, c)
        x_t[j] = x.real
        dx[j] = x.imag / COMPLEX_STEP
    return x_t, dx


def _affine_sums(model: JumpDiffusionModel, th, grid: TimeGrid, increments: Array, jumps) -> Array:
    """X_T of a table without delta entries at a complex theta, as the
    stepper's weighted sums: with g = 1 + beta dt and its powers g^e from
    one running product,

        X_T = g^n x0 + alpha dt sum_{e<n} g^e + gamma sum_i g^(n-1-i) dW_i
              + sum over jumps of g^(n-1-i) size,

    each sum over the increments taken in step order from 0 and each
    column's jumps in their order, the terms added in this order."""
    n, m = increments.shape
    dt = grid.dt
    alpha, beta, gamma = model.table.scalars(th)[:3]
    g = 1.0 if beta is None else 1.0 + beta * dt
    powers = np.multiply.accumulate(np.append(1.0, np.full(n, g)))
    x = np.full(m, powers[n] * model.initial(th))
    if alpha is not None:
        x = x + (alpha * dt) * np.add.accumulate(powers)[n - 1]
    if gamma is not None:
        total = np.zeros(m, dtype=complex)
        for i in range(n):
            total = total + powers[n - 1 - i] * increments[i]
        x = x + gamma * total
    if jumps is not None:  # none drawn, or a law without jumps
        cols, sizes, bounds = jumps
        steps = np.repeat(np.arange(n), np.diff(bounds))
        share = powers[n - 1 - steps] * model.table.jump_size(sizes, th)
        x = x + (np.bincount(cols, share.real, m) + 1j * np.bincount(cols, share.imag, m))
    return x


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
