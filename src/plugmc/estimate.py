"""Parameter estimation from discretely observed small-noise diffusions.

The contrast is the Gaussian quasi-likelihood built from one-step
increments,

    M_n(theta) = sum_k [ (DX_k - a(X_{k-1}, theta) dt)^2
                         / (eps^2 dt btilde^2(X_{k-1}, theta))
                         + log btilde^2(X_{k-1}, theta) ],

where btilde = b / eps is the diffusion coefficient with the known
structural noise scale eps divided out, and dt = T/n.  The contrast, its
gradient and the information matrix all read the model's one fused
`coefficients` call.  Under eps -> 0, n -> infinity the
minimizer converges at rate eps for drift parameters and 1/sqrt(n) for
diffusion parameters, with the information matrix computed along the
noise-free limit path.

For geometric Brownian dynamics the minimizer has a closed form
(`bs_closed_form`), which the generic Newton solver must match to
1e-10 — that equivalence is the main oracle for this module.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .inference import central_difference
from .models import JumpDiffusionModel
from .simulate import Path, TimeGrid

Array = np.ndarray

__all__ = [
    "Observations",
    "EstimatorResult",
    "contrast",
    "contrast_gradient",
    "contrast_rates",
    "minimize_contrast",
    "bs_closed_form",
    "fisher_info",
    "deterministic_path",
]

GRAD_TOL = 1e-8
MAX_SWEEPS = 100


@dataclass(frozen=True)
class Observations:
    """Discrete samples X_{t_k}, k = 0..n, with known noise scale eps: the
    model's epsilon, where a model is given (the contrast route refuses
    another), and the scale bs_closed_form divides out."""

    grid: TimeGrid
    samples: Array
    eps: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.steps + 1,):
            raise ValueError(
                f"expected {self.grid.steps + 1} samples, got {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("observations contain non-finite values")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class EstimatorResult:
    theta: Array
    rates: Array  # diagonal of Gamma_n, see contrast_rates
    info: Array | None  # estimated information matrix, PSD
    converged: bool
    contrast_value: float | None = None  # filled by minimize_contrast
    n_iter: int = 0


def _unit_coefficients(model: JumpDiffusionModel, x: Array, theta: Array):
    """(a, btilde, a_theta, btilde_theta) at the states x.

    btilde = b / eps, broadcast to the shape of x; btilde_theta is the
    theta-gradient b_theta / eps, entry by entry.  eps must be > 0.
    """
    eps = model.epsilon
    if eps == 0:
        raise ValueError(f"{model.name}: epsilon must be > 0 to estimate, got {eps}")
    a, b, _, _, a_th, b_th = model.coefficients(x, theta)[:6]
    return a, np.broadcast_to(b / eps, x.shape), a_th, tuple(g / eps for g in b_th)


def _prepare(obs: Observations, theta, model: JumpDiffusionModel):
    if obs.eps != model.epsilon:
        raise ValueError(
            f"{model.name}: observations carry eps = {obs.eps}, not the model's {model.epsilon}"
        )
    theta = np.asarray(theta, dtype=float)
    x_prev = obs.samples[:-1]
    dx = np.diff(obs.samples)
    a, btilde, a_th, b_dot = _unit_coefficients(model, x_prev, theta)
    if np.any(btilde == 0) or not np.all(np.isfinite(btilde)):
        raise ValueError("diffusion coefficient vanishes at an observed state")
    resid = dx - a * obs.grid.dt
    return resid, btilde, a_th, b_dot


def contrast(obs: Observations, theta, model: JumpDiffusionModel) -> float:
    resid, btilde, _, _ = _prepare(obs, theta, model)
    quad = resid**2 / (model.epsilon**2 * obs.grid.dt * btilde**2)
    return float(np.sum(quad + np.log(btilde**2)))


def contrast_gradient(obs: Observations, theta, model: JumpDiffusionModel) -> Array:
    """Analytic gradient of the contrast (closed-form coefficient derivatives)."""
    resid, btilde, a_th, b_dot = _prepare(obs, theta, model)
    dt = obs.grid.dt
    w = model.epsilon**2 * dt
    drift_weight = -2.0 * (resid / (w * btilde**2))
    diff_weight = -2.0 * resid**2 / (w * btilde**3) + 2.0 / btilde
    terms = zip(a_th, b_dot)
    return np.array([np.sum(drift_weight * a_j * dt + diff_weight * b_j) for a_j, b_j in terms])


def contrast_rates(eps: float, n: int, p: int) -> Array:
    """Per-coordinate rates of the contrast minimizer, [eps, 1/sqrt(n)] +
    [eps] * (p - 2): the second coordinate is the diffusion parameter, the
    others enter the drift or the jumps."""
    return np.array([eps, 1.0 / np.sqrt(n)] + [eps] * (p - 2))


def minimize_contrast(
    obs: Observations, model: JumpDiffusionModel, init
) -> EstimatorResult:
    """Coordinate-wise Newton descent of the contrast with box projection.

    Curvatures come from central differences of the analytic gradient; a
    coordinate with non-positive curvature keeps its incumbent value.
    Convergence means gradient norm below 1e-8; the converged flag is left
    False after 100 sweeps and the caller decides.
    """
    theta = model.require_theta(init).copy()
    box = model.param_box
    converged = False
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        moved = 0.0
        for j in range(model.p):
            # minimize the j-th coordinate with inner Newton steps; a
            # non-positive curvature keeps the incumbent value
            for _ in range(30):
                g = contrast_gradient(obs, theta, model)[j]
                if abs(g) < 0.1 * GRAD_TOL:
                    break
                curv = central_difference(lambda t: contrast_gradient(obs, t, model)[j], theta, j)
                if not np.isfinite(curv) or curv <= 0:
                    break
                new = np.clip(theta[j] - g / curv, box[j, 0], box[j, 1])
                step = abs(new - theta[j])
                theta[j] = new
                moved = max(moved, step)
                if step < 1e-14 * max(1.0, abs(new)):
                    break
        grad_norm = float(np.linalg.norm(contrast_gradient(obs, theta, model)))
        if grad_norm < GRAD_TOL:
            converged = True
            break
        if moved == 0.0:
            break
    info = None
    with contextlib.suppress(ValueError):
        info = fisher_info(model, theta, deterministic_path(model, theta, obs.grid))
    return EstimatorResult(
        theta=theta,
        rates=contrast_rates(model.epsilon, obs.grid.steps, model.p),
        info=info,
        converged=converged,
        contrast_value=contrast(obs, theta, model),
        n_iter=sweeps,
    )


def bs_closed_form(obs: Observations) -> EstimatorResult:
    """Explicit contrast minimizer for geometric Brownian dynamics.

        mu_hat       = (1/T) sum_k DX_k / X_{t_{k-1}}
        sigma_hat^2  = sum_k (DX_k - mu_hat dt X_{t_{k-1}})^2 / X_{t_{k-1}}^2
                       / (eps^2 T)

    Requires strictly positive samples.  The returned theta is
    (mu_hat, sigma_hat); the information matrix is fisher_info's at theta
    in closed form, diag(T / sigma_hat^2, 2 / sigma_hat^2) (None when
    sigma_hat = 0).
    """
    x = obs.samples
    if np.any(x <= 0):
        raise ValueError("closed-form estimator requires strictly positive samples")
    horizon = obs.grid.horizon
    x_prev = x[:-1]
    dx = np.diff(x)
    ratio = dx / x_prev
    mu_hat = float(np.sum(ratio)) / horizon
    resid = dx - mu_hat * obs.grid.dt * x_prev
    sigma_sq = float(np.sum(resid**2 / x_prev**2)) / (obs.eps**2 * horizon)
    sigma_hat = float(np.sqrt(sigma_sq))
    info = None
    if sigma_hat > 0:
        info = np.diag([horizon * sigma_hat**-2, 2.0 * sigma_hat**-2])
    return EstimatorResult(
        theta=np.array([mu_hat, sigma_hat]),
        rates=contrast_rates(obs.eps, obs.grid.steps, 2),
        info=info,
        converged=True,
    )


def deterministic_path(model: JumpDiffusionModel, theta, grid: TimeGrid) -> Path:
    """Noise-free limit path: Euler iterates of dX = a(X, theta) dt.

    A table model steps in floats through LinearTable.drift, with the
    arithmetic of its coefficients; any other model calls coefficients
    once per step."""
    theta = np.asarray(theta, dtype=float)
    if model.table is None:
        def drift(v):
            return float(model.coefficients(v, theta)[0])
    else:
        drift = model.table.drift(theta)
    x = [float(model.initial(theta))]
    dt = grid.dt
    for _ in range(grid.steps):
        x.append(x[-1] + drift(x[-1]) * dt)
    x = np.array(x)
    if not np.all(np.isfinite(x)):
        raise ValueError("limit ODE path is non-finite")
    return Path(grid=grid, values=x)


def fisher_info(model: JumpDiffusionModel, theta, driver: Path) -> Array:
    """Information matrix of the contrast along the noise-free limit path.

    The full p x p matrix

        I = int_0^T a_theta a_theta^T / btilde^2 ds
            + (2 / T) int_0^T btilde_theta btilde_theta^T / btilde^2 ds,

    integrated by the trapezoid rule over the driver path.
    Each block is in the units of its rate: eps for drift parameters,
    whose information grows with the horizon, and 1/sqrt(n) for diffusion
    parameters, whose n increments carry the same information whatever
    the horizon, hence the time average.  For bs this is
    diag(T / sigma^2, 2 / sigma^2).
    Parameters whose gradients are linearly dependent along the path (two
    parameters entering the drift identically, say) give a singular matrix;
    `inference.information_inverse` names them.
    """
    theta = np.asarray(theta, dtype=float)
    x = driver.values
    t = driver.grid.times()
    horizon = driver.grid.horizon
    _, btilde, a_th, b_dot = _unit_coefficients(model, x, theta)
    if np.any(btilde == 0):
        raise ValueError("diffusion coefficient vanishes along the driver path")
    drift = np.array([g / btilde for g in a_th])  # (p, steps + 1)
    diff = np.array([2.0 * g / btilde for g in b_dot])
    return (
        np.trapezoid(drift[:, None] * drift, t)
        + 0.5 * np.trapezoid(diff[:, None] * diff, t) / horizon
    )
