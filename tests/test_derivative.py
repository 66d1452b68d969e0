"""Sensitivity process: coefficient forms, Y as the derivative of X, order, closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plugmc import (
    NO_JUMPS,
    TimeGrid,
    bs_small_noise_model,
    coupled_paths,
    euler_path,
    levy_model,
    ou_jump_model,
    path_seed,
    sample_noise,
)
from plugmc.models import JumpDiffusionModel
from plugmc.simulate import _draw_chunk, _flat_jumps, _step_block, simulate_batch

from conftest import EPS, THETA0, coupling_residual_sup
from oracles import complex_step_terminal, order_check, ou_derivative_closed_form
from test_stepper_bits import hand_increments, hand_jumps


def test_composition_matches_independent_expressions(bs_model):
    # the fused call returns (a, b, a_x, b_x, a_theta, b_theta) of
    # dX = mu X dt + eps sigma X dW, each written out here by hand
    mu, sigma = THETA0
    rng = np.random.default_rng(5)
    x = rng.uniform(0.2, 3.0, size=20)
    a, b, a_x, b_x, a_th, b_th = bs_model.coefficients(x, THETA0)
    assert np.array_equal(a, mu * x) and np.array_equal(b, EPS * sigma * x)
    assert a_x == mu and b_x == EPS * sigma
    assert np.array_equal(a_th[0], x) and a_th[1] == 0.0
    assert b_th[0] == 0.0 and np.array_equal(b_th[1], EPS * x)


def test_bs_system_displayed_form(bs_model):
    # Y drift a_x y + a_theta = (x + mu y1, mu y2) and diffusion
    # b_x y + b_theta = eps (sigma y1, sigma y2 + x)
    mu, sigma = THETA0
    for x, y in [(1.0, np.array([0.3, -0.7])), (2.5, np.array([0.0, 1.2]))]:
        _, _, a_x, b_x, a_th, b_th = bs_model.coefficients(x, THETA0)
        drift_y = [a_x * y[j] + a_th[j] for j in range(2)]
        diff_y = [b_x * y[j] + b_th[j] for j in range(2)]
        assert np.allclose(drift_y, [x + mu * y[0], mu * y[1]])
        assert np.allclose(diff_y, [EPS * sigma * y[0], EPS * (sigma * y[1] + x)])


def theta_free_model():
    # coefficients independent of theta and x: Y stays at initial_grad
    return JumpDiffusionModel(
        name="free",
        param_names=("a", "b"),
        initial=lambda th: 1.0,
        initial_grad=lambda th: np.array([0.4, -0.2]),
        coefficients=lambda x, th: (0.1, 0.2, 0.0, 0.0, (0.0, 0.0), (0.0, 0.0)),
        param_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        growth_const=1.0,
        theta0=np.zeros(2),
    )


def test_theta_free_model_keeps_initial_gradient():
    m = theta_free_model()
    b = sample_noise(TimeGrid(1.0, 32), NO_JUMPS, path_seed(2, 2))
    cp = coupled_paths(m, np.zeros(2), b)
    assert np.allclose(cp.y, np.tile([0.4, -0.2], (33, 1)))


def test_levy_derivative_is_time_brownian_jumpsum(levy):
    grid = TimeGrid(1.0, 100)
    b = sample_noise(grid, levy.jump, path_seed(19, 3))
    cp = coupled_paths(levy, levy.theta0, b)
    t = grid.times()
    w = np.concatenate([[0.0], np.cumsum(b.brownian_increments)])
    s = np.zeros(grid.steps + 1)
    np.add.at(s, b.jump_step_indices() + 1, b.jump_sizes)
    s = np.cumsum(s)
    assert np.max(np.abs(cp.y[:, 0] - t)) < 1e-12
    assert np.max(np.abs(cp.y[:, 1] - w)) < 1e-12
    assert np.max(np.abs(cp.y[:, 2] - s)) < 1e-12


def test_euler_y_is_derivative_of_euler_x(bs_model):
    # central difference of the Euler map in theta reproduces Euler Y to O(h^2)
    b = sample_noise(TimeGrid(1.0, 64), NO_JUMPS, path_seed(23, 1))
    h = 1e-4
    cp = coupled_paths(bs_model, THETA0, b)
    for i in range(2):
        u = np.zeros(2)
        u[i] = h
        up = euler_path(bs_model, THETA0 + u, b).values
        um = euler_path(bs_model, THETA0 - u, b).values
        fd = (up - um) / (2 * h)
        assert np.max(np.abs(fd - cp.y[:, i])) < 1e-6


PROPERTY_MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, EPS, 1.0),
    "ou": ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
}


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_MODELS)),
    unit=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_y_is_derivative_of_euler_x_at_random_theta(name, unit, seed):
    # At a random theta in the box, on one shared noise bundle, Y equals the
    # central difference in theta of the X-only Euler path.  With
    # h = 1e-5 max(1, |box|) the truncation error (h^2 times a third
    # derivative) and the rounding error (1e-16 |X| / h) stay below 1e-8 of
    # the scale of Y, so the 1e-6 relative tolerance leaves a wide margin.
    model = PROPERTY_MODELS[name]
    box = model.param_box
    h = 1e-5 * np.maximum(1.0, np.abs(box).max(axis=1))
    lo, hi = box[:, 0] + 2.0 * h, box[:, 1] - 2.0 * h
    theta = lo + np.asarray(unit[: model.p]) * (hi - lo)
    noise = sample_noise(TimeGrid(1.0, 50), model.jump, path_seed(seed, 0))
    y = coupled_paths(model, theta, noise).y
    scale = 1.0 + np.max(np.abs(y))
    for i in range(model.p):
        step = np.zeros(model.p)
        step[i] = h[i]
        up = euler_path(model, theta + step, noise).values
        down = euler_path(model, theta - step, noise).values
        fd = (up - down) / (2.0 * h[i])
        assert np.max(np.abs(fd - y[:, i])) <= 1e-6 * scale, (name, theta, i)


# ---------------------------------------------------------------------------
# Closed-form sensitivity of the mean-reverting jump model
# ---------------------------------------------------------------------------


def test_ou_closed_form_zero_at_origin(ou_model):
    b = sample_noise(TimeGrid(1.0, 50), ou_model.jump, path_seed(29, 0))
    y = ou_derivative_closed_form(ou_model.theta0, b, 1.0)
    assert np.all(y[0] == 0.0)


def test_ou_closed_form_rejects_nonpositive_mu(ou_model):
    b = sample_noise(TimeGrid(1.0, 10), ou_model.jump, path_seed(29, 1))
    with pytest.raises(ValueError):
        ou_derivative_closed_form(np.array([-1.0, 0.3, 0.5]), b, 1.0)


def test_ou_silent_noise_keeps_y3_null():
    # with no realized jumps, every coordinate of the pathwise response to
    # the jump-mean parameter is zero: there is no jump to move
    b = sample_noise(TimeGrid(1.0, 64), NO_JUMPS, path_seed(29, 2))
    y = ou_derivative_closed_form(np.array([1.0, 0.3, 0.5]), b, 1.0)
    assert np.all(y[:, 2] == 0.0)
    # eta response averaged over bundles reproduces lam/mu (1 - e^{-mu t})
    m = ou_jump_model(1.0, 0.0, 0.5, 1.0, 1.0)
    grid = TimeGrid(1.0, 64)
    vals = []
    for i in range(4000):
        bi = sample_noise(grid, m.jump, path_seed(101, i))
        vals.append(ou_derivative_closed_form(m.theta0, bi, 1.0)[-1, 2])
    vals = np.asarray(vals)
    target = (1.0 / 1.0) * (1 - np.exp(-1.0))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - target) < 3 * se + 2.0 / grid.steps


def test_ou_closed_form_cross_checks_euler_system(ou_model):
    # two independent computations agree at O(1/n) in sup-norm RMS
    theta = ou_model.theta0
    rms = {}
    for n in (128, 256, 512):
        grid = TimeGrid(1.0, n)
        diffs = []
        for i in range(60):
            b = sample_noise(grid, ou_model.jump, path_seed(37, i))
            cp = coupled_paths(ou_model, theta, b)
            ycf = ou_derivative_closed_form(theta, b, 1.0)
            diffs.append(np.max(np.abs(cp.y - ycf)))
        rms[n] = np.sqrt(np.mean(np.square(diffs)))
    assert rms[256] < rms[128]
    assert rms[512] < rms[256]
    # halving rate consistent with first order: ratio in a generous band
    assert 1.4 < rms[128] / rms[256] < 3.0
    assert 1.4 < rms[256] / rms[512] < 3.0


# ---------------------------------------------------------------------------
# Coupling order
# ---------------------------------------------------------------------------


def test_order_check_bs_slope_four(bs_model):
    grid = TimeGrid(1.0, 128)
    for direction in (0, 1):
        res = order_check(bs_model, THETA0, grid, direction, root_seed=47, n_paths=200)
        assert 3.4 < res.slope < 4.6, (direction, res.slope)


def test_order_check_ou_mu_slope_four(ou_model):
    res = order_check(
        ou_model, ou_model.theta0, TimeGrid(1.0, 128), 0, root_seed=53, n_paths=200
    )
    assert 3.4 < res.slope < 4.6, res.slope


def test_ou_affine_directions_are_exact(ou_model):
    # sigma and eta enter affinely: the coupling residual vanishes
    grid = TimeGrid(1.0, 128)
    for direction in (1, 2):
        u = np.zeros(3)
        u[direction] = 0.05
        for i in range(10):
            b = sample_noise(grid, ou_model.jump, path_seed(59, i))
            assert coupling_residual_sup(ou_model, ou_model.theta0, u, b) < 1e-10



# ---------------------------------------------------------------------------
# Complex step: Y against Im X / h, to machine precision
# ---------------------------------------------------------------------------

COMPLEX_STEP_MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, EPS, 1.0),
    "ou_lam0": ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0),
    "ou_lam2": ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
}


@pytest.mark.parametrize("noise", ["drawn", "hand_built"])
@pytest.mark.parametrize("name", sorted(COMPLEX_STEP_MODELS))
def test_y_is_complex_step_derivative_of_euler_x(name, noise):
    # Re X of the complex recursion is the stepper's X bit for bit, and
    # Y_T is Im X_T / h to rounding, with no difference quotient
    model = COMPLEX_STEP_MODELS[name]
    theta = model.theta0
    if noise == "drawn":
        # the increments and jumps simulate_batch draws for paths 0..255 of root 23
        grid, m = TimeGrid(1.0, 200), 256
        increments = np.empty((grid.steps, m))
        jumps = _flat_jumps(*_draw_chunk(path_seed(23, 0), grid, model.jump, 0, increments), grid)
        got = simulate_batch(model, theta, grid, 23, m, want_y=True)
    else:
        grid = TimeGrid(1.0, 12)
        increments = hand_increments(grid.steps, 7)
        jumps = hand_jumps(grid, 7) if model.has_jumps else None
        got = _step_block(model, theta, grid, increments, jumps, want_y=True)
    if jumps is not None:
        assert jumps[0].size > 0
    x_re, dx = complex_step_terminal(model, theta, grid, increments, jumps)
    assert all(np.array_equal(row, got.x_terminal) for row in x_re)
    y = got.y_terminal.T  # (p, m)
    assert np.max(np.abs(y - dx)) <= 1e-12 * (1.0 + np.max(np.abs(y)))
