"""Payoff rules, smoothing sandwich, pathwise gradients, batch agreement."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from plugmc import (
    Functional,
    TimeGrid,
    sample_noise,
    simulate_batch,
    smoothed_call,
    smoothed_call_deriv,
    path_seed,
)

from conftest import RATE, STRIKE, make_path
from oracles import eval_functional, pathwise_gradient

DISC = np.exp(-RATE * 1.0)


def test_smoothed_call_at_kink():
    eps = 1e-3
    assert smoothed_call(STRIKE, STRIKE, eps, RATE, 1.0) == pytest.approx(DISC * eps / 2)
    assert smoothed_call_deriv(STRIKE, STRIKE, eps, RATE, 1.0) == pytest.approx(DISC / 2)


def test_smoothed_call_away_from_kink():
    # at x = 2K the smooth value exceeds the kink payoff by <= eps^2/(2(x-K))
    eps = 1e-3
    x = 2 * STRIKE
    gap = smoothed_call(x, STRIKE, eps, RATE, 1.0) - DISC * (x - STRIKE)
    assert 0 < gap < DISC * eps**2 / (2 * (x - STRIKE)) * 1.001


def test_smoothing_sandwich():
    # 0 <= smooth - discounted hockey stick <= e^{-rT} eps / 2 for all x
    eps = 0.37
    x = np.linspace(-3, 5, 2001)
    hockey = DISC * np.maximum(x - STRIKE, 0.0)
    diff = smoothed_call(x, STRIKE, eps, RATE, 1.0) - hockey
    assert np.all(diff >= -1e-15)
    assert np.all(diff <= DISC * eps / 2 + 1e-15)


def test_smoothed_deriv_sign_convention_at_zero_width():
    vals = smoothed_call_deriv(
        np.array([STRIKE - 1, STRIKE, STRIKE + 1]), STRIKE, 0.0, RATE, 1.0
    )
    assert np.allclose(vals, [0.0, DISC / 2, DISC])


def test_payoff_deriv_matches_finite_difference():
    f = Functional(
        kind="smoothed_call_terminal", horizon=1.0, strike=STRIKE, rate=RATE,
        eps_smooth=1e-3 * STRIKE,
    )
    # probes where the derivative is not vanishingly small; the FD of a
    # ~1e-7 derivative is cancellation-limited in double precision
    xs = np.linspace(STRIKE - 0.2, STRIKE + 1.0, 20)
    h = 1e-6
    fd = (f.payoff(xs + h) - f.payoff(xs - h)) / (2 * h)
    rel = np.abs(f.payoff_deriv(xs) - fd) / np.abs(fd)
    assert np.max(rel) < 1e-6
    # and scale-relative agreement everywhere, including deep tails
    wide = np.linspace(0.05, 3.0, 100)
    fd_w = (f.payoff(wide + h) - f.payoff(wide - h)) / (2 * h)
    assert np.max(np.abs(f.payoff_deriv(wide) - fd_w)) / DISC < 1e-9


def test_terminal_identity_on_constant_path():
    f = Functional(kind="terminal", horizon=1.0)
    assert eval_functional(f, make_path(np.ones(11))) == 1.0


def test_time_average_of_linear_path():
    f = Functional(kind="time_average", horizon=1.0)
    n = 200
    path = make_path(np.linspace(0, 1, n + 1))
    # trapezoid integrates X_t = t exactly
    assert eval_functional(f, path) == pytest.approx(0.5, abs=1e-12)


def test_discounted_integral_against_quadrature():
    # deterministic path X_t = e^{0.3 t}; compare to adaptive quadrature
    delta = 0.05
    f = Functional(kind="discounted_integral", horizon=1.0, discount=delta)
    n = 400
    t = np.linspace(0, 1, n + 1)
    path = make_path(np.exp(0.3 * t))
    target, _ = quad(lambda s: np.exp(-delta * s) * np.exp(0.3 * s), 0, 1)
    assert eval_functional(f, path) == pytest.approx(target, abs=1e-5)


def test_eval_linearity():
    f = Functional(kind="time_average", horizon=1.0)
    rng = np.random.default_rng(3)
    a = rng.normal(size=51)
    b = rng.normal(size=51)
    lhs = eval_functional(f, make_path(2 * a + 3 * b))
    rhs = 2 * eval_functional(f, make_path(a)) + 3 * eval_functional(f, make_path(b))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_grid_shorter_than_horizon_rejected():
    f = Functional(kind="terminal", horizon=2.0)
    with pytest.raises(ValueError, match="covers"):
        eval_functional(f, make_path(np.ones(11), horizon=1.0))


def test_gradient_zero_when_y_zero():
    f = Functional(kind="smoothed_call_terminal", horizon=1.0, strike=STRIKE, rate=RATE,
                   eps_smooth=1e-3)
    path = make_path(np.linspace(1, 2, 21))
    g = pathwise_gradient(f, path, np.zeros((21, 2)))
    assert np.all(g == 0.0)


def test_gradient_terminal_identity_is_y_terminal():
    f = Functional(kind="terminal", horizon=1.0)
    rng = np.random.default_rng(4)
    y = rng.normal(size=(21, 3))
    g = pathwise_gradient(f, make_path(np.ones(21)), y)
    assert np.allclose(g, y[-1])


def test_gradient_smoothed_zero_width_limit():
    # eps -> 0: G = e^{-rT} (sgn(X_T - K) + 1) Y_T / 2
    f = Functional(kind="smoothed_call_terminal", horizon=1.0, strike=STRIKE,
                   rate=RATE, eps_smooth=0.0)
    y = np.ones((11, 2))
    g_itm = pathwise_gradient(f, make_path(np.full(11, 2.0)), y)
    assert np.allclose(g_itm, DISC * np.ones(2))
    g_otm = pathwise_gradient(f, make_path(np.full(11, 0.1)), y)
    assert np.allclose(g_otm, 0.0)
    g_at = pathwise_gradient(f, make_path(np.full(11, STRIKE)), y)
    assert np.allclose(g_at, DISC / 2 * np.ones(2))


def test_gradient_shape_mismatch_rejected():
    f = Functional(kind="terminal", horizon=1.0)
    with pytest.raises(ValueError, match="shape"):
        pathwise_gradient(f, make_path(np.ones(11)), np.zeros((10, 2)))


def test_average_call_applies_payoff_to_time_average():
    # averaged-strike payoff evaluated on a deterministic sawtooth path
    f = Functional(kind="smoothed_call_average", horizon=1.0, strike=STRIKE,
                   rate=RATE, eps_smooth=1e-3)
    t = np.linspace(0, 1, 201)
    values = 1.0 + 0.3 * np.abs(np.sin(4 * np.pi * t))
    path = make_path(values)
    x_bar = np.trapezoid(values, t)  # horizon 1
    expected = smoothed_call(x_bar, STRIKE, 1e-3, RATE, 1.0)
    assert eval_functional(f, path) == pytest.approx(float(expected), rel=1e-12)
    # gradient rule applies the payoff slope at the average to the averaged y
    y = np.column_stack([t, np.cos(t)])
    g = pathwise_gradient(f, path, y)
    y_bar = np.trapezoid(y, t, axis=0)
    slope = smoothed_call_deriv(x_bar, STRIKE, 1e-3, RATE, 1.0)
    assert np.allclose(g, float(slope) * y_bar, rtol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Functional(kind="lookback", horizon=1.0)


@pytest.mark.parametrize("name", ["horizon", "strike", "rate", "eps_smooth", "discount"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_constants_rejected(name, bad):
    # a NaN smoothing width used to run a whole Monte Carlo pass before
    # failing on a NaN estimate
    kwargs = {"horizon": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Functional(kind="smoothed_call_average", **kwargs)


@pytest.mark.parametrize(
    "kind, name",
    [("smoothed_call_terminal", "strike"), ("smoothed_call_average", "strike"),
     ("smoothed_call_terminal", "eps_smooth"), ("discounted_integral", "discount")],
)
def test_negative_constants_rejected(kind, name):
    # the domains of bs_call_closed_form's strike and ou_discounted_value's
    # discount; a negative one used to be accepted here and priced
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1.0"):
        Functional(kind=kind, horizon=1.0, **{name: -1.0})


@pytest.mark.parametrize("kind", ["smoothed_call_terminal", "smoothed_call_average"])
def test_huge_call_constants_rejected(kind):
    # each used to be accepted and give a non-finite H after every path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, message in [
            ({"strike": 1e308}, "strike and eps_smooth must have a finite sum of squares"),
            ({"eps_smooth": 1e200}, "strike and eps_smooth must have a finite sum of squares"),
            ({"strike": 1e154, "eps_smooth": 1e154}, "finite sum of squares"),
            ({"rate": -1e308}, "rate must give a finite, positive discount factor"),
            ({"rate": 800.0}, "rate must give a finite, positive discount factor"),
            ({"rate": 1e200, "horizon": 1e200}, "rate must give a finite, positive discount"),
        ]:
            with pytest.raises(ValueError, match=message):
                Functional(kind=kind, **{"horizon": 1.0, **args})
        Functional(kind=kind, horizon=1.0, strike=1e154, eps_smooth=1e153, rate=-700.0)
    # kinds that do not read the call constants do not check them
    Functional(kind="terminal", horizon=1.0, strike=1e308, rate=-1e308)


def test_batch_weights_are_the_trapezoid_rule():
    grid = TimeGrid(2.0, 4)
    assert Functional(kind="terminal", horizon=2.0).weights(grid) is None
    trapezoid = [0.25, 0.5, 0.5, 0.5, 0.25]
    for kind in ("time_average", "smoothed_call_average"):
        assert Functional(kind=kind, horizon=2.0).weights(grid).tolist() == trapezoid
    f = Functional(kind="discounted_integral", horizon=2.0, discount=0.3)
    assert np.allclose(f.weights(grid), np.exp(-0.3 * grid.times()) * trapezoid, rtol=1e-15)


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("terminal", {}),
        ("time_average", {}),
        ("discounted_integral", {"discount": 0.05}),
        ("smoothed_call_terminal", {"strike": STRIKE, "rate": RATE, "eps_smooth": 1e-3}),
        ("smoothed_call_average", {"strike": STRIKE, "rate": RATE, "eps_smooth": 1e-3}),
    ],
)
def test_batch_reductions_match_path_evaluations(ou_model, kind, kwargs):
    # streaming accumulators agree with recorded-path evaluation per path
    f = Functional(kind=kind, horizon=1.0, **kwargs)
    grid = TimeGrid(1.0, 60)
    res = simulate_batch(
        ou_model, ou_model.theta0, grid, 71, 6, want_y=True, weights=f.weights(grid)
    )
    h_batch = f.values_from_batch(res)
    g_batch = f.gradients_from_batch(res)
    from plugmc import coupled_paths

    for i in range(6):
        b = sample_noise(grid, ou_model.jump, path_seed(71, i))
        cp = coupled_paths(ou_model, ou_model.theta0, b)
        path = make_path(cp.x)
        assert h_batch[i] == pytest.approx(eval_functional(f, path), rel=1e-10)
        assert np.allclose(g_batch[i], pathwise_gradient(f, path, cp.y), rtol=1e-10)
