"""Contrast estimation: closed-form oracle equality, Fisher information."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from plugmc import (
    NO_JUMPS,
    Observations,
    TimeGrid,
    bs_closed_form,
    bs_small_noise_model,
    contrast,
    contrast_gradient,
    contrast_rates,
    deterministic_path,
    euler_path,
    fisher_info,
    levy_model,
    minimize_contrast,
    ou_jump_model,
    path_seed,
    sample_noise,
)
from plugmc.inference import information_inverse
from plugmc.models import JumpDiffusionModel

from conftest import EPS, N_OBS, THETA0

GRID = TimeGrid(1.0, N_OBS)


def simulate_observations(seed, theta=THETA0, eps=EPS, n=N_OBS):
    model = bs_small_noise_model(theta[0], theta[1], eps, 1.0)
    grid = TimeGrid(1.0, n)
    bundle = sample_noise(grid, NO_JUMPS, path_seed(1000, seed))
    path = euler_path(model, theta, bundle)
    return model, Observations(grid=grid, samples=path.values, eps=eps)


def test_observations_validation():
    with pytest.raises(ValueError):
        Observations(grid=GRID, samples=np.ones(N_OBS), eps=EPS)  # wrong length
    with pytest.raises(ValueError):
        Observations(grid=GRID, samples=np.ones(N_OBS + 1), eps=0.0)
    bad = np.ones(N_OBS + 1)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Observations(grid=GRID, samples=bad, eps=EPS)


def test_contrast_on_noise_free_data():
    # data from the eps = 0 path at theta = (mu0, 1): residuals vanish up to
    # Euler error, so the contrast reduces to the log term sum log X^2
    model0 = bs_small_noise_model(0.2, 1.0, 0.0, 1.0)
    bundle = sample_noise(GRID, NO_JUMPS, path_seed(0, 0))
    x = euler_path(model0, THETA0, bundle).values
    model = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    obs = Observations(grid=GRID, samples=x, eps=EPS)
    value = contrast(obs, THETA0, model)
    log_term = float(np.sum(np.log(x[:-1] ** 2)))
    assert value == pytest.approx(log_term, abs=1e-9)


def test_contrast_quadratic_term_scales_quadratically():
    # geometric data with constant increment ratio c: the residual at mu is
    # proportional to (c - mu dt), so doubling it quadruples the quadratic term
    n = 50
    grid = TimeGrid(1.0, n)
    c = 0.01
    x = (1 + c) ** np.arange(n + 1)
    model = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    obs = Observations(grid=grid, samples=x, eps=EPS)
    dt = grid.dt
    log_term = float(np.sum(np.log(x[:-1] ** 2)))
    mu1 = (c - 0.001) / dt  # residual ratio r
    mu2 = (c - 0.002) / dt  # residual ratio 2r
    q1 = contrast(obs, np.array([mu1, 1.0]), model) - log_term
    q2 = contrast(obs, np.array([mu2, 1.0]), model) - log_term
    assert q2 == pytest.approx(4 * q1, rel=1e-12)


def test_contrast_gradient_matches_finite_difference():
    model, obs = simulate_observations(1)
    theta = np.array([0.3, 1.1])
    g = contrast_gradient(obs, theta, model)
    for i in range(2):
        h = 1e-6
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        fd = (contrast(obs, tp, model) - contrast(obs, tm, model)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5)


def test_drift_argmin_matches_weighted_least_squares():
    # with sigma fixed, the contrast is quadratic in mu; its minimizer is the
    # weighted least-squares solution built from the normal equations
    model, obs = simulate_observations(2)
    x_prev = obs.samples[:-1]
    dx = np.diff(obs.samples)
    bt = model.coefficients(x_prev, THETA0)[1] / model.epsilon
    a_dot = x_prev  # d drift / d mu
    dt = obs.grid.dt
    mu_wls = np.sum(dx * a_dot / bt**2) / (dt * np.sum(a_dot**2 / bt**2))
    mus = np.linspace(mu_wls - 0.05, mu_wls + 0.05, 401)
    vals = [contrast(obs, np.array([m, 1.0]), model) for m in mus]
    assert abs(mus[int(np.argmin(vals))] - mu_wls) < 3e-4


def test_newton_matches_closed_form_to_1e10():
    for seed in range(10):
        model, obs = simulate_observations(seed)
        cf = bs_closed_form(obs)
        newton = minimize_contrast(obs, model, init=np.array([0.0, 0.5]))
        assert newton.converged
        assert np.max(np.abs(newton.theta - cf.theta)) < 1e-10


def test_contrast_route_refuses_observations_with_another_eps():
    # the contrast used to divide by the observations' eps and its btilde by
    # the model's, so Newton stayed at sigma = 1.0, unconverged, without a word
    model, obs = simulate_observations(9)
    doubled = Observations(grid=obs.grid, samples=obs.samples, eps=2 * EPS)
    message = f"observations carry eps = {2 * EPS}, not the model's {EPS}"
    with pytest.raises(ValueError, match=message):
        minimize_contrast(doubled, model, init=THETA0)
    with pytest.raises(ValueError, match=message):
        contrast(doubled, THETA0, model)


def test_newton_from_truth_converges_fast():
    model, obs = simulate_observations(3)
    result = minimize_contrast(obs, model, init=THETA0)
    assert result.converged and result.n_iter <= 3


def test_estimators_return_one_rate_per_parameter():
    # eps for the drift and jump parameters, 1/sqrt(n) for the diffusion
    # parameter; the ou estimate used to carry two rates for three parameters
    assert np.array_equal(contrast_rates(EPS, N_OBS, 3), [EPS, 1 / np.sqrt(N_OBS), EPS])
    model, obs = simulate_observations(4)
    assert np.array_equal(bs_closed_form(obs).rates, contrast_rates(EPS, N_OBS, 2))
    ou = ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0)
    grid = TimeGrid(1.0, 100)
    path = euler_path(ou, ou.theta0, sample_noise(grid, ou.jump, path_seed(5, 0)))
    obs = Observations(grid=grid, samples=path.values, eps=ou.epsilon)
    result = minimize_contrast(obs, ou, init=ou.theta0)
    assert result.rates.shape == (3,)
    assert np.array_equal(result.rates, [1.0, 0.1, 1.0])


def test_closed_form_on_constant_observations():
    obs = Observations(grid=TimeGrid(1.0, 20), samples=np.ones(21), eps=EPS)
    res = bs_closed_form(obs)
    assert res.theta[0] == 0.0 and res.theta[1] == 0.0
    assert res.info is None


def test_closed_form_residual_identity():
    # sum(DX/X) - T mu_hat = 0 exactly by construction
    _, obs = simulate_observations(4)
    res = bs_closed_form(obs)
    total = np.sum(np.diff(obs.samples) / obs.samples[:-1])
    assert total - obs.grid.horizon * res.theta[0] == pytest.approx(0.0, abs=1e-14)


def test_closed_form_rejects_nonpositive_samples():
    samples = np.ones(N_OBS + 1)
    samples[5] = -0.2
    with pytest.raises(ValueError):
        bs_closed_form(Observations(grid=GRID, samples=samples, eps=EPS))


def test_noise_free_data_recovers_truth():
    # Euler-generated eps = 0 data: mu_hat is exact, sigma_sq is 0
    model0 = bs_small_noise_model(0.2, 1.0, 0.0, 1.0)
    bundle = sample_noise(GRID, NO_JUMPS, path_seed(0, 1))
    x = euler_path(model0, THETA0, bundle).values
    res = bs_closed_form(Observations(grid=GRID, samples=x, eps=EPS))
    assert res.theta[0] == pytest.approx(0.2, abs=1e-12)
    assert res.theta[1] == pytest.approx(0.0, abs=1e-9)
    # exact ODE samples instead: mu_hat biased only at O(1/n)
    t = GRID.times()
    res2 = bs_closed_form(Observations(grid=GRID, samples=np.exp(0.2 * t), eps=EPS))
    assert abs(res2.theta[0] - 0.2) < 0.5 / N_OBS


def test_estimates_near_truth():
    for seed in range(5):
        _, obs = simulate_observations(seed + 50)
        res = bs_closed_form(obs)
        # sd(mu_hat) = eps sigma, sd(sigma_hat) ~ sigma / sqrt(2n)
        assert abs(res.theta[0] - 0.2) < 5 * EPS
        assert abs(res.theta[1] - 1.0) < 5 / np.sqrt(2 * N_OBS)
        assert np.allclose(res.rates, [EPS, 1 / np.sqrt(N_OBS)])


def test_argmin_invariant_to_constant_shift():
    model, obs = simulate_observations(7)
    mus = np.linspace(0.1, 0.3, 201)
    vals = np.array([contrast(obs, np.array([m, 1.0]), model) for m in mus])
    assert np.argmin(vals) == np.argmin(vals + 17.3)


# ---------------------------------------------------------------------------
# Information matrix
# ---------------------------------------------------------------------------


def test_fisher_bs_values():
    # ratios are x-free for geometric dynamics: I = diag(1/sigma^2, 2/sigma^2)
    for sigma, expect in [(1.0, (1.0, 2.0)), (2.0, (0.25, 0.5))]:
        model = bs_small_noise_model(0.2, sigma, EPS, 1.0)
        theta = np.array([0.2, sigma])
        driver = deterministic_path(model, theta, GRID)
        info = fisher_info(model, theta, driver)
        assert np.allclose(np.diag(info), expect, rtol=1e-9)
        assert np.allclose(info, info.T)
        assert np.all(np.linalg.eigvalsh(info) >= 0)


def test_fisher_matches_closed_form_estimator_info():
    _, obs = simulate_observations(8)
    res = bs_closed_form(obs)
    model = bs_small_noise_model(res.theta[0], res.theta[1], EPS, 1.0)
    driver = deterministic_path(model, res.theta, GRID)
    assert np.allclose(fisher_info(model, res.theta, driver), res.info, rtol=1e-9)


@pytest.mark.parametrize("horizon", [0.5, 2.0])
def test_fisher_bs_scales_drift_block_with_horizon(horizon):
    # drift information accumulates over [0, T]; the diffusion block is a
    # time average, since its rate 1/sqrt(n) does not depend on T
    grid = TimeGrid(horizon, N_OBS)
    model = bs_small_noise_model(*THETA0, EPS, 1.0)
    info = fisher_info(model, THETA0, deterministic_path(model, THETA0, grid))
    sigma = THETA0[1]
    np.testing.assert_allclose(
        info, np.diag([horizon / sigma**2, 2.0 / sigma**2]), rtol=1e-9, atol=1e-12
    )

    path = euler_path(model, THETA0, sample_noise(grid, NO_JUMPS, path_seed(1000, 8)))
    res = bs_closed_form(Observations(grid=grid, samples=path.values, eps=EPS))
    fitted = bs_small_noise_model(*res.theta, EPS, 1.0)
    driver = deterministic_path(fitted, res.theta, grid)
    np.testing.assert_allclose(
        res.info, fisher_info(fitted, res.theta, driver), rtol=1e-9, atol=1e-12
    )


def test_fisher_doubling_drift_gradient_quadruples_entry():
    base = bs_small_noise_model(0.2, 1.0, EPS, 1.0)

    def doubled_drift(x, th):
        _, b, _, b_x, _, b_th = base.coefficients(x, th)
        return (2.0 * th[0] * x, b, 2.0 * th[0], b_x, (2.0 * x, 0.0), b_th)

    scaled = JumpDiffusionModel(
        **{
            **{f: getattr(base, f) for f in base.__dataclass_fields__},
            "coefficients": doubled_drift,
            "table": None,
        }
    )
    driver = deterministic_path(base, THETA0, GRID)
    i_base = fisher_info(base, THETA0, driver)
    i_scaled = fisher_info(scaled, THETA0, driver)
    assert i_scaled[0, 0] == pytest.approx(4 * i_base[0, 0], rel=1e-12)
    assert i_scaled[1, 1] == pytest.approx(i_base[1, 1], rel=1e-12)


def _quadrature_info(a_th, b_th, btilde, horizon):
    # entry by entry, int a_k a_j / btilde^2 + (2 / horizon) int b_k b_j /
    # btilde^2 on [0, horizon]; each argument is a function of time
    p = len(a_th)
    info = np.empty((p, p))
    for k in range(p):
        for j in range(p):
            info[k, j] = quad(
                lambda t: (a_th[k](t) * a_th[j](t)
                           + 2.0 * b_th[k](t) * b_th[j](t) / horizon)
                / btilde(t) ** 2,
                0.0,
                horizon,
            )[0]
    return info


def test_fisher_full_matrix_matches_quadrature_of_outer_product():
    # ou: a_theta = (-x, 0, lam) couples mu and eta through the drift; the
    # limit path is the exact ODE solution, so the Euler-path trapezoid
    # agrees to O(dt)
    mu, sigma, eta, lam = 1.0, 0.3, 0.5, 1.0
    ou = ou_jump_model(mu, sigma, eta, lam, 1.0)
    level = lam * eta / mu
    x = lambda t: level + (1.0 - level) * np.exp(-mu * t)  # noqa: E731
    zero, one = (lambda t: 0.0), (lambda t: 1.0)
    exact = _quadrature_info(
        (lambda t: -x(t), zero, lambda t: lam), (zero, one, zero), lambda t: sigma, 1.0
    )
    info = fisher_info(ou, ou.theta0, deterministic_path(ou, ou.theta0, GRID))
    assert exact[0, 2] == pytest.approx(-9.07, abs=0.01)
    np.testing.assert_allclose(info, exact, rtol=5e-3, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(info)) == pytest.approx(0.055, abs=0.002)

    # levy: a_theta = (1, 0, 1) makes the matrix exactly singular, which
    # the diagonal alone hid
    levy = levy_model(0.1, sigma, eta, 1.0)
    exact = _quadrature_info((one, zero, one), (zero, one, zero), lambda t: sigma, 1.0)
    info = fisher_info(levy, levy.theta0, deterministic_path(levy, levy.theta0, GRID))
    np.testing.assert_allclose(info, exact, rtol=1e-12)
    with pytest.raises(ValueError, match=r"parameter\(s\) mu, eta not identified"):
        information_inverse(levy, info)


@pytest.mark.parametrize(
    "model",
    [
        bs_small_noise_model(0.2, 1.0, EPS, 1.0),
        ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0),
        ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0),
        levy_model(0.1, 0.3, 0.5, 1.0),
    ],
    ids=["bs", "ou_lam0", "ou_lam1", "levy"],
)
def test_deterministic_path_from_table_equals_per_step_coefficients(model):
    # the table's drift stepped in floats gives the floats of one
    # coefficients call per step, at theta0 and at another theta
    grid = TimeGrid(1.0, 500)
    per_step = replace(model, table=None)
    for theta in (model.theta0, model.theta0 * np.array([3.0, 2.0, -7.0][: model.p])):
        got = deterministic_path(model, theta, grid).values
        want = deterministic_path(per_step, theta, grid).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_zero_diffusion_rejected():
    model = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    samples = np.ones(N_OBS + 1)
    samples[10] = 0.0  # diffusion sigma * x vanishes there
    obs = Observations(grid=GRID, samples=samples, eps=EPS)
    with pytest.raises(ValueError, match="vanishes"):
        contrast(obs, THETA0, model)
    from plugmc import Path

    with pytest.raises(ValueError, match="vanishes"):
        fisher_info(model, THETA0, Path(grid=GRID, values=samples))
