"""Plug-in estimation, closed-form prices, variance routes, intervals."""

import re

import numpy as np
import pytest

from plugmc import (
    Functional,
    InferenceReport,
    TimeGrid,
    asymptotic_variance,
    bs_call_closed_form,
    bs_small_noise_model,
    build_report,
    confidence_interval,
    deterministic_path,
    estimate_C,
    fisher_info,
    information_inverse,
    levy_model,
    ou_discounted_value,
    ou_jump_model,
)

from conftest import EPS, RATE, STRIKE, THETA0
from oracles import delta_method_variance

GRID = TimeGrid(1.0, 500)

# Frozen against the log-normal quadrature oracle (see oracle helpers below).
H_BASE_CASE = 0.4484121743527476
H_EPS_ONE = 0.620813605525009
H_OTM = 0.32523874290319504
# Frozen against solve_ivp + quadrature of the mean ODE.
OU_VALUE = 0.7972592077970716


def lognormal_call_quadrature(mu, sigma, eps, x, strike, rate, horizon):
    from scipy.integrate import quad

    m = np.log(x) + (mu - 0.5 * eps**2 * sigma**2) * horizon
    s = eps * sigma * np.sqrt(horizon)

    def integrand(y):
        dens = np.exp(-0.5 * ((y - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        return (np.exp(y) - strike) * dens

    val, err = quad(
        integrand, max(m - 12 * s, np.log(strike)), m + 12 * s,
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    assert err < 1e-12
    return np.exp(-rate * horizon) * val


def test_bs_call_matches_quadrature_oracle():
    cases = [
        ((0.2, 1.0), EPS, 1.0, 0.75, 0.05, 1.0, H_BASE_CASE),
        ((0.2, 1.0), 1.0, 1.0, 0.75, 0.05, 1.0, H_EPS_ONE),
        ((0.1, 0.5), 1.0, 1.0, 1.2, 0.03, 2.0, H_OTM),
    ]
    for theta, eps, x, k, r, t, frozen in cases:
        value = bs_call_closed_form(np.array(theta), eps, x, k, r, t)
        assert value == pytest.approx(frozen, abs=1e-12)
        assert value == pytest.approx(
            lognormal_call_quadrature(*theta, eps, x, k, r, t), abs=1e-12
        )


def test_bs_call_zero_strike():
    v = bs_call_closed_form(THETA0, EPS, 1.0, 0.0, 0.05, 1.0)
    assert v == pytest.approx(np.exp((0.2 - 0.05) * 1.0), rel=1e-12)


def test_bs_call_degenerate_noise():
    v = bs_call_closed_form(THETA0, 0.0, 1.0, 0.75, 0.05, 1.0)
    assert v == pytest.approx(np.exp(-0.05) * (np.exp(0.2) - 0.75), rel=1e-12)
    otm = bs_call_closed_form(np.array([-0.5, 1.0]), 0.0, 1.0, 0.75, 0.05, 1.0)
    assert otm == 0.0


def test_bs_call_rejects_negative_strike():
    with pytest.raises(ValueError):
        bs_call_closed_form(THETA0, EPS, 1.0, -0.1, 0.05, 1.0)


def test_ou_value_against_quadrature():
    from scipy.integrate import quad, solve_ivp

    mu, eta, lam, delta, horizon, x0 = 1.0, 0.5, 1.0, 0.05, 1.0, 1.0
    sol = solve_ivp(
        lambda t, m: -mu * m + lam * eta, (0, horizon), [x0],
        dense_output=True, rtol=1e-12, atol=1e-14,
    )
    target, _ = quad(lambda t: np.exp(-delta * t) * sol.sol(t)[0], 0, horizon,
                     epsabs=1e-12, epsrel=1e-12)
    value = ou_discounted_value(mu, eta, lam, delta, horizon, x0)
    assert value == pytest.approx(OU_VALUE, abs=1e-12)
    assert value == pytest.approx(target, abs=1e-10)


def test_ou_value_without_jump_mean():
    # eta = 0 leaves only the initial-condition decay term
    mu, delta, horizon, x0 = 1.0, 0.05, 1.0, 1.0
    expected = x0 * (1 - np.exp(-(mu + delta) * horizon)) / (mu + delta)
    assert ou_discounted_value(mu, 0.0, 1.0, delta, horizon, x0) == pytest.approx(
        expected, rel=1e-14
    )


# ---------------------------------------------------------------------------
# estimate_C: the plug-in (H, H_se) and the correction vector C
# ---------------------------------------------------------------------------


def test_plugin_h_deterministic_model():
    # eps = 0: every path equals the ODE path; stderr is zero up to the
    # rounding noise of averaging identical doubles
    model = bs_small_noise_model(0.2, 1.0, 0.0, 1.0)
    f = Functional(kind="terminal", horizon=1.0)
    h, se = estimate_C(model, f, THETA0, 200, 5, GRID)[2:]
    assert se <= 1e-15
    assert h == pytest.approx(np.exp(0.2), abs=5e-4)  # Euler ODE error


def test_plugin_h_matches_closed_form(bs_model, call_functional):
    # the study's setting: 10^4 paths resolve the closed-form value
    h, se = estimate_C(bs_model, call_functional, THETA0, 10_000, 42, GRID)[2:]
    bias_bound = np.exp(-RATE) * call_functional.eps_smooth / 2
    assert abs(h - H_BASE_CASE) < 3 * se + bias_bound + 2e-3 / GRID.steps


def test_plugin_h_stderr_halves_with_4x_paths(bs_model, call_functional):
    _, se1 = estimate_C(bs_model, call_functional, THETA0, 2_000, 7, GRID)[2:]
    _, se4 = estimate_C(bs_model, call_functional, THETA0, 8_000, 7, GRID)[2:]
    assert se4 == pytest.approx(se1 / 2, rel=0.1)


def test_plugin_h_requires_enough_paths(bs_model, call_functional):
    with pytest.raises(ValueError):
        estimate_C(bs_model, call_functional, THETA0, 50, 7, GRID)


@pytest.mark.parametrize(
    "functional",
    [
        Functional(kind="smoothed_call_terminal", horizon=1.0, strike=STRIKE, rate=RATE),
        Functional(kind="discounted_integral", horizon=1.0, discount=0.05),
    ],
    ids=["terminal", "weighted"],
)
@pytest.mark.parametrize("horizon", [0.5, 2.0])
def test_batch_grid_must_span_the_functional_horizon(bs_model, functional, horizon):
    grid = TimeGrid(horizon, 50)
    with pytest.raises(
        ValueError,
        match=f"batch grid horizon {horizon} must equal functional horizon 1.0",
    ):
        estimate_C(bs_model, functional, THETA0, 200, 7, grid)


def test_estimate_c_levy_terminal_identity(levy):
    # identity terminal payoff: C = E[(T, W_T, S_T)] = (T, 0, T)
    f = Functional(kind="terminal", horizon=1.0)
    c, se, _, _ = estimate_C(levy, f, levy.theta0, 20_000, 11, TimeGrid(1.0, 100))
    assert c[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(c[1]) < 3 * se[1]
    assert abs(c[2] - 1.0) < 3 * se[2]


def test_estimate_c_zero_for_theta_free_dynamics():
    from test_derivative import theta_free_model

    m = theta_free_model()
    f = Functional(kind="time_average", horizon=1.0)
    # initial gradient is (0.4, -0.2) and dynamics add nothing; force a model
    # with zero initial gradient to get C identically zero
    from plugmc.models import JumpDiffusionModel

    m0 = JumpDiffusionModel(
        **{
            **{f_: getattr(m, f_) for f_ in m.__dataclass_fields__},
            "initial_grad": lambda th: np.zeros(2),
        }
    )
    c, se, _, _ = estimate_C(m0, f, np.zeros(2), 500, 3, TimeGrid(1.0, 20))
    assert np.all(c == 0.0) and np.all(se == 0.0)


# ---------------------------------------------------------------------------
# Variance assembly
# ---------------------------------------------------------------------------


def test_asymptotic_variance_basics():
    assert asymptotic_variance(np.zeros(2), np.eye(2)) == 0.0
    c = np.array([1.2, -0.7])
    assert asymptotic_variance(c, np.eye(2)) == pytest.approx(np.sum(c**2))
    with pytest.raises(ValueError):
        asymptotic_variance(c, np.eye(3))
    with pytest.raises(ValueError):
        asymptotic_variance(c, np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        asymptotic_variance(c, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_asymptotic_variance_rate_masking():
    # coordinate 2 converges faster (smaller rate entry) and is masked out,
    # mirroring a diag(S1, 0, S3) limit
    c = np.array([1.0, 10.0, 2.0])
    sigma = np.diag([1.0, 1.0, 0.5])
    rates = np.array([1e-2, 1e-3, 1e-2])
    v = asymptotic_variance(c, sigma, rates=rates)
    assert v == pytest.approx(1.0 + 0.5 * 4.0)


def test_masking_never_increases_variance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.normal(size=3)
        d = rng.uniform(0.1, 2.0, size=3)
        sigma = np.diag(d)
        base = asymptotic_variance(c, sigma, rates=np.array([1.0, 1.0, 1.0]))
        masked = asymptotic_variance(c, sigma, rates=np.array([1.0, 0.5, 1.0]))
        assert masked <= base + 1e-15


def test_adding_faster_coordinate_leaves_variance_unchanged():
    # a new coordinate converging strictly faster than the slowest rate is
    # masked to zero, however large its C component or covariance entry
    c2 = np.array([1.3, -0.4])
    s2 = np.diag([1.0, 0.5])
    base = asymptotic_variance(c2, s2, rates=np.array([0.1, 0.1]))
    c3 = np.append(c2, 50.0)
    s3 = np.diag([1.0, 0.5, 9.0])
    extended = asymptotic_variance(c3, s3, rates=np.array([0.1, 0.1, 1e-3]))
    assert extended == pytest.approx(base, rel=1e-14)


def test_equal_rates_do_not_mask():
    c = np.array([1.0, 2.0])
    v = asymptotic_variance(c, np.diag([1.0, 0.5]), rates=np.array([EPS, EPS]))
    assert v == pytest.approx(1.0 + 0.5 * 4.0)


def test_confidence_interval_values():
    lo, hi = confidence_interval(2.0, 1.0, 0.1, 0.05)
    assert hi - 2.0 == pytest.approx(0.19599639845400545, abs=1e-9)
    assert lo == pytest.approx(2.0 - 0.19599639845400545, abs=1e-9)
    assert confidence_interval(2.0, 0.0, 0.1, 0.05) == (2.0, 2.0)
    lo99, hi99 = confidence_interval(2.0, 1.0, 0.1, 0.01)
    assert lo99 < lo and hi99 > hi  # stricter level widens the interval
    with pytest.raises(ValueError):
        confidence_interval(2.0, -1.0, 0.1, 0.05)


def test_delta_method_linear_and_constant():
    sigma = np.diag([0.3**2, 0.0])
    assert delta_method_variance(lambda th: th[0], THETA0, sigma) == pytest.approx(
        0.09, rel=1e-6
    )
    assert delta_method_variance(lambda th: 5.0, THETA0, sigma) == 0.0
    with pytest.raises(ValueError):
        delta_method_variance(lambda th: np.nan, THETA0, sigma)


def test_gradient_consistency_common_random_numbers(bs_model, call_functional):
    # the pathwise C equals a central finite difference of the Monte Carlo
    # value computed from the same seeds: the simulated sensitivities are the
    # exact parameter derivatives of the simulated paths
    c, c_se, _, _ = estimate_C(bs_model, call_functional, THETA0, 5_000, 31, GRID)
    h = 1e-4
    for i in range(2):
        u = np.zeros(2)
        u[i] = h
        hp, _ = estimate_C(bs_model, call_functional, THETA0 + u, 5_000, 31, GRID)[2:]
        hm, _ = estimate_C(bs_model, call_functional, THETA0 - u, 5_000, 31, GRID)[2:]
        fd = (hp - hm) / (2 * h)
        # shared noise cancels the MC error; only curvature O(h^2 / eps_smooth)
        # and rounding remain
        assert abs(fd - c[i]) < 1e-4


def test_route_agreement_quick(bs_model, call_functional):
    # derivative-process variance vs delta method on the closed form
    c, c_se, _, _ = estimate_C(bs_model, call_functional, THETA0, 20_000, 17, GRID)
    info_inv = np.diag([1.0, 0.5])
    v_pathwise = asymptotic_variance(c, info_inv)
    v_delta = delta_method_variance(
        lambda th: bs_call_closed_form(th, EPS, 1.0, STRIKE, RATE, 1.0),
        THETA0,
        info_inv,
    )
    # error propagation: dv = 2 |C| dC
    dv = 2 * np.sqrt(info_inv.diagonal() @ (c * c_se) ** 2 + (c_se**2) @ info_inv.diagonal())
    assert abs(v_pathwise - v_delta) < 3 * dv + 0.01


def test_build_report_fields(bs_model, call_functional):
    report = build_report(
        bs_model,
        call_functional,
        THETA0,
        rates=np.array([EPS, 1 / np.sqrt(500)]),
        info=np.diag([1.0, 2.0]),
        n_paths=2_000,
        root_seed=23,
        grid=GRID,
    )
    assert report.ci[0] <= report.h_hat <= report.ci[1]
    assert report.asy_var >= 0
    d = report.to_dict()
    assert set(d) == {
        "theta", "H_hat", "H_se_mc", "C_hat", "C_se", "asy_var",
        "gamma_star", "alpha", "ci_low", "ci_high",
    }


def test_build_report_prices_the_paths_from_its_start_index(bs_model, call_functional):
    # the study prices each replication on its own block of seeded paths
    grid = TimeGrid(1.0, 50)
    rates, info = np.array([EPS, 1 / np.sqrt(50)]), np.diag([1.0, 2.0])
    k = 1 << 21
    at_k = build_report(
        bs_model, call_functional, THETA0, rates, info, 500, 23, grid, start_index=k
    )
    c, _, h, _ = estimate_C(bs_model, call_functional, THETA0, 500, 23, grid, start_index=k)
    assert np.array_equal(at_k.c_hat, c) and at_k.h_hat == h
    at_0 = build_report(bs_model, call_functional, THETA0, rates, info, 500, 23, grid)
    assert at_0.h_hat != at_k.h_hat


def test_report_names_non_finite_field():
    # a NaN used to surface as "confidence interval must contain the point
    # estimate"; the report now names the field that is not finite
    good = dict(
        theta=THETA0, h_hat=0.4, h_se_mc=0.01, c_hat=np.array([1.0, 0.0]),
        c_se=np.array([0.1, 0.1]), asy_var=1.0, gamma_star=EPS, alpha=0.05,
        ci=(0.3, 0.5),
    )
    assert InferenceReport(**good).h_hat == 0.4
    for field, bad in [
        ("h_hat", np.nan),
        ("c_hat", np.array([1.0, np.nan])),
        ("asy_var", np.inf),
    ]:
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            InferenceReport(**{**good, field: bad})


def test_build_report_checks_information_before_monte_carlo(bs_model, call_functional, monkeypatch):
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the information was checked")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    args = (bs_model, call_functional, THETA0, np.array([EPS, 1 / np.sqrt(500)]))
    rest = dict(n_paths=1_000, root_seed=1, grid=GRID)
    for info, names in [
        (np.diag([1.0, 0.0]), "sigma"),
        (np.zeros((2, 2)), "mu, sigma"),
        (np.ones((2, 2)), "mu, sigma"),  # only mu + sigma is identified
    ]:
        with pytest.raises(ValueError, match=rf"parameter\(s\) {names} not identified"):
            build_report(*args, info, **rest)
    with pytest.raises(ValueError, match="shape"):
        build_report(*args, np.eye(3), **rest)
    with pytest.raises(ValueError, match="not finite"):
        build_report(*args, np.diag([1.0, np.nan]), **rest)
    # each used to run every path and then fail in asymptotic_variance with
    # a message about a "covariance"
    with pytest.raises(ValueError, match="information matrix is not symmetric"):
        build_report(*args, np.array([[1.0, 0.5], [0.0, 1.0]]), **rest)
    with pytest.raises(ValueError, match="information matrix is not positive definite"):
        build_report(*args, np.diag([1.0, -1.0]), **rest)


def test_information_inverse_judges_the_matrix():
    bs = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
    info = np.array([[4.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(information_inverse(bs, info), np.linalg.inv(info))
    for bad, message in [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "not positive definite"),  # eigenvalues -1, 3
        (np.diag([-1.0, -2.0]), "not positive definite"),
        (np.diag([np.inf, 1.0]), "not finite"),
    ]:
        with pytest.raises(ValueError, match=f"^information matrix is {message}"):
            information_inverse(bs, bad)
    # asymmetry within asymptotic_variance's tolerance is rounding, not a defect
    information_inverse(bs, info + np.array([[0.0, 1e-12], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "model, names",
    [
        # mu and eta enter the levy drift identically
        (levy_model(0.1, 0.3, 0.5, 1.0), "mu, eta"),
        # at jump intensity 0 the ou observations say nothing about eta
        (ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0), "eta"),
    ],
    ids=["levy", "ou_no_jumps"],
)
def test_information_inverse_names_unidentified_parameters(model, names):
    theta = model.theta0
    info = fisher_info(model, theta, deterministic_path(model, theta, TimeGrid(1.0, 100)))
    message = f"{model.name}: singular information matrix, parameter(s) {names} not identified"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        information_inverse(model, info)


def test_build_report_checks_rates_and_alpha_before_monte_carlo(
    bs_model, call_functional, monkeypatch
):
    # a rates vector of the wrong length, or alpha outside (0, 1), used to
    # simulate every path first and fail afterwards
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before rates and alpha were checked")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    rest = dict(n_paths=1_000, root_seed=1, grid=GRID)
    info = np.eye(2)
    for rates in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match=r"rates must have shape \(2,\)"):
            build_report(bs_model, call_functional, THETA0, np.array(rates), info, **rest)
    # zero rates gave an interval of zero width, a negative one masked its
    # coordinate out, and a NaN one failed after the Monte Carlo pass
    for rates in ([0.0, 0.0], [-1.0, 0.1], [np.nan, 0.1], [np.inf, 0.1]):
        with pytest.raises(ValueError, match="rates must be finite and > 0"):
            build_report(bs_model, call_functional, THETA0, np.array(rates), info, **rest)
    rates = np.array([EPS, 1 / np.sqrt(500)])
    # alpha = 1e-300 gave z_{alpha/2} = inf and an interval of infinite ends
    for alpha in (0.0, 1.0, 1.5, -0.05, np.nan, 1e-300):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            build_report(bs_model, call_functional, THETA0, rates, info, alpha=alpha, **rest)
