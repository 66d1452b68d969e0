"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Each test prints a single `CRITERION <id>: PASS|FAIL` line (visible with
`pytest -s` or in captured output) before asserting.

Criteria 1 and 2 pin reference constants, C = (1.64937, 0.00585) and a
variance of 1.649396, that are mutually inconsistent and do not belong to
the stated parameter point theta0 = (0.2, 1.0): at theta0 the correction
vector is e^{-rT}(T x e^{mu T}, ~0) ~= (1.1618, 0) (three independent
routes below agree), while the constants match T x e^{mu T} at mu = 0.5
with no discounting, and 1.649396 is the square root of the quadratic
form implied by the constants themselves (1.64937^2 + 0.5 * 0.00585^2 =
2.72044), not the quadratic form.  Those two tests are therefore expected
to fail and are marked xfail(strict=True); companion tests assert the
independently validated values.  Full analysis lives outside the package
in the build notes.

Runtime: the full-scale replicated studies are marked `slow`
(`-m "not slow"` runs the fast-mode equivalents only).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import plugmc
from plugmc import (
    ExperimentConfig,
    NO_JUMPS,
    Observations,
    TimeGrid,
    asymptotic_variance,
    bs_call_closed_form,
    bs_closed_form,
    bs_small_noise_model,
    estimate_C,
    euler_path,
    Functional,
    ks_statistic,
    minimize_contrast,
    ou_jump_model,
    levy_model,
    path_seed,
    run_bs_experiment,
    run_ou_oracle,
    sample_noise,
    simulate_batch,
)

from conftest import coupling_residual_sup
from oracles import delta_method_variance, order_check

THETA0 = np.array([0.2, 1.0])
N_OBS = 500
EPS = 1.0 / np.sqrt(N_OBS)
STRIKE, RATE, HORIZON, X0 = 0.75, 0.05, 1.0, 1.0

REFERENCE_C = np.array([1.64937, 0.00585])
REFERENCE_VAR = 1.649396

CALL = Functional(
    kind="smoothed_call_terminal", horizon=HORIZON, strike=STRIKE, rate=RATE,
    eps_smooth=1e-3 * STRIKE,
)

KS_1PCT_300 = 0.094  # 1% critical value for 300 samples
KS_5PCT_100 = 1.358 / np.sqrt(100)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def bs_setup():
    return bs_small_noise_model(THETA0[0], THETA0[1], EPS, X0)


@pytest.fixture(scope="module")
def c_fine(bs_setup):
    # correction vector at theta0 on a fine pricing grid (Euler bias ~ 1e-4)
    model = bs_setup
    t0 = time.time()
    c, se, _, _ = estimate_C(model, CALL, THETA0, 100_000, 808, TimeGrid(HORIZON, 2000))
    return c, se, time.time() - t0


@pytest.fixture(scope="module")
def full_500():
    return run_bs_experiment(
        ExperimentConfig(
            theta0=(0.2, 1.0), n_obs=500, n_paths_price=10_000,
            n_paths_correction=100_000, replications=300, root_seed=20,
        )
    )


# ---------------------------------------------------------------------------
# Criterion 1: correction-vector constants at theta0, B = 1e5, 3 * stderr
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="reference constants (1.64937, 0.00585) correspond to mu = 0.5 with "
    "no discount factor, not to theta0 = (0.2, 1.0) where the correction "
    "vector is ~(1.1618, 0); see build notes",
)
def test_criterion_1_reference_correction_vector(bs_setup):
    model = bs_setup
    t0 = time.time()
    c, se, _, _ = estimate_C(
        model, CALL, THETA0, 100_000, 808, TimeGrid(HORIZON, N_OBS)
    )
    elapsed = time.time() - t0
    ok = bool(np.all(np.abs(c - REFERENCE_C) <= 3 * se)) and elapsed < 120
    report("1 (reference C)", ok, f"C={c} se={se} target={REFERENCE_C} [{elapsed:.0f}s]")
    assert elapsed < 120
    assert np.all(np.abs(c - REFERENCE_C) <= 3 * se)


def test_criterion_1_companion_independent_routes(c_fine):
    # the same estimator against two independent oracles: the pathwise-exact
    # sensitivities of the log-normal solution, and the quadrature-validated
    # closed-form price differentiated by central differences
    c, se, elapsed = c_fine
    grad = np.empty(2)
    for i in range(2):
        h = 1e-5
        tp, tm = THETA0.copy(), THETA0.copy()
        tp[i] += h
        tm[i] -= h
        grad[i] = (
            bs_call_closed_form(tp, EPS, X0, STRIKE, RATE, HORIZON)
            - bs_call_closed_form(tm, EPS, X0, STRIKE, RATE, HORIZON)
        ) / (2 * h)
    # exact expectations: E[e^{-rT} T X_T 1_{ITM}] and a mean-zero vega term
    exact = np.array([np.exp(-RATE * HORIZON) * HORIZON * X0 * np.exp(THETA0[0]), 0.0])
    tol = 3 * se + 2e-4  # stderr plus residual Euler bias at n = 2000
    ok = np.all(np.abs(c - grad) <= tol) and np.all(np.abs(c - exact) <= tol)
    report(
        "1 (companion routes)", bool(ok),
        f"C={c} grad={grad} exact={exact} tol={tol} [{elapsed:.0f}s]",
    )
    assert elapsed < 120  # single-threaded runtime target
    assert np.all(np.abs(c - grad) <= tol)
    assert np.all(np.abs(c - exact) <= tol)


# ---------------------------------------------------------------------------
# Criterion 2: asymptotic variance constant
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="1.649396 equals sqrt of the quadratic form implied by the "
    "reference constants, and the constants themselves do not belong to "
    "theta0; the consistent value is ~1.35; see build notes",
)
def test_criterion_2_reference_asymptotic_variance(c_fine):
    c, se, _ = c_fine
    info_inv = np.diag([1.0, 0.5])  # inverse information at theta0
    var = asymptotic_variance(c, info_inv, rates=np.array([EPS, 1 / np.sqrt(N_OBS)]))
    tol = 2 * float(np.abs(c) @ info_inv @ (3 * se))  # induced by criterion 1
    ok = abs(var - REFERENCE_VAR) <= tol
    report("2 (reference variance)", bool(ok), f"var={var:.6f} target={REFERENCE_VAR} tol={tol:.4f}")
    assert abs(var - REFERENCE_VAR) <= tol


# ---------------------------------------------------------------------------
# Criterion 3: normality of the normalized pricing error
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_full_n500(full_500):
    s = full_500.summary
    r = s["replications"]
    ok = s["ks_statistic"] < KS_1PCT_300 and abs(s["z_sd"] - 1) < 0.13
    report(
        "3 (full, n=500)", bool(ok),
        f"KS={s['ks_statistic']:.4f} (<{KS_1PCT_300}) sd={s['z_sd']:.4f} mean={s['z_mean']:.4f}",
    )
    assert s["ks_statistic"] < KS_1PCT_300
    assert abs(s["z_sd"] - 1.0) < 0.13
    # sampling-noise envelopes for a standard normal sample of size R
    assert abs(s["z_mean"]) < 3 / np.sqrt(r)
    assert abs(s["z_sd"] - 1.0) < 3 / np.sqrt(2 * r)


@pytest.mark.slow
def test_criterion_3_full_n50():
    out = run_bs_experiment(
        ExperimentConfig(
            theta0=(0.2, 1.0), n_obs=50, n_paths_price=10_000,
            n_paths_correction=100_000, replications=300, root_seed=20,
        )
    )
    s = out.summary
    ok = s["ks_statistic"] < KS_1PCT_300 and abs(s["z_sd"] - 1) < 0.13
    report(
        "3 (full, n=50)", bool(ok),
        f"KS={s['ks_statistic']:.4f} (<{KS_1PCT_300}) sd={s['z_sd']:.4f}",
    )
    assert s["ks_statistic"] < KS_1PCT_300
    assert abs(s["z_sd"] - 1.0) < 0.13


@pytest.mark.parametrize("n_obs", [500, 50])
def test_criterion_3_fast_mode(n_obs):
    # CI-scale variant: R = 100, B = 2000, 5% KS level
    out = run_bs_experiment(
        ExperimentConfig(
            theta0=(0.2, 1.0), n_obs=n_obs, n_paths_price=2_000,
            n_paths_correction=20_000, replications=100, root_seed=20,
        )
    )
    s = out.summary
    ok = s["ks_statistic"] < KS_5PCT_100
    report(
        f"3 (fast, n={n_obs})", bool(ok),
        f"KS={s['ks_statistic']:.4f} (<{KS_5PCT_100:.4f}) sd={s['z_sd']:.4f}",
    )
    assert s["ks_statistic"] < KS_5PCT_100


# ---------------------------------------------------------------------------
# Criterion 4: coupling order of the sensitivity process
# ---------------------------------------------------------------------------


def test_criterion_4_bs_slopes(bs_setup):
    model = bs_setup
    grid = TimeGrid(1.0, 128)
    slopes = [
        order_check(model, THETA0, grid, d, root_seed=47, n_paths=200).slope
        for d in (0, 1)
    ]
    ok = all(abs(s - 4.0) <= 0.6 for s in slopes)
    report("4 (bs order)", ok, f"slopes={[round(s, 3) for s in slopes]} target 4 +- 0.6")
    for s in slopes:
        assert abs(s - 4.0) <= 0.6


def test_criterion_4_ou_slope_and_exact_directions():
    model = ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0)
    grid = TimeGrid(1.0, 128)
    slope = order_check(
        model, model.theta0, grid, 0, root_seed=53, n_paths=200
    ).slope
    # sigma and eta enter affinely: zero residual, no slope to regress
    worst = 0.0
    for d in (1, 2):
        u = np.zeros(3)
        u[d] = 2.0**-3
        for i in range(50):
            b = sample_noise(grid, model.jump, path_seed(59, i))
            worst = max(worst, coupling_residual_sup(model, model.theta0, u, b))
    ok = abs(slope - 4.0) <= 0.6 and worst < 1e-10
    report("4 (ou order)", bool(ok), f"mu-slope={slope:.3f}, affine residual={worst:.2e}")
    assert abs(slope - 4.0) <= 0.6
    assert worst < 1e-10


def test_criterion_4_levy_exact():
    model = levy_model(0.1, 0.3, 0.5, 1.0)
    grid = TimeGrid(1.0, 128)
    u = np.array([2.0**-3, -(2.0**-4), 2.0**-5])
    worst = 0.0
    for i in range(50):
        b = sample_noise(grid, model.jump, path_seed(61, i))
        worst = max(worst, coupling_residual_sup(model, model.theta0, u, b))
    ok = worst < 1e-10
    report("4 (levy exact)", bool(ok), f"residual={worst:.2e} (<1e-10)")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# Criterion 5: estimator oracle equality and asymptotic normality
# ---------------------------------------------------------------------------


def _observe(seed: int):
    model = bs_small_noise_model(THETA0[0], THETA0[1], EPS, X0)
    grid = TimeGrid(1.0, N_OBS)
    bundle = sample_noise(grid, NO_JUMPS, path_seed(500, seed))
    x = euler_path(model, THETA0, bundle).values
    return model, Observations(grid=grid, samples=x, eps=EPS)


def test_criterion_5_newton_equals_closed_form_50_seeds():
    worst = 0.0
    for seed in range(50):
        model, obs = _observe(seed)
        cf = bs_closed_form(obs)
        newton = minimize_contrast(obs, model, init=np.array([0.0, 0.5]))
        assert newton.converged
        worst = max(worst, float(np.max(np.abs(newton.theta - cf.theta))))
    ok = worst < 1e-10
    report("5 (oracle equality)", bool(ok), f"max |newton - closed| = {worst:.2e}")
    assert worst < 1e-10


def test_criterion_5_estimator_normality_300_seeds():
    z_mu, z_sigma = [], []
    for seed in range(300):
        _, obs = _observe(seed)
        est = bs_closed_form(obs)
        # standardize by the inverse-information diagonal at theta0
        z_mu.append((est.theta[0] - THETA0[0]) / (EPS * THETA0[1]))
        z_sigma.append(
            np.sqrt(N_OBS) * (est.theta[1] - THETA0[1]) / (THETA0[1] / np.sqrt(2))
        )
    ks = (ks_statistic(z_mu), ks_statistic(z_sigma))
    within = np.mean(
        (np.abs(z_mu) < 3.0).astype(float) * (np.abs(z_sigma) < 3.0)
    )
    ok = all(k < KS_1PCT_300 for k in ks) and within >= 0.99
    report(
        "5 (normality)", bool(ok),
        f"KS(mu)={ks[0]:.4f} KS(sigma)={ks[1]:.4f} (<{KS_1PCT_300}), "
        f"within 3sd: {within:.3f}",
    )
    for k in ks:
        assert k < KS_1PCT_300
    # both components inside their 3-sd band in at least 99% of seeds
    assert within >= 0.99


# The noise stream against exact finite-sample laws.  Under Euler
# observations of bs, DX_k / X_{t_k} = mu dt + eps sigma dW_k, so
# mu_hat = mu + eps sigma W_T / T is exactly N(mu, (eps sigma)^2 / T) and
# n sigma_hat^2 / sigma^2 = sum_k (dW_k - W_T / n)^2 / dt is exactly
# chi-square with n - 1 degrees of freedom.  Their probability-integral
# transforms are then exactly uniform, so a KS test of them at level 1%
# tests the normals themselves, free of the finite-sample error of the
# normal approximation that criterion 5 carries.

# (root, first path index): blocks at both ends of the 64-bit index range,
# the study's observation seeds, and a start that cuts blocks apart
EXACT_LAW_BATCHES = ((1, 0), (500, 1 << 40), (2**63 + 11, 37), (2**64 - 1, 2**64 - 640))
EXACT_LAW_PATHS = 640  # per batch: 10 blocks' worth


def test_exact_law_of_bs_estimators_over_blocks_and_roots():
    from scipy import stats

    model = bs_small_noise_model(THETA0[0], THETA0[1], EPS, X0)
    grid = TimeGrid(1.0, N_OBS)
    u_mu, u_sigma = [], []
    for root, start in EXACT_LAW_BATCHES:
        paths = simulate_batch(
            model, THETA0, grid, root, EXACT_LAW_PATHS, start_index=start,
            record=True, chunk_size=100,
        ).x_path
        for i in range(EXACT_LAW_PATHS):
            est = bs_closed_form(Observations(grid=grid, samples=paths[:, i], eps=EPS))
            mu_hat, sigma_hat = est.theta
            u_mu.append(stats.norm.cdf((mu_hat - THETA0[0]) / (EPS * THETA0[1])))
            u_sigma.append(
                stats.chi2.cdf(N_OBS * sigma_hat**2 / THETA0[1] ** 2, N_OBS - 1)
            )
    p_values = (stats.kstest(u_mu, "uniform").pvalue, stats.kstest(u_sigma, "uniform").pvalue)
    ok = min(p_values) > 0.01
    report(
        "5 (exact law of the stream)", bool(ok),
        f"KS p(mu)={p_values[0]:.3f} p(sigma)={p_values[1]:.3f} (>0.01) "
        f"over {len(u_mu)} paths",
    )
    for p in p_values:
        assert p > 0.01


# ---------------------------------------------------------------------------
# Criterion 6: derivative-process route vs delta-method route
# ---------------------------------------------------------------------------


def test_criterion_6_route_agreement(c_fine):
    c, se, _ = c_fine
    info_inv = np.diag([1.0, 0.5])
    v_pathwise = asymptotic_variance(c, info_inv)
    v_delta = delta_method_variance(
        lambda th: bs_call_closed_form(th, EPS, X0, STRIKE, RATE, HORIZON),
        THETA0,
        info_inv,
    )
    # 3 sigma of the quadratic form through dC, plus residual Euler bias
    sd_v = 2 * np.sqrt(float((c * se) @ info_inv @ (c * se)))
    tol = 3 * sd_v + 2 * abs(c[0]) * 2e-4
    ok = abs(v_pathwise - v_delta) <= tol
    report(
        "6 (route agreement)", bool(ok),
        f"pathwise={v_pathwise:.6f} delta={v_delta:.6f} tol={tol:.5f}",
    )
    assert abs(v_pathwise - v_delta) <= tol


# ---------------------------------------------------------------------------
# Criterion 7: mean-reverting jump model against its closed form
# ---------------------------------------------------------------------------


def test_criterion_7_ou_oracle():
    cfg = ExperimentConfig(
        theta0=(1.0, 0.3, 0.5), n_paths_correction=100_000, n_grid_price=2000,
        discount=0.05, horizon=1.0, jump_intensity=1.0, root_seed=70,
    )
    rep = run_ou_oracle(cfg)
    h_ok = rep["H_abs_error"] < 3 * rep["H_mc_se"]
    sigma_c_ok = abs(rep["C_hat"][1]) < 3 * rep["C_se"][1]
    report(
        "7 (ou oracle)", bool(h_ok and sigma_c_ok),
        f"|H_mc - H| = {rep['H_abs_error']:.2e} (3se = {3 * rep['H_mc_se']:.2e}), "
        f"C_sigma = {rep['C_hat'][1]:.2e} (3se = {3 * rep['C_se'][1]:.2e})",
    )
    assert h_ok
    assert sigma_c_ok


# ---------------------------------------------------------------------------
# Criterion 8: confidence-interval coverage
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_coverage(full_500):
    coverage = full_500.summary["coverage"]
    ok = abs(coverage - 0.95) <= 0.04
    report("8 (coverage)", bool(ok), f"coverage={coverage:.4f} target 0.95 +- 0.04")
    assert abs(coverage - 0.95) <= 0.04


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical CLI outputs
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    # Put the directory holding the imported `plugmc` first on PYTHONPATH, so
    # the child runs the same copy as this session whatever its cwd (a
    # relative PYTHONPATH such as `src` would not resolve from tmp_path).
    root = os.path.dirname(os.path.dirname(os.path.abspath(plugmc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plugmc.cli", *args],
        capture_output=True, cwd=cwd, env=env,
    )
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace")
        detail = f"`plugmc {' '.join(args)}` exited with status {proc.returncode}:\n{stderr}"
        report("9 (determinism)", False, detail)
        pytest.fail(detail)
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    price_cfg = tmp_path / "price.json"
    price_cfg.write_text(json.dumps({
        "model": "bs", "params": [0.2, 1.0], "epsilon": EPS, "x0": 1.0,
        "functional": {"kind": "smoothed_call_terminal", "K": STRIKE, "r": RATE,
                       "T": 1.0, "epsilon_smooth": 0.00075},
        "B": 1000, "seed": 17, "n": 100,
    }))
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({
        "kind": "bs", "theta0": [0.2, 1.0], "n_obs": 50, "n_paths_price": 1000,
        "n_paths_correction": 2000, "replications": 30, "root_seed": 9,
    }))
    checks = []
    for label, args in [
        ("simulate", ["simulate", "--model", "ou", "--params", "1.0,0.3,0.5",
                      "--n", "50", "--seed", "4", "--paths", "3"]),
        ("price", ["price", "--config", str(price_cfg)]),
        ("experiment", ["experiment", "--config", str(exp_cfg)]),
    ]:
        first = _run_cli(args, tmp_path)
        second = _run_cli(args, tmp_path)
        checks.append((label, first == second))
    ok = all(same for _, same in checks)
    report("9 (determinism)", ok, f"{[(l, s) for l, s in checks]}")
    for label, same in checks:
        assert same, f"{label} output differs between runs"
