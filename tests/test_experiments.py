"""Replicated studies, KS statistic, artifact files, config parsing."""

import csv
import io
import json
import os
import threading
import time

import numpy as np
import pytest

import plugmc.experiments as exp
import plugmc.simulate
from plugmc import (
    NO_JUMPS,
    ExperimentConfig,
    Functional,
    Observations,
    TimeGrid,
    bs_closed_form,
    build_report,
    contrast_rates,
    deterministic_path,
    euler_path,
    fisher_info,
    ks_statistic,
    norm_ppf,
    path_seed,
    run_bs_experiment,
    run_ou_oracle,
    sample_noise,
    write_experiment_outputs,
)
from plugmc.experiments import (
    IDX_CORRECTION,
    IDX_OBSERVATION,
    IDX_PRICING,
    functional_from_config,
    histogram_csv,
    model_from_config,
    qq_csv,
    replications_csv,
    study_files,
)
from plugmc.simulate import BLOCK_PATHS
from plugmc.workers import in_slices

from conftest import assert_no_child

FAST = dict(
    theta0=(0.2, 1.0),
    n_obs=100,
    n_paths_price=1000,
    n_paths_correction=2000,
    replications=30,
    root_seed=314,
)


def test_ks_stairstep_geometry():
    # samples placed exactly at Phi^{-1}((i - 0.5) / R) leave uniform gaps
    for r in (10, 100, 250):
        samples = norm_ppf((np.arange(1, r + 1) - 0.5) / r)
        assert ks_statistic(samples) == pytest.approx(0.5 / r, rel=1e-9)


def test_ks_point_mass():
    assert ks_statistic(np.zeros(100)) == pytest.approx(0.5)


def test_ks_standard_normal_sample():
    rng = np.random.default_rng(2718)
    z = rng.standard_normal(10_000)
    # 1% critical value ~ 1.628 / sqrt(n) = 0.01628
    assert ks_statistic(z) < 0.0163


def test_ks_needs_two_samples():
    with pytest.raises(ValueError):
        ks_statistic([0.1])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(theta0=(0.2, 1.0), replications=10)
    with pytest.raises(ValueError):
        ExperimentConfig(theta0=(0.2, 1.0), n_paths_price=10)
    with pytest.raises(ValueError, match="must be a number or null"):
        ExperimentConfig.from_dict({"theta0": [0.2, 1.0], "epsilon": "1/n"})
    cfg = ExperimentConfig(theta0=(0.2, 1.0), n_obs=400)
    assert cfg.resolved_epsilon() == pytest.approx(0.05)
    with pytest.raises(ValueError, match=r"unknown config keys: \['nope'\] for kind 'bs'"):
        ExperimentConfig.from_dict({"theta0": [0.2, 1.0], "nope": 3})


def test_config_from_dict_checks_json_types():
    # an int is a number, null fills an optional field (epsilon: 1/sqrt(n));
    # a bool is never a number
    cfg = ExperimentConfig.from_dict(
        {"theta0": [0.2, 1], "x0": 1, "epsilon": 0.1, "n_grid_price": None}
    )
    assert cfg.theta0 == (0.2, 1) and cfg.x0 == 1 and cfg.n_grid_price is None
    null = ExperimentConfig.from_dict({"theta0": [0.2, 1.0], "n_obs": 400, "epsilon": None})
    assert null.resolved_epsilon() == 0.05
    for key, value, expected in [
        ("n_obs", 50.0, "an integer"),
        ("n_obs", True, "an integer"),
        ("alpha", "0.05", "a number"),
        ("epsilon", "1/sqrt(n)", "a number or null"),
        ("n_grid_price", "100", "an integer or null"),
        ("theta0", [True, 1.0], "a list of numbers"),
        ("theta0", [0.2, "1.0"], "a list of numbers"),
        ("theta0", [[0.2], 1.0], "a list of numbers"),
    ]:
        with pytest.raises(ValueError, match=f"config field '{key}' must be {expected}, got"):
            ExperimentConfig.from_dict({"theta0": [0.2, 1.0], key: value})


def test_config_rejects_overlapping_seed_blocks():
    from plugmc.experiments import IDX_OBSERVATION, IDX_PRICING

    # correction paths take indices 0.., observation paths 2**40 + r
    ExperimentConfig(theta0=(0.2, 1.0), n_paths_correction=IDX_OBSERVATION)
    with pytest.raises(ValueError, match="overlap the observation seed block"):
        ExperimentConfig(theta0=(0.2, 1.0), n_paths_correction=IDX_OBSERVATION + 1)
    ExperimentConfig(theta0=(0.2, 1.0), replications=IDX_PRICING - IDX_OBSERVATION)
    with pytest.raises(ValueError, match="overlap the pricing seed block"):
        ExperimentConfig(
            theta0=(0.2, 1.0), replications=IDX_PRICING - IDX_OBSERVATION + 1
        )


def test_bs_experiment_singular_information_fails_before_monte_carlo(monkeypatch):
    import plugmc.experiments as exp
    import plugmc.inference

    def no_pricing(*args, **kwargs):
        raise AssertionError("Monte Carlo pass started before the information was checked")

    monkeypatch.setattr(exp, "fisher_info", lambda *args: np.diag([1.0, 0.0]))
    monkeypatch.setattr(plugmc.inference, "estimate_C", no_pricing)
    with pytest.raises(ValueError, match=r"parameter\(s\) sigma not identified"):
        run_bs_experiment(ExperimentConfig(**FAST))


@pytest.mark.parametrize(
    "run, overrides, message",
    [
        (run_ou_oracle, {"theta0": (1.0, 0.3, 0.5), "discount": 0.0}, "discount must be > 0"),
        (run_bs_experiment, {"strike": -1.0, "eps_smooth": 1e-3}, "strike must be >= 0"),
        # alpha = 1.5 used to run the correction and every pricing pass, then
        # fail with "30 of 30 replications failed"; epsilon 1e-300 used to end
        # in a ZeroDivisionError from bs_closed_form
        *((run_bs_experiment, {"alpha": alpha}, r"alpha must be in \(0, 1\)")
          for alpha in (0.0, 1.0, 1.5, -0.05, float("nan"), 1e-300)),
        (run_bs_experiment, {"epsilon": 1e-300}, "eps must be 0, or > 0 with a finite, normal"),
        (run_bs_experiment, {"epsilon": 0.0}, "epsilon must be > 0 to estimate"),
    ],
)
def test_bad_closed_form_input_fails_before_monte_carlo(monkeypatch, run, overrides, message):
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the closed form checked its inputs")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    with pytest.raises(ValueError, match=message):
        run(ExperimentConfig(**{**FAST, **overrides}))


def test_bs_experiment_rows_and_summary():
    cfg = ExperimentConfig(**FAST)
    out = run_bs_experiment(cfg)
    assert len(out.rows) == 30
    assert out.summary["failed"] == 0
    assert np.asarray([row.z_hat for row in out.rows]).shape == (30,)
    assert 0.0 <= out.summary["ks_statistic"] <= 1.0
    assert 0.5 <= out.summary["coverage"] <= 1.0
    # z roughly centered at this scale
    assert abs(out.summary["z_mean"]) < 3 / np.sqrt(30) + 0.3
    assert out.summary["H_true"] == pytest.approx(0.4484, abs=2e-3)


def test_bs_experiment_mixed_rates():
    # eps strictly slower than 1/sqrt(n): the diffusion coordinate is masked
    # out of the normalization, and the pricing error stays calibrated
    out = run_bs_experiment(
        ExperimentConfig(
            theta0=(0.2, 1.0), n_obs=500, epsilon=0.1, n_paths_price=2000,
            n_paths_correction=20_000, replications=60, root_seed=41,
        )
    )
    s = out.summary
    assert s["ks_statistic"] < 1.358 / np.sqrt(60)  # 5% level
    assert abs(s["z_sd"] - 1.0) < 0.25


def test_bs_experiment_observes_over_obs_horizon():
    # observed over T_obs = 2, priced over T = 1: each estimate comes from
    # the T_obs path, and the normalization's information from the T_obs grid
    cfg = ExperimentConfig(**FAST, obs_horizon=2.0, horizon=1.0)
    out = run_bs_experiment(cfg)
    eps = cfg.resolved_epsilon()
    model = model_from_config(
        {"model": "bs", "params": list(cfg.theta0), "epsilon": eps, "x0": cfg.x0}
    )
    theta0 = model.theta0
    grid_obs = TimeGrid(2.0, cfg.n_obs)
    assert len(out.rows) == cfg.replications
    for row in out.rows:
        seed = path_seed(cfg.root_seed, IDX_OBSERVATION + row.replication)
        x = euler_path(model, theta0, sample_noise(grid_obs, NO_JUMPS, seed)).values
        est = bs_closed_form(Observations(grid=grid_obs, samples=x, eps=eps))
        assert row.theta_hat == tuple(float(v) for v in est.theta)

    functional = Functional(
        kind="smoothed_call_terminal", horizon=1.0, strike=cfg.strike, rate=cfg.rate,
        eps_smooth=cfg.resolved_eps_smooth(),
    )

    def asy_var(grid):
        info = fisher_info(model, theta0, deterministic_path(model, theta0, grid))
        return build_report(
            model, functional, theta0, contrast_rates(eps, cfg.n_obs, model.p), info,
            cfg.n_paths_correction, cfg.root_seed, cfg.price_grid(), alpha=cfg.alpha,
            start_index=IDX_CORRECTION,
        ).asy_var

    assert out.summary["asy_var_theta0"] == asy_var(grid_obs)
    assert out.summary["asy_var_theta0"] != asy_var(TimeGrid(1.0, cfg.n_obs))


def test_bs_experiment_deterministic():
    a = run_bs_experiment(ExperimentConfig(**FAST))
    b = run_bs_experiment(ExperimentConfig(**FAST))
    assert a.rows == b.rows
    assert a.summary == b.summary
    assert replications_csv(a) == replications_csv(b)


def test_bs_experiment_aborts_on_many_failures(monkeypatch):
    def fail(r):
        if r % 3 == 2:  # fail a third of replications
            raise ValueError("synthetic failure")

    _fail_replications(monkeypatch, fail)
    with pytest.raises(ValueError, match="10 of 30 replications failed"):
        run_bs_experiment(ExperimentConfig(**FAST))


def test_replications_csv_round_trip():
    out = run_bs_experiment(ExperimentConfig(**FAST))
    text = replications_csv(out)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert len(body) == len(out.rows)
    for parsed, row in zip(body, out.rows):
        rec = dict(zip(header, parsed))
        assert int(rec["replication"]) == row.replication
        assert float(rec["theta_hat_1"]) == row.theta_hat[0]
        assert float(rec["theta_hat_2"]) == row.theta_hat[1]
        assert float(rec["H_hat"]) == row.h_hat
        assert float(rec["z_hat"]) == row.z_hat
        assert bool(int(rec["covered"])) == row.covered


def test_output_files_written(tmp_path):
    out = run_bs_experiment(ExperimentConfig(**FAST))
    files = write_experiment_outputs(study_files(out), tmp_path)
    for name in ("replications.csv", "summary.json", "qq.csv", "histogram.csv"):
        assert (tmp_path / name).exists()
        assert (tmp_path / name).read_text() == files[name]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == out.summary


def test_qq_csv_sorted_pairs():
    z = np.array([0.5, -1.0, 0.1, 2.0])
    rows = list(csv.reader(io.StringIO(qq_csv(z))))[1:]
    emp = [float(r[1]) for r in rows]
    theo = [float(r[0]) for r in rows]
    assert emp == sorted(emp)
    assert theo == sorted(theo)
    assert theo[0] == pytest.approx(norm_ppf(0.5 / 4))


def test_histogram_fixed_bins():
    z = np.array([-5.0, -0.1, 0.1, 0.13, 3.9, 4.5])  # outside [-4, 4] dropped
    rows = list(csv.reader(io.StringIO(histogram_csv(z))))[1:]
    assert len(rows) == 32
    assert float(rows[0][0]) == -4.0 and float(rows[-1][1]) == 4.0
    counts = [int(r[2]) for r in rows]
    assert sum(counts) == 4


def test_ou_oracle_report():
    cfg = ExperimentConfig(
        theta0=(1.0, 0.3, 0.5),
        n_paths_correction=4000,
        n_grid_price=200,
        root_seed=99,
        jump_intensity=1.0,
    )
    rep = run_ou_oracle(cfg)
    assert rep["H_closed_form"] == pytest.approx(0.7972592077970716, abs=1e-12)
    assert rep["H_abs_error"] < 3 * rep["H_mc_se"] + 5.0 / 200
    # sigma never enters the mean: its gradient coordinate vanishes
    assert rep["grad_H_closed_form"][1] == 0.0


def test_model_from_config_variants():
    bs = model_from_config(
        {"model": "bs", "params": [0.2, 1.0], "epsilon": 0.05, "x0": 1.0}
    )
    assert bs.name == "bs_small_noise" and bs.epsilon == 0.05
    ou = model_from_config(
        {"model": "ou", "params": [1.0, 0.3, 0.5], "x0": 1.0, "jump": {"intensity": 2.0}}
    )
    assert ou.jump.intensity == 2.0
    assert model_from_config({"model": "ou", "params": [1.0, 0.3, 0.5]}).jump.intensity == 1.0
    levy = model_from_config({"model": "levy", "params": [0.1, 0.3, 0.5]})
    assert levy.name == "levy" and levy.jump.intensity == 1.0
    # each model's table is the one list of its keys: jump.mean only restated
    # ou's eta or levy's fixed 1, and a levy or bs jump intensity its fixed one
    for raw, message in [
        ({"model": "ou", "params": [1.0, 0.3, 0.5], "jump": {"mean": 0.5}},
         "unknown jump config keys: ['mean'] for model 'ou'"),
        ({"model": "levy", "params": [0.1, 0.3, 0.5], "jump": {"intensity": 1.0}},
         "unknown config keys: ['jump'] for model 'levy'"),
        ({"model": "bs", "params": [0.2, 1.0], "epsilon": 0.05, "jump": {"intensity": 0.0}},
         "unknown config keys: ['jump'] for model 'bs'"),
        ({"model": "heston", "params": []}, "unknown model 'heston' (expected bs, ou or levy)"),
    ]:
        with pytest.raises(ValueError) as err:
            model_from_config(raw)
        assert str(err.value) == message
    # a wrong count used to end in a bare "not enough values to unpack"
    for name, params, expected in [
        ("bs", [0.2], "model 'bs' takes 2 params (mu, sigma), got 1"),
        ("bs", [0.2, 1.0, 0.5], "model 'bs' takes 2 params (mu, sigma), got 3"),
        ("ou", [1.0, 0.3], "model 'ou' takes 3 params (mu, sigma, eta), got 2"),
        ("levy", [], "model 'levy' takes 3 params (mu, sigma, eta), got 0"),
    ]:
        epsilon = {"epsilon": 0.05} if name == "bs" else {}
        with pytest.raises(ValueError) as err:
            model_from_config({"model": name, "params": params, **epsilon})
        assert str(err.value) == expected


def test_functional_from_config():
    f = functional_from_config(
        {"kind": "smoothed_call_terminal", "K": 0.75, "r": 0.05, "T": 1.0,
         "epsilon_smooth": 0.00075}
    )
    assert f.strike == 0.75 and f.horizon == 1.0
    g = functional_from_config({"kind": "discounted_integral", "T": 1.0, "delta": 0.05})
    assert g.discount == 0.05
    # V, the integrand, could only be "identity"
    with pytest.raises(ValueError, match=r"unknown functional config keys: \['V'\]"):
        functional_from_config({"kind": "discounted_integral", "T": 1.0, "V": "identity"})
    with pytest.raises(ValueError, match="unknown functional kind 'lookback'"):
        functional_from_config({"kind": "lookback", "T": 1.0})


def test_seed_blocks_align_to_noise_blocks():
    for value in (IDX_OBSERVATION, IDX_PRICING):
        assert value % BLOCK_PATHS == 0


# The study's replications run in forked workers over contiguous index
# ranges; the worker count is forced through the private _worker_count.


def _study_files(monkeypatch, tmp_path, workers, **overrides):
    monkeypatch.setattr(exp, "_worker_count", lambda replications: workers)
    out = run_bs_experiment(ExperimentConfig(**{**FAST, **overrides}))
    files = write_experiment_outputs(study_files(out), tmp_path / f"workers{workers}")
    assert_no_child()
    return files


def _fail_replications(monkeypatch, fail):
    # fail(r) runs at the start of replication r, in the worker running it
    real = exp.sample_noise

    def observe(grid, jump, seed):
        fail((seed & ((1 << 64) - 1)) - IDX_OBSERVATION)
        return real(grid, jump, seed)

    monkeypatch.setattr(exp, "sample_noise", observe)


def test_worker_count_is_cpus_capped_at_replications():
    assert threading.active_count() == 1
    assert exp._worker_count(300) == min(len(os.sched_getaffinity(0)), 300)
    assert exp._worker_count(1) == 1
    # no fork while another thread is alive: the child would inherit its locks
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert exp._worker_count(300) == 1
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_worker_count_is_one_inside_a_worker():
    # a slice run in a forked worker forks no workers of its own
    def counts(start, stop):
        return exp._worker_count(100), plugmc.simulate._worker_count(100)

    assert in_slices(counts, 2, 2, "tests") == [(1, 1), (1, 1)]
    assert_no_child()
    assert plugmc.simulate._worker_count(100) == min(len(os.sched_getaffinity(0)), 100)


def test_study_pricing_in_workers_forks_no_further(monkeypatch, tmp_path):
    # 3000 pricing paths are two chunks, which a batch in the parent splits
    # over workers; a replication worker prices them in its own process
    parent = os.getpid()
    fork = os.fork

    def fork_in_parent_only():
        if os.getpid() != parent:
            raise AssertionError("a worker forked")
        return fork()

    monkeypatch.setattr(os, "fork", fork_in_parent_only)
    files = [
        _study_files(monkeypatch, tmp_path, w, replications=31, n_paths_price=3000)
        for w in (1, 2, 3)
    ]
    assert files[0] == files[1] == files[2]


def test_study_draws_each_pricing_chunk_once_per_group(monkeypatch, tmp_path):
    # A worker prices all its estimates in one call, or in groups of 3 when
    # a call may hold 9000 paths' values; either way it draws each of the
    # 3000 pricing paths once per call, and the files keep their bytes
    draws = tmp_path / "draws"
    real = plugmc.simulate._draw_chunk

    def draw(root_key, grid, jump, first, increments):
        if first >= IDX_PRICING:  # in whichever process draws it
            with open(draws, "a") as log:
                log.write(f"{increments.shape[1]}\n")
        return real(root_key, grid, jump, first, increments)

    monkeypatch.setattr(plugmc.simulate, "_draw_chunk", draw)
    files = []
    for values, workers in [(1 << 21, 1), (1 << 21, 3), (9000, 1), (9000, 2), (9000, 3)]:
        monkeypatch.setattr(exp, "PRICING_VALUES", values)
        draws.write_text("")
        files.append(_study_files(monkeypatch, tmp_path, workers, n_paths_price=3000))
        sizes = [30 * (w + 1) // workers - 30 * w // workers for w in range(workers)]
        calls = sum(-(-size // (values // 3000)) for size in sizes)
        assert sum(map(int, draws.read_text().split())) == 3000 * calls
    assert all(f == files[0] for f in files)
    # an estimate outside the parameter box fails in the first pass, so the
    # others are still priced in one call
    monkeypatch.setattr(exp, "PRICING_VALUES", 1 << 21)
    draws.write_text("")
    with pytest.raises(ValueError, match="replications failed; first: .* outside"):
        _study_files(monkeypatch, tmp_path, 1, theta0=(4.99, 1.0), n_paths_price=3000)
    assert sum(map(int, draws.read_text().split())) == 3000


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pricing_error_fails_its_own_replication_alone(monkeypatch, tmp_path, workers):
    # an error at one estimate fails its group's pricing call; the group is
    # then priced one estimate at a time, so only that replication fails
    clean = replications_csv(run_bs_experiment(ExperimentConfig(**FAST))).splitlines()
    bad = [float(v) for v in clean[8].split(",")[1:3]]  # replication 7's theta_hat
    real = exp.estimate_C

    def blow_up(model, functional, theta, *args, **kwargs):
        if any(list(row) == bad for row in np.atleast_2d(theta)):
            raise plugmc.simulate.SimulationBlowup(3)
        return real(model, functional, theta, *args, **kwargs)

    monkeypatch.setattr(exp, "estimate_C", blow_up)
    files = _study_files(monkeypatch, tmp_path, workers)
    assert json.loads(files["summary.json"])["failed"] == 1
    assert files["replications.csv"].splitlines() == clean[:8] + clean[9:]


@pytest.mark.parametrize("replications", [30, 31])
def test_study_outputs_identical_for_any_worker_count(monkeypatch, tmp_path, replications):
    # 31 replications split unevenly over 2 and 3 workers
    files = [
        _study_files(monkeypatch, tmp_path, w, replications=replications) for w in (1, 2, 3)
    ]
    assert files[0] == files[1] == files[2]
    assert json.loads(files[0]["summary.json"])["replications"] == replications


def test_study_failures_identical_for_any_worker_count(monkeypatch, tmp_path):
    # one recorded failure (of at most 5% of 31) in the last slice of 2 and 3
    def fail(r):
        if r == 27:
            raise ValueError(f"synthetic failure at {r}")

    _fail_replications(monkeypatch, fail)
    files = [_study_files(monkeypatch, tmp_path, w, replications=31) for w in (1, 2, 3)]
    assert files[0] == files[1] == files[2]
    assert json.loads(files[0]["summary.json"])["failed"] == 1
    assert "\n27," not in files[0]["replications.csv"]


def test_study_abort_names_lowest_failure_for_any_worker_count(monkeypatch, tmp_path):
    # failures in the second and third of 3 slices; the message names the
    # lowest index, as a serial run does
    def fail(r):
        if r in (12, 21, 25):
            raise RuntimeError(f"synthetic failure at {r}")

    _fail_replications(monkeypatch, fail)
    messages = []
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="3 of 31 replications failed") as err:
            _study_files(monkeypatch, tmp_path, workers, replications=31)
        assert_no_child()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0].endswith("first: (12, 'synthetic failure at 12')")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_study_worker_error_raised_in_parent(monkeypatch, tmp_path, workers):
    # an error that is not a replication failure ends the study with its
    # type and message, from whichever worker raised it
    def fail(r):
        if r == 20:
            raise TypeError(f"synthetic type error at {r}")

    _fail_replications(monkeypatch, fail)
    with pytest.raises(TypeError, match="^synthetic type error at 20$"):
        _study_files(monkeypatch, tmp_path, workers, replications=31)
    assert_no_child()


def test_study_unpicklable_worker_error_sent_as_runtime_error(monkeypatch, tmp_path):
    class Local(Exception):  # a local class does not pickle
        pass

    def fail(r):
        if r == 20:
            raise Local("synthetic")

    _fail_replications(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"^Local\('synthetic'\)$"):
        _study_files(monkeypatch, tmp_path, 2, replications=31)
    assert_no_child()


def test_study_error_kills_busy_worker(monkeypatch, tmp_path):
    # an error in the first slice ends the study at once: the worker of
    # the second slice, still busy, is killed and waited for
    def fail(r):
        if r == 0:
            raise TypeError("synthetic type error at 0")
        if r == 15:
            time.sleep(120)

    _fail_replications(monkeypatch, fail)
    start = time.monotonic()
    with pytest.raises(TypeError, match="^synthetic type error at 0$"):
        _study_files(monkeypatch, tmp_path, 2, replications=31)
    assert time.monotonic() - start < 60
    assert_no_child()


@pytest.mark.parametrize(
    "end, status",
    [(lambda: os._exit(3), "exit code 3"), (lambda: os.kill(os.getpid(), 9), "signal 9")],
    ids=["exit", "killed"],
)
def test_study_worker_ending_without_result(monkeypatch, tmp_path, end, status):
    # a worker that dies without a payload is named with its slice and
    # exit status; its sibling is killed and waited for
    parent = os.getpid()

    def fail(r):
        if r == 20 and os.getpid() != parent:
            end()

    _fail_replications(monkeypatch, fail)
    with pytest.raises(
        RuntimeError,
        match=rf"^the worker for replications 15\.\.30 ended without a result \({status}\)$",
    ):
        _study_files(monkeypatch, tmp_path, 2, replications=31)
    assert_no_child()
