"""Command-line interface: formats, determinism, end-to-end wiring."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import plugmc
from plugmc.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


SIM_ARGS = [
    "simulate", "--model", "bs", "--params", "0.2,1.0",
    "--epsilon", "0.04472135954999579", "--n", "20", "--T", "1.0",
    "--seed", "5", "--paths", "3",
]


def test_simulate_csv_shape(capsys):
    out = run_cli(SIM_ARGS, capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "path_id,t,X,Y1,Y2"
    assert len(lines) == 1 + 3 * 21
    first = lines[1].split(",")
    assert first[:2] == ["0", "0.0"] and float(first[2]) == 1.0


def test_simulate_deterministic(capsys):
    a = run_cli(SIM_ARGS, capsys)
    b = run_cli(SIM_ARGS, capsys)
    assert a == b


def test_simulate_ou_has_three_sensitivities(capsys):
    out = run_cli(
        ["simulate", "--model", "ou", "--params", "1.0,0.3,0.5", "--n", "10",
         "--seed", "1", "--paths", "1"],
        capsys,
    )
    assert out.split("\n")[0] == "path_id,t,X,Y1,Y2,Y3"


@pytest.mark.parametrize("paths", ["0", "-2"])
def test_simulate_rejects_nonpositive_paths(paths, capsys):
    with pytest.raises(SystemExit) as err:
        main(SIM_ARGS[:-1] + [paths])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert f"argument --paths: must be >= 1, got {int(paths)}" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--params", "0.2"], "model 'bs' takes 2 params (mu, sigma), got 1"),
        (["--params", "0.2,1.0", "--n", "0"], "steps must be >= 1, got 0"),
        # used to print the CSV header, then fail
        (["--params", "0.2,nan"], "bs_small_noise: sigma = nan outside [1e-08, 10.0]"),
    ],
)
def test_simulate_input_error_exits_2_without_traceback(args, message, capsys):
    assert main(["simulate", "--model", "bs"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plugmc simulate: error: {message}\n"


@pytest.mark.parametrize("model", ["ou", "levy"])
def test_simulate_rejects_epsilon_for_models_without_noise_scale(model, capsys):
    base = ["simulate", "--model", model, "--params", "1.0,0.3,0.5", "--n", "5"]
    assert main(base + ["--epsilon", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"plugmc simulate: error: unknown config keys: ['epsilon'] for model '{model}'\n"
    )
    assert run_cli(base, capsys).startswith("path_id,t,X,Y1,Y2,Y3\n")


def test_simulate_rejects_jump_intensities_bs_and_levy_do_not_have(capsys):
    # the levy jump law is fixed and bs has none: levy intensity 5 used to
    # give intensity 1's bytes, and levy 1 and bs 0 were taken as restating them
    for model, params in (("levy", "0.1,0.3,0.5"), ("bs", "0.2,1.0")):
        for intensity in ("0", "1", "5"):
            argv = ["simulate", "--model", model, "--params", params, "--n", "5"]
            assert main(argv + ["--jump-intensity", intensity]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"plugmc simulate: error: unknown config keys: ['jump'] for model '{model}'\n"
            )


def test_simulate_bs_epsilon_defaults_to_one(capsys):
    base = ["simulate", "--model", "bs", "--params", "0.2,1.0", "--n", "5", "--seed", "3"]
    assert run_cli(base, capsys) == run_cli(base + ["--epsilon", "1.0"], capsys)


def test_estimate_round_trip(tmp_path, capsys):
    data = run_cli(
        ["simulate", "--model", "bs", "--params", "0.2,1.0",
         "--epsilon", "0.04472135954999579", "--n", "500", "--seed", "7",
         "--paths", "1"],
        capsys,
    )
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(data)
    out = run_cli(
        ["estimate", "--data", str(csv_path), "--epsilon", "0.04472135954999579"],
        capsys,
    )
    parsed = json.loads(out)
    assert parsed["converged"] is True
    assert abs(parsed["mu_hat"] - 0.2) < 5 * 0.0447
    assert abs(parsed["sigma_hat"] - 1.0) < 5 / np.sqrt(1000)
    assert parsed["rates"][0] == pytest.approx(0.04472135954999579)


def test_estimate_deterministic(tmp_path, capsys):
    data = run_cli(
        ["simulate", "--model", "bs", "--params", "0.2,1.0",
         "--epsilon", "0.04472135954999579", "--n", "100", "--seed", "3",
         "--paths", "1"],
        capsys,
    )
    (tmp_path / "obs.csv").write_text(data)
    args = ["estimate", "--data", str(tmp_path / "obs.csv"), "--epsilon", "0.04472135954999579"]
    assert run_cli(args, capsys) == run_cli(args, capsys)


@pytest.fixture
def price_config(tmp_path):
    cfg = {
        "model": "bs",
        "params": [0.2, 1.0],
        "epsilon": 0.04472135954999579,
        "x0": 1.0,
        "functional": {
            "kind": "smoothed_call_terminal", "K": 0.75, "r": 0.05, "T": 1.0,
            "epsilon_smooth": 0.00075,
        },
        "B": 1000,
        "seed": 11,
        "n": 100,
    }
    path = tmp_path / "price.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_price_output(price_config, capsys):
    out = run_cli(["price", "--config", price_config], capsys)
    parsed = json.loads(out)
    assert parsed["ci_low"] <= parsed["H_hat"] <= parsed["ci_high"]
    assert parsed["asy_var"] >= 0
    assert len(parsed["C_hat"]) == 2


def test_price_deterministic(price_config, capsys):
    args = ["price", "--config", price_config]
    assert run_cli(args, capsys) == run_cli(args, capsys)


def test_price_with_external_estimator_inputs(tmp_path, capsys):
    # models whose estimators live elsewhere plug in through explicit
    # per-coordinate rates and an information matrix in the config
    cfg = {
        "model": "ou",
        "params": [1.0, 0.3, 0.5],
        "x0": 1.0,
        "jump": {"intensity": 1.0},
        "functional": {"kind": "discounted_integral", "T": 1.0, "delta": 0.05},
        "B": 1000,
        "seed": 3,
        "n": 200,
        "rates": [0.05, 0.01, 0.05],
        "fisher": [[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 1.5]],
    }
    path = tmp_path / "ou_price.json"
    path.write_text(json.dumps(cfg))
    out = json.loads(run_cli(["price", "--config", str(path)], capsys))
    assert len(out["C_hat"]) == 3
    assert out["gamma_star"] == pytest.approx(0.05)
    assert out["ci_low"] <= out["H_hat"] <= out["ci_high"]
    # the middle coordinate converges faster and is masked out of the variance
    c = np.array(out["C_hat"])
    expected_var = c[0] ** 2 / 2.0 + c[2] ** 2 / 1.5
    assert out["asy_var"] == pytest.approx(expected_var, rel=1e-9)


def test_price_unidentified_parameter_fails_before_simulating(tmp_path, monkeypatch, capsys):
    # at jump intensity 0 the ou observations say nothing about eta; this
    # used to simulate every path and then die in a bare LinAlgError
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the information was checked")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    cfg = {
        "model": "ou",
        "params": [1.0, 0.3, 0.5],
        "x0": 1.0,
        "jump": {"intensity": 0.0},
        "functional": {"kind": "discounted_integral", "T": 1.0, "delta": 0.05},
        "B": 1000,
        "n": 50,
    }
    path = tmp_path / "ou_no_jumps.json"
    path.write_text(json.dumps(cfg))
    assert main(["price", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "plugmc price: error: ou_jump: singular information matrix, "
        "parameter(s) eta not identified\n"
    )


@pytest.fixture
def experiment_config(tmp_path):
    cfg = {
        "kind": "bs",
        "theta0": [0.2, 1.0],
        "n_obs": 50,
        "n_paths_price": 1000,
        "n_paths_correction": 2000,
        "replications": 30,
        "root_seed": 2024,
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_experiment_writes_artifacts(experiment_config, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    out = run_cli(
        ["experiment", "--config", experiment_config, "--out", str(out_dir)], capsys
    )
    summary = json.loads(out)
    assert summary["replications"] == 30
    for name in ("replications.csv", "summary.json", "qq.csv", "histogram.csv"):
        assert (out_dir / name).exists()


def test_experiment_deterministic_bytes(experiment_config, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    outs = []
    for d in dirs:
        outs.append(
            run_cli(["experiment", "--config", experiment_config, "--out", str(d)], capsys)
        )
    assert outs[0] == outs[1]
    for name in ("replications.csv", "summary.json", "qq.csv", "histogram.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_experiment_ou_oracle_kind(tmp_path, capsys):
    cfg = {
        "kind": "ou_oracle",
        "theta0": [1.0, 0.3, 0.5],
        "n_paths_correction": 2000,
        "n_grid_price": 100,
        "root_seed": 5,
    }
    path = tmp_path / "ou.json"
    path.write_text(json.dumps(cfg))
    out = run_cli(["experiment", "--config", str(path)], capsys)
    parsed = json.loads(out)
    assert parsed["kind"] == "ou_oracle"
    assert parsed["H_closed_form"] == pytest.approx(0.79726, abs=1e-4)


PRICE_CFG = {
    "model": "bs", "params": [0.2, 1.0], "epsilon": 0.05,
    "functional": {"kind": "smoothed_call_terminal", "K": 0.75, "T": 1.0},
    "B": 1000, "n": 20,
}
OU_PRICE_CFG = {
    "model": "ou", "params": [1.0, 0.3, 0.5], "jump": {"intensity": 1.0},
    "functional": {"kind": "discounted_integral", "T": 1.0, "delta": 0.05},
    "B": 1000, "n": 20,
}
LEVY_PRICE_CFG = {
    **{k: v for k, v in OU_PRICE_CFG.items() if k != "jump"}, "model": "levy",
    "params": [0.1, 0.3, 0.5],
}
OBS_CSV = "t,X\n0.0,1.0\n0.5,1.1\n1.0,1.2\n"


@pytest.mark.parametrize(
    "command, content, extra, message",
    [
        ("experiment", {"n_obs": 50}, [], "config lacks 'theta0'"),
        ("experiment", {"kind": "nope", "theta0": [0.2, 1.0]}, [],
         "unknown experiment kind 'nope' (expected bs or ou_oracle)"),
        ("price", None, [], "cannot read {file}: No such file or directory"),
        ("price", {k: v for k, v in PRICE_CFG.items() if k != "functional"}, [],
         "config lacks 'functional'"),
        ("price", {**PRICE_CFG, "functional": {"T": 1.0}}, [],
         "functional config lacks 'kind'"),
        ("price", {k: v for k, v in PRICE_CFG.items() if k != "epsilon"}, [],
         "bs model config lacks 'epsilon'"),
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"],
                                               "epsilon_smooth": float("nan")}}, [],
         "eps_smooth must be finite, got nan"),
        ("estimate", "s,Y\n0.0,1.0\n1.0,1.2\n", [], "data CSV must have 't' and 'X' columns"),
        ("estimate", "t,X\n0.0,1.0\n0.3,1.1\n1.0,1.2\n", [],
         "data must be sampled on a uniform grid"),
        ("estimate", OBS_CSV, ["--model", "ou"],
         "estimation is implemented for the bs model, not 'ou'"),
        ("estimate", "t,X\n0.0,1.0\n0.5\n1.0,1.2\n", [],
         "data CSV line 3 has fewer fields than the header (1 < 2)"),
        ("experiment", {"theta0": 0.2}, [], "config field 'theta0' must be a list, got 0.2"),
        ("experiment", {"theta0": [0.2, 1.0], "replications": "30"}, [],
         "config field 'replications' must be an integer, got '30'"),
        ("price", [PRICE_CFG], [], "config {file} must be a JSON object, got list"),
        ("price", {**OU_PRICE_CFG, "epsilon": 0.1}, [],
         "unknown config keys: ['epsilon'] for model 'ou'"),
        ("price", {**LEVY_PRICE_CFG, "epsilon": 0.1}, [],
         "unknown config keys: ['epsilon'] for model 'levy'"),
        ("price", {**PRICE_CFG, "params": 0.2}, [], "config field 'params' must be a list, got 0.2"),
        ("price", {**PRICE_CFG, "functional": [1]}, [],
         "config field 'functional' must be an object, got [1]"),
        ("price", {**OU_PRICE_CFG, "jump": [1]}, [], "config field 'jump' must be an object, got [1]"),
        ("price", {**PRICE_CFG, "n": 2.5}, [], "config field 'n' must be an integer, got 2.5"),
        ("price", {**PRICE_CFG, "B": 1000.0}, [], "config field 'B' must be an integer, got 1000.0"),
        ("price", {**PRICE_CFG, "seed": 1.5}, [], "config field 'seed' must be an integer, got 1.5"),
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"], "K": "0.75"}}, [],
         "functional config field 'K' must be a number, got '0.75'"),
        ("price", {**OU_PRICE_CFG, "jump": {"intensity": "1"}}, [],
         "jump config field 'intensity' must be a number, got '1'"),
        ("price", {**PRICE_CFG, "params": [True, 1.0]}, [],
         "config field 'params' must be a list of numbers, got [True, 1.0]"),
        ("experiment", {"theta0": [True, "1.0"]}, [],
         "config field 'theta0' must be a list of numbers, got [True, '1.0']"),
        ("price", {**PRICE_CFG, "rates": [0.5, "0.5"]}, [],
         "config field 'rates' must be a list of numbers, got [0.5, '0.5']"),
        ("price", {**PRICE_CFG, "fisher": [1.0, 2.0]}, [],
         "config field 'fisher' must be a list of lists of numbers, got [1.0, 2.0]"),
        ("price", {**PRICE_CFG, "fisher": [[1.0, 0.0], [0.0, False]]}, [],
         "config field 'fisher' must be a list of lists of numbers, "
         "got [[1.0, 0.0], [0.0, False]]"),
        ("price", {**OU_PRICE_CFG, "model": "levy", "jump": {"intensity": 5.0}}, [],
         "unknown config keys: ['jump'] for model 'levy'"),
        ("price", {**OU_PRICE_CFG, "model": "levy", "jump": {"mean": 0.5}}, [],
         "unknown config keys: ['jump'] for model 'levy'"),
        ("price", {**PRICE_CFG, "epsilon": float("nan")}, [], "eps must be finite, got nan"),
        ("price", json.dumps({**PRICE_CFG, "epsilon": "E"}).replace('"E"', "1e400"), [],
         "eps must be finite, got inf"),
        ("price", {**PRICE_CFG, "x0": float("inf")}, [], "x0 must be finite, got inf"),
        ("price", {**OU_PRICE_CFG, "x0": float("nan")}, [], "x0 must be finite, got nan"),
        ("price", {**LEVY_PRICE_CFG, "x0": float("nan")}, [],
         "x0 must be finite, got nan"),
        ("price", {**OU_PRICE_CFG, "jump": {"intensity": float("nan")}}, [],
         "jump intensity must be finite, got nan"),
        ("price", {**OU_PRICE_CFG, "jump": {"intensity": float("inf")}}, [],
         "jump intensity must be finite, got inf"),
        # used to fail as a non-finite or singular information matrix
        ("price", {**PRICE_CFG, "params": [0.2, float("nan")]}, [],
         "bs_small_noise: sigma = nan outside [1e-08, 10.0]"),
        ("price", json.dumps({**PRICE_CFG, "params": [0.2, "E"]}).replace('"E"', "1e400"), [],
         "bs_small_noise: sigma = inf outside [1e-08, 10.0]"),
        # used to fail with an IndexError traceback and an unpacking error
        ("experiment", {"theta0": [0.2]}, [], "model 'bs' takes 2 params (mu, sigma), got 1"),
        ("experiment", {"kind": "ou_oracle", "theta0": [1.0, 0.3]}, [],
         "model 'ou' takes 3 params (mu, sigma, eta), got 2"),
        # each used to run with the key ignored: "strike" in place of "K"
        # priced at K = 0, and bs ran without jumps
        ("price", {**PRICE_CFG, "paths": 1000}, [],
         "unknown config keys: ['paths'] for model 'bs'"),
        ("price", {**PRICE_CFG, "functional": {"kind": "smoothed_call_terminal", "strike": 0.75,
                                               "T": 1.0}}, [],
         "unknown functional config keys: ['strike'] for kind 'smoothed_call_terminal'"),
        ("price", {**OU_PRICE_CFG, "jump": {"intensity": 1.0, "size_sd": 0.5}}, [],
         "unknown jump config keys: ['size_sd'] for model 'ou'"),
        ("price", {**PRICE_CFG, "jump": {"mean": 3.0}}, [],
         "unknown config keys: ['jump'] for model 'bs'"),
        # each used to run with the other kind's key ignored, or fail on the
        # bound of a field the kind never reads
        ("experiment", {"kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5], "strike": 99}, [],
         "unknown config keys: ['strike'] for kind 'ou_oracle'"),
        ("experiment", {"theta0": [0.2, 1.0], "discount": 7, "jump_intensity": 3}, [],
         "unknown config keys: ['discount', 'jump_intensity'] for kind 'bs'"),
        ("experiment", {"kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5], "replications": 5}, [],
         "unknown config keys: ['replications'] for kind 'ou_oracle'"),
        # each used to run with the keys its kind does not read ignored, or
        # read a key that only restated another value
        ("price", {**OU_PRICE_CFG, "functional": {"kind": "terminal", "T": 1, "K": 5, "delta": 3,
                                                  "r": 9}}, [],
         "unknown functional config keys: ['K', 'delta', 'r'] for kind 'terminal'"),
        ("price", {**OU_PRICE_CFG, "functional": {**OU_PRICE_CFG["functional"], "V": "identity"}},
         [], "unknown functional config keys: ['V'] for kind 'discounted_integral'"),
        ("price", {**OU_PRICE_CFG, "jump": {"mean": 0.5}}, [],
         "unknown jump config keys: ['mean'] for model 'ou'"),
        ("price", {**PRICE_CFG, "jump": {"intensity": 0.0}}, [],
         "unknown config keys: ['jump'] for model 'bs'"),
        ("experiment", {"theta0": [0.2, 1.0], "epsilon": "1/sqrt(n)"}, [],
         "config field 'epsilon' must be a number or null, got '1/sqrt(n)'"),
        # each used to exit 0 with an interval of zero width, a masked
        # coordinate or infinite ends, fail after every path, or end in a
        # ZeroDivisionError traceback
        ("price", {**PRICE_CFG, "rates": [0, 0]}, [],
         "rates must be finite and > 0, got [0.0, 0.0]"),
        ("price", {**PRICE_CFG, "rates": [-1, 0.1]}, [],
         "rates must be finite and > 0, got [-1.0, 0.1]"),
        ("price", json.dumps({**PRICE_CFG, "rates": ["N", 0.1]}).replace('"N"', "NaN"), [],
         "rates must be finite and > 0, got [nan, 0.1]"),
        ("price", {**PRICE_CFG, "alpha": 1e-300}, [],
         "alpha must be in (0, 1) with z_(alpha/2) finite, got 1e-300"),
        ("experiment", {"theta0": [0.2, 1.0], "alpha": 1e-300}, [],
         "alpha must be in (0, 1) with z_(alpha/2) finite, got 1e-300"),
        ("price", {**PRICE_CFG, "epsilon": 0.0}, [],
         "bs_small_noise: epsilon must be > 0 to estimate, got 0.0"),
        ("experiment", {"theta0": [0.2, 1.0], "epsilon": 1e-300}, [],
         "eps must be 0, or > 0 with a finite, normal square, got 1e-300"),
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"], "K": -1}}, [],
         "strike must be >= 0, got -1.0"),
        ("price", {**OU_PRICE_CFG, "functional": {**OU_PRICE_CFG["functional"], "delta": -1}}, [],
         "discount must be >= 0, got -1.0"),
        # each used to run every path and then fail with "InferenceReport:
        # h_hat is not finite", or, for the intensity, "information matrix is
        # not finite", none of which named the input
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"], "K": 1e308}}, [],
         "strike and eps_smooth must have a finite sum of squares, got 1e+308 and 0.0"),
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"], "epsilon_smooth": 1e200}},
         [], "strike and eps_smooth must have a finite sum of squares, got 0.75 and 1e+200"),
        ("price", {**PRICE_CFG, "functional": {**PRICE_CFG["functional"], "r": -1e308}}, [],
         "rate must give a finite, positive discount factor e^(-rT), got rate -1e+308 with "
         "horizon 1.0"),
        ("price", {**OU_PRICE_CFG, "jump": {"intensity": 1e300}}, [],
         "jump intensity 1e+300 over horizon 1.0 gives a Poisson mean above numpy's limit "
         "9.22337e+18"),
        # each used to run every path and then fail with "covariance must be
        # symmetric" or "... positive semi-definite", naming no input
        ("price", {**PRICE_CFG, "fisher": [[1.0, 0.5], [0.0, 1.0]]}, [],
         "information matrix is not symmetric: [[1.0, 0.5], [0.0, 1.0]]"),
        ("price", {**PRICE_CFG, "fisher": [[1.0, 0.0], [0.0, -1.0]]}, [],
         "information matrix is not positive definite: eigenvalues [-1.0, 1.0]"),
        ("price", {**PRICE_CFG, "fisher": [[float("nan"), 0.0], [0.0, 1.0]]}, [],
         "information matrix is not finite: [[nan, 0.0], [0.0, 1.0]]"),
        # a time 0.004 off the grid used to pass numpy's default relative
        # tolerance (1e-5 * t), and the estimator took every step as exact
        ("estimate", "t,X\n0.0,1.0\n500.004,1.1\n1000.0,1.2\n", [],
         "data must be sampled on a uniform grid"),
        # a CSV of `plugmc simulate --paths 2` used to fail as a grid that is
        # not uniform
        ("estimate", "path_id,t,X\n0,0.0,1.0\n0,1.0,1.1\n1,0.0,1.0\n1,1.0,1.2\n", [],
         "data CSV holds 2 paths (path_id); estimate reads one"),
        # the oracle observes nothing: n_obs only restated its pricing grid
        ("experiment", {"kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5], "n_obs": 20}, [],
         "unknown config keys: ['n_obs'] for kind 'ou_oracle'"),
    ],
)
def test_config_and_data_errors_exit_2(
    command, content, extra, message, tmp_path, monkeypatch, capsys
):
    # each used to escape as a traceback or as a bare SystemExit with exit 1
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the input was checked")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    path = tmp_path / "input"
    if isinstance(content, (dict, list)):
        path.write_text(json.dumps(content))
    elif content is not None:
        path.write_text(content)
    if command == "estimate":
        argv = ["estimate", "--data", str(path), "--epsilon", "0.1"]
    else:
        argv = [command, "--config", str(path)]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plugmc {command}: error: {message.format(file=path)}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--model", "bs", "--params", "0.2,1.0", "--epsilon", "nan"],
         "eps must be finite, got nan"),
        (["--model", "bs", "--params", "0.2,1.0", "--epsilon", "inf"],
         "eps must be finite, got inf"),
        (["--model", "bs", "--params", "0.2,1.0", "--x0", "inf"], "x0 must be finite, got inf"),
        (["--model", "ou", "--params", "1.0,0.3,0.5", "--x0", "nan"],
         "x0 must be finite, got nan"),
        (["--model", "levy", "--params", "0.1,0.3,0.5", "--x0", "nan"],
         "x0 must be finite, got nan"),
        (["--model", "ou", "--params", "1.0,0.3,0.5", "--jump-intensity", "nan"],
         "jump intensity must be finite, got nan"),
        (["--model", "ou", "--params", "1.0,0.3,0.5", "--jump-intensity", "inf"],
         "jump intensity must be finite, got inf"),
        # finite, but a Poisson mean that numpy's draw refuses
        (["--model", "ou", "--params", "1.0,0.3,0.5", "--jump-intensity", "1e19"],
         "jump intensity 1e+19 over horizon 1.0 gives a Poisson mean above numpy's limit "
         "9.22337e+18"),
    ],
)
def test_simulate_rejects_non_finite_constants(args, message, capsys):
    # each used to print the CSV header and then fail: a SimulationBlowup
    # traceback (exit 1), or numpy's "lam value too large" from the draw
    assert main(["simulate", *args, "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plugmc simulate: error: {message}\n"


def test_failed_study_exits_2_with_one_error_line(tmp_path, capsys):
    # theta0 at the edge of the box: mu_hat leaves it in 13 of 30
    # replications; this used to end in a RuntimeError traceback with exit 1
    path = tmp_path / "study.json"
    path.write_text(json.dumps({
        "theta0": [4.99, 1.0], "n_obs": 50, "replications": 30,
        "n_paths_price": 1000, "n_paths_correction": 1000,
    }))
    assert main(["experiment", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "plugmc experiment: error: 13 of 30 replications failed; first: "
        "(0, 'bs_small_noise: mu = 5.013156246154017 outside [-5.0, 5.0]')\n"
    )


def test_simulate_blowup_exits_2_with_one_error_line(capsys):
    # a finite, accepted noise scale overflows X; this used to end in a
    # SimulationBlowup traceback with exit 1, after numpy overflow warnings
    # (1e150: a scale whose square overflows, such as 1e300, is refused)
    argv = ["simulate", "--model", "bs", "--params", "0.2,1", "--epsilon", "1e150", "--n", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "plugmc simulate: error: non-finite state at step 3 in X (path index 0)\n"
    )


STUDY_CFGS = {
    "bs": {"kind": "bs", "theta0": [0.2, 1.0], "n_obs": 20, "n_paths_price": 1000,
           "n_paths_correction": 1000, "replications": 30, "root_seed": 3},
    "ou_oracle": {"kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5],
                  "n_paths_correction": 1000, "n_grid_price": 20, "root_seed": 3},
}


@pytest.mark.parametrize("where", ["existing_file", "under_a_file", "empty"])
@pytest.mark.parametrize("kind", sorted(STUDY_CFGS))
def test_unwritable_out_exits_2_before_any_path(kind, where, tmp_path, monkeypatch, capsys):
    # each used to run the whole study or oracle and then end in a
    # FileExistsError or NotADirectoryError traceback with exit 1; an
    # empty --out exited 0 and wrote nothing
    import plugmc.inference

    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the output directory was made")

    monkeypatch.setattr(plugmc.inference, "simulate_batch", no_simulation)
    config = tmp_path / "study.json"
    config.write_text(json.dumps(STUDY_CFGS[kind]))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir, message = {
        "existing_file": (str(blocker), f"cannot write {blocker}: File exists"),
        "under_a_file": (str(blocker / "d"), f"cannot write {blocker / 'd'}: Not a directory"),
        "empty": ("", "the output directory path is empty"),
    }[where]
    assert main(["experiment", "--config", str(config), "--out", out_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"plugmc experiment: error: {message}\n"


@pytest.mark.parametrize("kind", sorted(STUDY_CFGS))
def test_out_dir_gets_the_printed_summary(kind, tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps(STUDY_CFGS[kind]))
    out_dir = tmp_path / "a" / "b"
    out = run_cli(["experiment", "--config", str(config), "--out", str(out_dir)], capsys)
    names = ["summary.json"]
    if kind == "bs":
        names += ["histogram.csv", "qq.csv", "replications.csv"]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
    assert (out_dir / "summary.json").read_text() == out


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    config = tmp_path / "oracle.json"
    config.write_text(json.dumps(STUDY_CFGS["ou_oracle"]))
    (tmp_path / "summary.json").mkdir()
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"plugmc experiment: error: cannot write {tmp_path / 'summary.json'}: Is a directory\n"
    )


REFUSED_STUDIES = {
    "bs": ({**STUDY_CFGS["bs"], "theta0": [9.0, 1.0]},
           "bs_small_noise: mu = 9.0 outside [-5.0, 5.0]"),
    "ou_oracle": ({**STUDY_CFGS["ou_oracle"], "jump_intensity": -1.0},
                  "jump intensity must be >= 0, got -1.0"),
}


@pytest.mark.parametrize("kind", sorted(REFUSED_STUDIES))
def test_refused_study_leaves_no_directory_it_made(kind, tmp_path, capsys):
    # each used to exit 2 and leave the new --out directory behind, empty
    config, message = REFUSED_STUDIES[kind]
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    existing = tmp_path / "existing"
    existing.mkdir()
    for out_dir in (tmp_path / "new" / "deeper", existing / "new", existing):
        assert main(["experiment", "--config", str(path), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"plugmc experiment: error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "study.json"]
        assert list(existing.iterdir()) == []


def test_calls_in_one_process_print_what_separate_processes_print(tmp_path, capsys):
    # main reuses one parser per process: a usage error, then two commands,
    # in one process print what each prints in a fresh interpreter
    src = os.path.dirname(os.path.dirname(plugmc.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "plugmc.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    data = tmp_path / "obs.csv"
    simulate = SIM_ARGS[:-1] + ["1"]
    estimate = ["estimate", "--data", str(data), "--epsilon", "0.04472135954999579"]
    with pytest.raises(SystemExit):
        main(SIM_ARGS[:-1] + ["0"])
    capsys.readouterr()
    simulated = run_cli(simulate, capsys)
    data.write_text(simulated)
    estimated = run_cli(estimate, capsys)
    assert simulated == fresh(simulate)
    assert estimated == fresh(estimate)
