"""Command-line entry points.

Subcommands:
  simulate    seeded (X, Y) paths as CSV
  estimate    contrast estimation from an observation CSV, JSON out
  price       plug-in Monte Carlo value with confidence interval, JSON out
  experiment  replicated study driver, JSON out, and its files in --out

All outputs are deterministic given the config and seed.  An input the
program rejects (an unreadable file, an output it cannot write, a config
that is not a JSON object, lacks a required field or holds an unknown
key or a value of the wrong type, bad data: a ValueError raised by a
command), and a path that blows up (a SimulationBlowup), is reported as
`plugmc <command>: error: <message>` on standard error, with exit code 2,
the code argparse uses for its own usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from .estimate import Observations, contrast_rates, minimize_contrast
from .experiments import (
    MATRIX,
    ExperimentConfig,
    csv_text,
    functional_from_config,
    json_text,
    model_from_config,
    run_bs_experiment,
    run_ou_oracle,
    study_files,
    write_experiment_outputs,
)
from .inference import build_report
from .simulate import SimulationBlowup, TimeGrid, coupled_paths, path_seed, sample_noise


# JSON types of the price config keys cmd_price reads itself, beside its model's
_PRICE_FIELDS = {
    "functional": (dict,), "B": (int,), "seed": (int,), "n": (int,),
    "rates": (tuple,), "fisher": (MATRIX,), "alpha": (float,),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _load_json(path: str) -> dict:
    raw = json.loads(_read(path))
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    return raw


def cmd_simulate(args) -> int:
    params = [float(v) for v in args.params.split(",")]
    config = {"model": args.model, "params": params, "x0": args.x0}
    if args.epsilon is not None or args.model == "bs":
        config["epsilon"] = 1.0 if args.epsilon is None else args.epsilon
    if args.jump_intensity is not None:
        config["jump"] = {"intensity": args.jump_intensity}
    model = model_from_config(config)
    grid = TimeGrid(args.T, args.n)
    times = grid.times()

    def rows():
        for i in range(args.paths):
            bundle = sample_noise(grid, model.jump, path_seed(args.seed, i))
            cp = coupled_paths(model, model.theta0, bundle)
            # csv writes a float as its repr, as Python floats from tolist()
            yield from ([i, *row] for row in np.column_stack((times, cp.x, cp.y)).tolist())

    header = ["path_id", "t", "X"] + [f"Y{i + 1}" for i in range(model.p)]
    args.out.write(csv_text(header, rows()))
    return 0


def cmd_estimate(args) -> int:
    if args.model != "bs":
        raise ValueError(f"estimation is implemented for the bs model, not {args.model!r}")
    rows = list(csv.reader(io.StringIO(_read(args.data))))
    header = rows[0] if rows else []
    if "t" not in header or "X" not in header:
        raise ValueError("data CSV must have 't' and 'X' columns")
    t_col, x_col = header.index("t"), header.index("X")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < len(header):
            raise ValueError(
                f"data CSV line {line} has fewer fields than the header "
                f"({len(row)} < {len(header)})"
            )
    paths = len({r[header.index("path_id")] for r in rows[1:]}) if "path_id" in header else 1
    if paths > 1:
        raise ValueError(f"data CSV holds {paths} paths (path_id); estimate reads one")
    t = np.array([float(r[t_col]) for r in rows[1:]])
    x = np.array([float(r[x_col]) for r in rows[1:]])
    if t.size < 2 or abs(t[0]) > 1e-12:
        raise ValueError("data must start at t = 0 with at least 2 samples")
    grid = TimeGrid(float(t[-1]), t.size - 1)
    # rounding only: the estimator takes every step to be exactly T / n
    if not np.allclose(t, grid.times(), rtol=0.0, atol=1e-9 * max(1.0, grid.horizon)):
        raise ValueError("data must be sampled on a uniform grid")
    # the construction parameters are Newton's start; theta is estimated
    model = model_from_config(
        {"model": "bs", "params": [0.0, 1.0], "epsilon": args.epsilon, "x0": float(x[0])}
    )
    obs = Observations(grid=grid, samples=x, eps=model.epsilon)
    result = minimize_contrast(obs, model, model.theta0)
    out = {
        "mu_hat": float(result.theta[0]),
        "sigma_hat": float(result.theta[1]),
        "rates": [float(v) for v in result.rates],
        "fisher": None if result.info is None else [[float(v) for v in row] for row in result.info],
        "converged": bool(result.converged),
        "contrast": float(result.contrast_value),
        "iterations": int(result.n_iter),
    }
    args.out.write(json_text(out))
    return 0


def cmd_price(args) -> int:
    raw = _load_json(args.config)
    model = model_from_config(raw, _PRICE_FIELDS)
    if "functional" not in raw:
        raise ValueError("config lacks 'functional'")
    functional = functional_from_config(raw["functional"])
    theta = model.theta0
    n_paths = args.B if args.B is not None else raw.get("B", 10_000)
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    n_steps = raw.get("n", 500)
    grid = TimeGrid(functional.horizon, n_steps)
    model.jump.poisson_mean(grid.horizon)  # a huge intensity fails before the information
    rates = raw.get("rates")
    if rates is None:
        rates = contrast_rates(model.epsilon, n_steps, model.p)
    info = raw.get("fisher")
    if info is None:
        from .estimate import deterministic_path, fisher_info

        info = fisher_info(model, theta, deterministic_path(model, theta, grid))
    report = build_report(
        model,
        functional,
        theta,
        np.asarray(rates, dtype=float),
        np.asarray(info, dtype=float),
        n_paths,
        seed,
        grid,
        alpha=float(raw.get("alpha", 0.05)),
    )
    args.out.write(json_text(report.to_dict()))
    return 0


def _missing_dirs(path: str) -> list[str]:
    """path and those of its parents that do not exist, deepest first: the
    directories that making path with its parents creates."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_experiment(args) -> int:
    raw = _load_json(args.config)
    kind = raw.pop("kind", "bs")
    config = ExperimentConfig.from_dict(raw, kind)
    made = []
    if args.out_dir is not None:
        made = _missing_dirs(args.out_dir)
        write_experiment_outputs({}, args.out_dir)  # a bad --out fails before any path
    try:
        if kind == "bs":
            files = study_files(run_bs_experiment(config))
        else:
            files = {"summary.json": json_text(run_ou_oracle(config))}
    except (ValueError, SimulationBlowup):
        # a study that refuses its input leaves no directory it made
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    if args.out_dir is not None:
        write_experiment_outputs(files, args.out_dir)
    args.out.write(files["summary.json"])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use:
    building it costs about half a millisecond, and parsing leaves it as
    it was."""
    parser = argparse.ArgumentParser(
        prog="plugmc",
        description="Plug-in Monte Carlo estimation for jump diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit seeded (X, Y) paths as CSV")
    p_sim.add_argument("--model", required=True, choices=["bs", "ou", "levy"])
    p_sim.add_argument("--params", required=True, help="comma-separated theta")
    p_sim.add_argument("--epsilon", type=float, default=None, help="bs noise scale (1.0)")
    p_sim.add_argument("--x0", type=float, default=1.0)
    p_sim.add_argument("--jump-intensity", type=float, default=None)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--T", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--paths", type=_positive_int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate parameters from a CSV path")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--model", default="bs")
    p_est.add_argument("--epsilon", type=float, required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_price = sub.add_parser("price", help="plug-in Monte Carlo value with CI")
    p_price.add_argument("--config", required=True)
    p_price.add_argument("--B", type=int, default=None)
    p_price.add_argument("--seed", type=int, default=None)
    p_price.set_defaults(func=cmd_price)

    p_exp = sub.add_parser("experiment", help="run a replicated study")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", dest="out_dir", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.out = sys.stdout
    try:
        # no numpy warning lines on stderr: what reads a non-finite value
        # refuses it (blow-up guard, InferenceReport, json_text, study CSVs)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, SimulationBlowup) as exc:
        print(f"plugmc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
