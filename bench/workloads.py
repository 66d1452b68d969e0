"""The benchmark's workloads: the inputs of one op, the op, and its check.

An op goes through the public command-line entry point `plugmc.cli.main`
with standard output captured, exactly as a user's request would.  Every
input of an op is a pure function of the op's seed, which the harness
derives from the workload seed and the op's index.

Checks use thresholds at which a chance failure is rarer than 1 in 1 000
ops; each check failure is a program defect or that rare chance event.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from plugmc import cli
from plugmc.estimate import Observations, bs_closed_form
from plugmc.inference import bs_call_closed_form
from plugmc.simulate import TimeGrid

# The headline bs pricing case of the paper's studies.
THETA_BS = (0.2, 1.0)
N_STEPS = 500
EPS = 1.0 / math.sqrt(N_STEPS)
X0, STRIKE, RATE, HORIZON, DELTA = 1.0, 0.75, 0.05, 1.0, 7.5e-4

# |N(0,1)| > 4 has probability 6e-5 per op.
Z_CHECK = 4.0
# Kolmogorov-Smirnov statistic of R = 100 normalised errors.  Under the
# asymptotic law P(KS > 0.25) is about 1e-5; the band only catches a
# study that is broken, not one that is slightly off at n = 50.
KS_BAND = (0.0, 0.25)


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def run_cli(argv: list[str]) -> str:
    """One `plugmc` command; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"plugmc {argv[0]} exited with {code}")
    return buf.getvalue()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


class Workload:
    name = ""
    warmup_ops = 1
    # op_s_tail: the highest percentile that leaves at least 10 of a run's
    # ops beyond it, fixed per workload from its op rate so that it does
    # not jump with the op count.  Where a run has too few ops for that, a
    # percentile that leaves one op beyond it, as a lone slow op is noise.
    tail_pct = 90.0

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def run(self, seed: int, op_dir: Path) -> dict[str, bytes]:
        """The timed op; returns every output the program produced."""
        raise NotImplementedError

    def check(self, outputs: dict[str, bytes]) -> None:
        """Raises CheckFailed when the outputs are wrong."""
        raise NotImplementedError


class PriceBs(Workload):
    """`plugmc price`, bs, B = 10 000 paths, n = 500 steps, fresh seed."""

    name = "price_bs"
    tail_pct = 70.0  # 35 to 55 ops per 25 s run

    def __init__(self, work_dir):
        super().__init__(work_dir)
        self.config = work_dir / "price.json"
        self.config.write_text(json.dumps({
            "model": "bs", "params": list(THETA_BS), "epsilon": EPS, "x0": X0,
            "functional": {"kind": "smoothed_call_terminal", "K": STRIKE, "r": RATE,
                           "T": HORIZON, "epsilon_smooth": DELTA},
            "B": 10_000, "n": N_STEPS,
        }))
        self.h_true = bs_call_closed_form(THETA_BS, EPS, X0, STRIKE, RATE, HORIZON)

    def run(self, seed, op_dir):
        out = run_cli(["price", "--config", str(self.config), "--seed", str(seed)])
        return {"stdout": out.encode()}

    def check(self, outputs):
        rep = json.loads(outputs["stdout"])
        h, se = rep["H_hat"], rep["H_se_mc"]
        _require(rep["ci_low"] <= h <= rep["ci_high"], "CI does not contain H_hat")
        _require(
            abs(h - self.h_true) <= Z_CHECK * se,
            f"|H_hat - closed form| = {abs(h - self.h_true):.3g} > {Z_CHECK} * {se:.3g}",
        )


class StudyBsN50(Workload):
    """`plugmc experiment --out DIR`, kind bs, the fast-mode n = 50 study."""

    name = "study_bs_n50"
    warmup_ops = 0  # an op is seconds of many small calls; nothing lazy to fill
    tail_pct = 75.0  # 4 to 6 ops per 25 s run

    def run(self, seed, op_dir):
        config = op_dir / "study.json"
        config.write_text(json.dumps({
            "kind": "bs", "theta0": list(THETA_BS), "n_obs": 50,
            "n_paths_price": 2_000, "n_paths_correction": 20_000,
            "replications": 100, "root_seed": seed,
        }))
        out_dir = op_dir / "study"
        out = run_cli(["experiment", "--config", str(config), "--out", str(out_dir)])
        outputs = {"stdout": out.encode()}
        for path in sorted(out_dir.iterdir()):
            outputs[path.name] = path.read_bytes()
        return outputs

    def check(self, outputs):
        summary = json.loads(outputs["stdout"])
        _require(summary["failed"] == 0, f"{summary['failed']} replications failed")
        _require(_all_finite(summary), "summary holds a non-finite value")
        _require(outputs["summary.json"] == outputs["stdout"], "summary.json differs from stdout")
        rows = outputs["replications.csv"].decode().splitlines()
        _require(len(rows) == 1 + summary["replications"], "replications.csv row count")
        ks = summary["ks_statistic"]
        _require(KS_BAND[0] < ks < KS_BAND[1], f"KS statistic {ks:.4f} outside {KS_BAND}")


class OracleOu(Workload):
    """`plugmc experiment`, kind ou_oracle: jumps, p = 3, discounted integral."""

    name = "oracle_ou"

    def run(self, seed, op_dir):
        config = op_dir / "oracle.json"
        config.write_text(json.dumps({
            "kind": "ou_oracle", "theta0": [1.0, 0.3, 0.5], "jump_intensity": 1.0,
            "discount": 0.05, "horizon": 1.0, "n_paths_correction": 20_000,
            "n_grid_price": 500, "root_seed": seed,
        }))
        return {"stdout": run_cli(["experiment", "--config", str(config)]).encode()}

    def check(self, outputs):
        rep = json.loads(outputs["stdout"])
        _require(
            rep["H_abs_error"] <= Z_CHECK * rep["H_mc_se"],
            f"|H_mc - H_closed| = {rep['H_abs_error']:.3g} > {Z_CHECK} * {rep['H_mc_se']:.3g}",
        )
        c_sigma, c_sigma_se = rep["C_hat"][1], rep["C_se"][1]
        _require(
            abs(c_sigma) <= Z_CHECK * c_sigma_se,
            f"|C_sigma| = {abs(c_sigma):.3g} > {Z_CHECK} * {c_sigma_se:.3g}",
        )


class ObserveEstimate(Workload):
    """`plugmc simulate` of one bs path to a CSV file, then `plugmc estimate`."""

    name = "observe_estimate"
    warmup_ops = 3
    tail_pct = 97.0  # 450 to 850 ops per 25 s run

    def run(self, seed, op_dir):
        data = run_cli([
            "simulate", "--model", "bs", "--params", ",".join(map(str, THETA_BS)),
            "--epsilon", repr(EPS), "--n", str(N_STEPS), "--paths", "1",
            "--seed", str(seed),
        ])
        path = op_dir / "observed.csv"
        path.write_text(data)
        est = run_cli(["estimate", "--data", str(path), "--epsilon", repr(EPS)])
        return {"simulate.csv": data.encode(), "estimate.json": est.encode()}

    def check(self, outputs):
        est = json.loads(outputs["estimate.json"])
        _require(est["converged"], "Newton did not converge")
        rows = list(csv.DictReader(io.StringIO(outputs["simulate.csv"].decode())))
        _require(len(rows) == N_STEPS + 1, "simulate wrote the wrong number of rows")
        samples = np.array([float(r["X"]) for r in rows])
        closed = bs_closed_form(Observations(TimeGrid(HORIZON, N_STEPS), samples, EPS)).theta
        newton = np.array([est["mu_hat"], est["sigma_hat"]])
        gap = float(np.max(np.abs(newton - closed)))
        _require(gap <= 1e-8, f"Newton and closed form differ by {gap:.3g}")


WORKLOADS = {w.name: w for w in (PriceBs, StudyBsN50, OracleOu, ObserveEstimate)}
