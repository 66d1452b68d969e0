"""Batch experiment drivers and their file outputs.

The main study repeats, R times: simulate one discretely observed path at
the true parameter, estimate the parameter from the samples, price the
functional by Monte Carlo at the estimate, and form the normalized error

    Z = (H_hat(theta_hat) - H(theta0)) / (gamma * sqrt(C' I^{-1} C)),

with C and I evaluated at the true parameter.  If the asymptotics hold, Z
is standard normal; the Kolmogorov-Smirnov statistic against the normal
CDF quantifies the fit.  In parallel, each replication builds the
plug-in confidence interval from estimate-based quantities, giving an
empirical coverage rate.

Everything is deterministic given the config's root seed: per-path seeds
are laid out in disjoint counter blocks (correction paths, observation
paths, pricing paths), so outputs are byte-for-byte reproducible.  A
replication is a pure function of (config, root seed, index), so the
replications run in forked worker processes, one per usable CPU, each
over a contiguous range of indices, and the outputs are the same bytes
for any number of workers.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import threading
import typing
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .estimate import Observations, bs_closed_form, contrast_rates, deterministic_path, fisher_info
from .functionals import Functional
from .inference import (
    bs_call_closed_form,
    build_report,
    central_difference_gradient,
    estimate_C,
    ou_discounted_value,
)
from .models import NO_JUMPS, JumpDiffusionModel, bs_small_noise_model, levy_model, ou_jump_model
from .normal import norm_cdf, norm_ppf
from .simulate import BLOCK_PATHS, TimeGrid, euler_path, path_seed, sample_noise

Array = np.ndarray

__all__ = [
    "ExperimentConfig",
    "ExperimentOutput",
    "ReplicationRow",
    "run_bs_experiment",
    "run_ou_oracle",
    "ks_statistic",
    "write_experiment_outputs",
    "model_from_config",
    "functional_from_config",
    "check_json_types",
]

# Disjoint per-path seed-counter blocks (low 64 key bits).
IDX_CORRECTION = 0
IDX_OBSERVATION = 1 << 40
IDX_PRICING = 1 << 41
PRICING_STRIDE = 1 << 21  # max pricing paths per replication


def _check_block_alignment(block_paths: int) -> None:
    """Raise unless every seed block starts on a noise-block boundary.

    Then each study batch starts at row 0 of a noise block and draws no
    rows that belong to another seed block.
    """
    for name, value in (
        ("IDX_OBSERVATION", IDX_OBSERVATION),
        ("IDX_PRICING", IDX_PRICING),
        ("PRICING_STRIDE", PRICING_STRIDE),
    ):
        if value % block_paths:
            raise ValueError(
                f"{name} = {value} is not a multiple of the noise block size {block_paths}"
            )


_check_block_alignment(BLOCK_PATHS)

# The kind of a config field that holds a matrix: a list of lists of numbers
MATRIX = "matrix"

# JSON value types a config field of each annotated type accepts, and how
# an error names them; a bool is never a number
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list,), "a list"),
    MATRIX: ((list,), "a list"),
    dict: ((dict,), "an object"),
    type(None): ((type(None),), "null"),
}
# How deep the lists of a list field nest around its numbers, and how an
# error names them
_LIST_DEPTHS = {tuple: (1, "a list of numbers"), MATRIX: (2, "a list of lists of numbers")}


def _holds_numbers(value, depth: int) -> bool:
    """value is a number (depth 0) or a list of depth - 1 such values."""
    if depth == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, list) and all(_holds_numbers(v, depth - 1) for v in value)


def check_json_types(raw: dict, kinds: dict, what: str = "config") -> None:
    """Raise a ValueError naming the first field of raw whose value has none
    of the types that kinds lists for it, or whose list holds anything but
    numbers (a tuple field) or lists of numbers (a MATRIX field); fields
    kinds omits pass."""
    for name, value in raw.items():
        if name not in kinds:
            continue
        accepted = tuple(t for k in kinds[name] for t in _JSON_TYPES[k][0])
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = " or ".join(_JSON_TYPES[k][1] for k in kinds[name])
            raise ValueError(f"{what} field {name!r} must be {expected}, got {value!r}")
        for depth, expected in (_LIST_DEPTHS[k] for k in kinds[name] if k in _LIST_DEPTHS):
            if isinstance(value, list) and not _holds_numbers(value, depth):
                raise ValueError(f"{what} field {name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one replicated study; see from_dict for the JSON shape."""

    theta0: tuple
    x0: float = 1.0
    n_obs: int = 500
    epsilon: float | str = "1/sqrt(n)"
    n_paths_price: int = 10_000
    n_paths_correction: int = 100_000
    replications: int = 300
    alpha: float = 0.05
    strike: float = 0.75
    rate: float = 0.05
    horizon: float = 1.0
    obs_horizon: float = 1.0
    n_grid_price: int | None = None
    eps_smooth: float | None = None  # default 1e-3 * strike
    discount: float = 0.05
    jump_intensity: float = 1.0
    root_seed: int = 0

    def __post_init__(self):
        if self.replications < 30:
            raise ValueError("replications must be >= 30")
        if self.n_paths_price < 1000:
            raise ValueError("n_paths_price must be >= 1000")
        if self.n_paths_price > PRICING_STRIDE:
            raise ValueError(f"n_paths_price must be <= {PRICING_STRIDE}")
        if self.n_paths_correction > IDX_OBSERVATION - IDX_CORRECTION:
            raise ValueError(
                f"n_paths_correction must be <= {IDX_OBSERVATION - IDX_CORRECTION}: "
                "more correction paths would overlap the observation seed block"
            )
        if self.replications > IDX_PRICING - IDX_OBSERVATION:
            raise ValueError(
                f"replications must be <= {IDX_PRICING - IDX_OBSERVATION}: "
                "more observation paths would overlap the pricing seed block"
            )
        if self.resolved_epsilon() <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def resolved_epsilon(self) -> float:
        if isinstance(self.epsilon, str):
            if self.epsilon.replace(" ", "") != "1/sqrt(n)":
                raise ValueError(f"unknown epsilon rule {self.epsilon!r}")
            return 1.0 / np.sqrt(self.n_obs)
        return float(self.epsilon)

    def resolved_eps_smooth(self) -> float:
        # smoothing bias is bounded by e^{-rT} eps_smooth / 2, kept below
        # Monte Carlo noise at the default path counts
        return 1e-3 * self.strike if self.eps_smooth is None else self.eps_smooth

    def price_grid(self) -> TimeGrid:
        steps = self.n_grid_price if self.n_grid_price is not None else self.n_obs
        return TimeGrid(self.horizon, steps)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Config from a JSON object: theta0 (a list) is required, the other
        fields are optional, and each value must have its field's JSON type."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "theta0" not in raw:
            raise ValueError("config lacks 'theta0'")
        hints = typing.get_type_hints(cls)
        check_json_types(raw, {k: typing.get_args(t) or (t,) for k, t in hints.items()})
        return cls(**{**raw, "theta0": tuple(raw["theta0"])})


@dataclass(frozen=True)
class ReplicationRow:
    replication: int
    theta_hat: tuple
    h_hat: float
    h_se: float
    z_hat: float
    ci_low: float
    ci_high: float
    covered: bool


@dataclass(frozen=True)
class ExperimentOutput:
    config: ExperimentConfig
    rows: tuple
    z_values: Array
    summary: dict
    failures: tuple = field(default_factory=tuple)


def ks_statistic(samples) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    cdf = norm_cdf(x)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - cdf), np.max(cdf - grid_lo)))


def _worker_count(replications: int) -> int:
    """Processes a study's replications run in: one per CPU this process
    may use, at most one per replication.  1 on a platform without
    os.fork or os.sched_getaffinity, and while another thread is alive, as
    a forked child would inherit the locks that thread holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), replications)


def _replicate_in_workers(replicate, count: int) -> tuple[list, list]:
    """replicate(0, count), with range(count) split into contiguous slices.

    replicate(start, stop) returns (rows, failures) of replications
    start..stop-1 in index order.  With W = _worker_count(count) > 1 each of
    W equal slices runs in a forked child, which pickles its result, or
    the exception it raised, into a pipe and ends in os._exit.  The parent
    joins the slices in slice order, which is replication-index order, so
    the result is that of one replicate(0, count) call.  It raises in the
    same order: the exception of the first slice that raised (its type and
    message, not its traceback), or a RuntimeError for the first child that
    ended without a result.  Every child has been waited for when this
    returns or raises; one still running after a raise is killed first.
    """
    workers = _worker_count(count)
    if workers == 1:
        return replicate(0, count)
    bounds = [count * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe, start, stop), in slice order
    unreaped = set()
    rows, failures = [], []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(replicate, start, stop, write_fd)  # never returns
            os.close(write_fd)
            unreaped.add(pid)
            children.append((pid, os.fdopen(read_fd, "rb"), start, stop))
        for pid, pipe, start, stop in children:
            payload = pipe.read()  # to EOF: the child has written all of it, or died
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            unreaped.discard(pid)
            if code != 0 or not payload:
                ended = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(
                    f"the worker for replications {start}..{stop - 1} ended "
                    f"without a result ({ended})"
                )
            result, exc = pickle.loads(payload)  # bytes that our own child wrote
            if exc is not None:
                raise exc
            rows += result[0]
            failures += result[1]
    finally:
        for _, pipe, _, _ in children:
            pipe.close()
        if unreaped:  # only after a raise; their results are not needed
            import signal

            for pid in unreaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return rows, failures


def _run_child(replicate, start: int, stop: int, write_fd: int) -> None:
    """In a forked child: write pickled (replicate(start, stop), None), or
    (None, the exception it raised), to write_fd, then os._exit, 0 once the
    payload is written and 1 otherwise.  An exception that does not pickle
    is sent as RuntimeError(repr(exc))."""
    code = 1
    try:
        try:
            result = (replicate(start, stop), None)
        except BaseException as exc:  # raised again by the parent
            result = (None, exc)
        try:
            payload = pickle.dumps(result)
        except Exception as error:
            payload = pickle.dumps((None, RuntimeError(repr(result[1] or error))))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_bs_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Replicated estimate-then-price study under geometric Brownian dynamics.

    Per replication: observe one Euler path of the model at theta0 on the
    observation grid, estimate (mu, sigma) in closed form, price the
    smoothed call at the estimate with fresh pricing paths, and record the
    normalized error (true-parameter C and I in the denominator) plus the
    estimate-based confidence interval.  Replication failures are recorded
    and tolerated up to 5% of R.

    The correction pass at theta0 runs in this process; the replications
    then run in forked workers over contiguous index ranges (see
    _replicate_in_workers) and are merged in index order.
    """
    theta0 = np.asarray(config.theta0, dtype=float)
    eps = config.resolved_epsilon()
    root = config.root_seed
    model = bs_small_noise_model(theta0[0], theta0[1], eps, config.x0)
    functional = Functional(
        kind="smoothed_call_terminal",
        horizon=config.horizon,
        strike=config.strike,
        rate=config.rate,
        eps_smooth=config.resolved_eps_smooth(),
    )
    grid_price = config.price_grid()
    grid_obs = TimeGrid(config.obs_horizon, config.n_obs)
    rates = contrast_rates(eps, config.n_obs, model.p)

    def report(theta, info, n_paths, start_index):
        return build_report(
            model, functional, theta, rates, info, n_paths, root, grid_price,
            alpha=config.alpha, start_index=start_index,
        )

    # The true-parameter report over the correction paths gives the
    # normalization; an unidentified parameter fails before any Monte Carlo
    # pass.
    info0 = fisher_info(model, theta0, deterministic_path(model, theta0, grid_obs))
    at_theta0 = report(theta0, info0, config.n_paths_correction, IDX_CORRECTION)
    h0 = bs_call_closed_form(
        theta0, eps, config.x0, config.strike, config.rate, config.horizon
    )
    denom0 = float(np.sqrt(at_theta0.asy_var))

    def replicate(start: int, stop: int) -> tuple[list, list]:
        """Rows and recorded failures of replications start..stop-1, in order."""
        rows, failures = [], []
        for r in range(start, stop):
            try:
                bundle = sample_noise(grid_obs, NO_JUMPS, path_seed(root, IDX_OBSERVATION + r))
                obs_path = euler_path(model, theta0, bundle)
                est = bs_closed_form(
                    Observations(grid=grid_obs, samples=obs_path.values, eps=eps)
                )
                if est.info is None:
                    raise ValueError("degenerate estimate: sigma_hat = 0")
                priced = report(
                    est.theta, est.info, config.n_paths_price, IDX_PRICING + r * PRICING_STRIDE
                )
            except (ValueError, RuntimeError) as exc:
                failures.append((r, str(exc)))
                continue
            lo, hi = priced.ci
            rows.append(
                ReplicationRow(
                    replication=r,
                    theta_hat=tuple(float(v) for v in est.theta),
                    h_hat=priced.h_hat,
                    h_se=priced.h_se_mc,
                    z_hat=float((priced.h_hat - h0) / (priced.gamma_star * denom0)),
                    ci_low=lo,
                    ci_high=hi,
                    covered=bool(lo <= h0 <= hi),
                )
            )
        return rows, failures

    rows, failures = _replicate_in_workers(replicate, config.replications)
    if len(failures) > 0.05 * config.replications:
        raise RuntimeError(
            f"{len(failures)} of {config.replications} replications failed; "
            f"first: {failures[0]}"
        )

    z_arr = np.asarray([row.z_hat for row in rows])
    summary = {
        "kind": "bs",
        "replications": config.replications,
        "failed": len(failures),
        "n_obs": config.n_obs,
        "epsilon": eps,
        "H_true": h0,
        "C_theta0": [float(v) for v in at_theta0.c_hat],
        "C_theta0_se": [float(v) for v in at_theta0.c_se],
        "asy_var_theta0": at_theta0.asy_var,
        "asy_sd_theta0": denom0,
        "ks_statistic": ks_statistic(z_arr),
        "z_mean": float(np.mean(z_arr)),
        "z_sd": float(np.std(z_arr, ddof=1)),
        "coverage": sum(row.covered for row in rows) / len(rows) if rows else float("nan"),
        "alpha": config.alpha,
    }
    return ExperimentOutput(
        config=config,
        rows=tuple(rows),
        z_values=z_arr,
        summary=summary,
        failures=tuple(failures),
    )


def run_ou_oracle(config: ExperimentConfig) -> dict:
    """Compare Monte Carlo pricing against the mean-reverting closed form.

    The discounted-integral value of the jump model has an explicit
    formula; the report holds the Monte Carlo estimate, the closed form,
    the correction vector against a central-difference gradient of the
    closed form, and their normalized gaps.
    """
    theta = np.asarray(config.theta0, dtype=float)
    mu, sigma, eta = theta
    if mu <= 0:
        raise ValueError("mu must be > 0")
    lam = config.jump_intensity
    model = ou_jump_model(mu, sigma, eta, lam, config.x0)
    functional = Functional(
        kind="discounted_integral", horizon=config.horizon, discount=config.discount
    )
    grid = config.price_grid()
    c_hat, c_se, h_mc, h_se = estimate_C(
        model,
        functional,
        theta,
        config.n_paths_correction,
        config.root_seed,
        grid,
        start_index=IDX_CORRECTION,
    )
    h_closed = ou_discounted_value(
        mu, eta, lam, config.discount, config.horizon, config.x0
    )

    def h_of(th):
        return ou_discounted_value(
            th[0], th[2], lam, config.discount, config.horizon, config.x0
        )

    grad = central_difference_gradient(h_of, theta)

    return {
        "kind": "ou_oracle",
        "theta": [float(v) for v in theta],
        "jump_intensity": lam,
        "H_closed_form": float(h_closed),
        "H_mc": h_mc,
        "H_mc_se": h_se,
        "H_abs_error": abs(h_mc - h_closed),
        "H_rel_error": abs(h_mc - h_closed) / abs(h_closed),
        "C_hat": [float(v) for v in c_hat],
        "C_se": [float(v) for v in c_se],
        "grad_H_closed_form": [float(v) for v in grad],
        "C_minus_grad": [float(a - b) for a, b in zip(c_hat, grad)],
    }


# ---------------------------------------------------------------------------
# File outputs (deterministic byte-for-byte given identical inputs)
# ---------------------------------------------------------------------------

HIST_EDGES = np.arange(-4.0, 4.0 + 0.25 / 2, 0.25)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def replications_csv(output: ExperimentOutput) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    p = len(output.rows[0].theta_hat) if output.rows else 0
    w.writerow(
        ["replication"]
        + [f"theta_hat_{i + 1}" for i in range(p)]
        + ["H_hat", "H_se", "z_hat", "ci_low", "ci_high", "covered"]
    )
    for row in output.rows:
        w.writerow(
            [row.replication]
            + [_fmt(v) for v in row.theta_hat]
            + [
                _fmt(row.h_hat),
                _fmt(row.h_se),
                _fmt(row.z_hat),
                _fmt(row.ci_low),
                _fmt(row.ci_high),
                _fmt(row.covered),
            ]
        )
    return buf.getvalue()


def qq_csv(z_values: Array) -> str:
    z = np.sort(np.asarray(z_values, dtype=float))
    n = z.size
    theo = norm_ppf((np.arange(1, n + 1) - 0.5) / n)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["theoretical", "empirical"])
    for t, e in zip(theo, z):
        w.writerow([_fmt(t), _fmt(e)])
    return buf.getvalue()


def histogram_csv(z_values: Array) -> str:
    counts, edges = np.histogram(z_values, bins=HIST_EDGES)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["bin_left", "bin_right", "count"])
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        w.writerow([_fmt(left), _fmt(right), str(int(count))])
    return buf.getvalue()


def write_experiment_outputs(output: ExperimentOutput, out_dir) -> dict:
    """Write replications.csv, summary.json, qq.csv, histogram.csv."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "replications.csv": replications_csv(output),
        "summary.json": json.dumps(output.summary, sort_keys=True, indent=2) + "\n",
        "qq.csv": qq_csv(output.z_values),
        "histogram.csv": histogram_csv(output.z_values),
    }
    for name, content in files.items():
        (out / name).write_text(content)
    return files


# ---------------------------------------------------------------------------
# JSON config -> model / functional
# ---------------------------------------------------------------------------


_PARAM_NAMES = {
    "bs": ("mu", "sigma"),
    "ou": ("mu", "sigma", "eta"),
    "levy": ("mu", "sigma", "eta"),
}

# JSON types of the fields model_from_config and functional_from_config read
_MODEL_FIELDS = {
    "model": (str,), "params": (tuple,), "epsilon": (float,), "x0": (float,), "jump": (dict,),
}
_JUMP_FIELDS = {"intensity": (float,), "mean": (float, type(None))}
_FUNCTIONAL_FIELDS = {
    "kind": (str,), "T": (float,), "K": (float,), "r": (float,), "delta": (float,),
    "epsilon_smooth": (float,), "V": (str,),
}


def model_from_config(raw: dict) -> JumpDiffusionModel:
    """Build a model from {model, params, epsilon, x0, jump:{intensity, mean}}.

    epsilon, the noise scale, is required for bs and rejected for ou and
    levy, which have none.  bs has no jumps and the levy jump law is fixed,
    so a jump intensity other than 0 (bs) or 1 (levy), or a levy jump mean
    other than 1, is rejected.
    """
    check_json_types(raw, _MODEL_FIELDS)
    name = raw.get("model")
    if name not in _PARAM_NAMES:
        raise ValueError(f"unknown model {name!r} (expected bs, ou or levy)")
    params = [float(v) for v in raw.get("params", ())]
    if len(params) != len(_PARAM_NAMES[name]):
        raise ValueError(
            f"model {name!r} takes {len(_PARAM_NAMES[name])} params "
            f"({', '.join(_PARAM_NAMES[name])}), got {len(params)}"
        )
    x0 = float(raw.get("x0", 1.0))
    jump = raw.get("jump", {})
    check_json_types(jump, _JUMP_FIELDS, "jump config")
    if name == "bs":
        mu, sigma = params
        if "epsilon" not in raw:
            raise ValueError("bs model config lacks 'epsilon'")
        if jump.get("intensity", 0.0) != 0.0:
            raise ValueError(f"model 'bs' has no jumps, got intensity {jump['intensity']!r}")
        return bs_small_noise_model(mu, sigma, float(raw["epsilon"]), x0)
    if "epsilon" in raw:
        raise ValueError(f"model {name!r} takes no 'epsilon' (only bs has a noise scale)")
    if name == "ou":
        mu, sigma, eta = params
        mean = jump.get("mean")
        if mean is not None and float(mean) != eta:
            raise ValueError("jump.mean must equal the eta parameter for the ou model")
        return ou_jump_model(mu, sigma, eta, float(jump.get("intensity", 1.0)), x0)
    for key in ("intensity", "mean"):
        if jump.get(key, 1.0) not in (None, 1.0):
            raise ValueError(
                f"model 'levy' has jump intensity 1 and mean 1 (Exp(1) sizes), "
                f"got {key} {jump[key]!r}"
            )
    mu, sigma, eta = params
    return levy_model(mu, sigma, eta, x0)


def functional_from_config(raw: dict) -> Functional:
    """Build a functional from {kind, K, r, T, delta, epsilon_smooth, V}.

    V, the integrand of the discounted integral, can only be "identity".
    """
    check_json_types(raw, _FUNCTIONAL_FIELDS, "functional config")
    integrand = raw.get("V", "identity")
    if integrand != "identity":
        raise ValueError(f"unknown integrand {integrand!r}")
    for key in ("kind", "T"):
        if key not in raw:
            raise ValueError(f"functional config lacks {key!r}")
    return Functional(
        kind=raw["kind"],
        horizon=float(raw["T"]),
        strike=float(raw.get("K", 0.0)),
        rate=float(raw.get("r", 0.0)),
        eps_smooth=float(raw.get("epsilon_smooth", 0.0)),
        discount=float(raw.get("delta", 0.0)),
    )
