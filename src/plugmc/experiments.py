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
paths, pricing paths), so outputs are byte-for-byte reproducible.  Every
replication is priced on the same pricing paths, so the replications
share one Monte Carlo error.  A replication is a pure function of
(config, root seed, index), so the replications run in forked worker
processes, one per usable CPU, each over a contiguous range of indices,
and the outputs are the same bytes for any number of workers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .estimate import Observations, bs_closed_form, contrast_rates, deterministic_path, fisher_info
from .functionals import Functional
from .inference import (
    bs_call_closed_form,
    build_report,
    central_difference_gradient,
    estimate_C,
    information_inverse,
    ou_discounted_value,
    report_from_moments,
)
from .models import NO_JUMPS, JumpDiffusionModel, bs_small_noise_model, levy_model, ou_jump_model
from .normal import norm_cdf, norm_ppf
from .simulate import TimeGrid, euler_path, path_seed, sample_noise
from .workers import in_slices
from .workers import worker_count as _worker_count

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

# Disjoint per-path seed-counter blocks (low 64 key bits).  Each is a
# multiple of simulate.BLOCK_PATHS, so a study batch starts at row 0 of a
# noise block and draws no rows that belong to another seed block.
IDX_CORRECTION = 0
IDX_OBSERVATION = 1 << 40
IDX_PRICING = 1 << 41
# Paths' values one pricing call holds: a study worker prices its
# estimates max(1, PRICING_VALUES // n_paths_price) at a time
PRICING_VALUES = 1 << 21

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


def check_json_types(raw: dict, table: dict, what: str, reader: str) -> None:
    """Raise a ValueError naming the keys of raw that table omits and the
    reader (the model or kind whose table it is), or else the first field
    whose value has none of the JSON types that table lists for it, or
    whose list holds anything but numbers (a tuple field) or lists of
    numbers (a MATRIX field).  table is the one list of a config's keys."""
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown} for {reader}")
    for name, value in raw.items():
        accepted = tuple(t for k in table[name] for t in _JSON_TYPES[k][0])
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = " or ".join(_JSON_TYPES[k][1] for k in table[name])
            raise ValueError(f"{what} field {name!r} must be {expected}, got {value!r}")
        for depth, expected in (_LIST_DEPTHS[k] for k in table[name] if k in _LIST_DEPTHS):
            if isinstance(value, list) and not _holds_numbers(value, depth):
                raise ValueError(f"{what} field {name!r} must be {expected}, got {value!r}")


def _kind_table(tables: dict, kind, what: str):
    """tables[kind], or a ValueError naming an unknown kind and the known ones."""
    if not isinstance(kind, str) or kind not in tables:
        *others, last = tables
        raise ValueError(f"unknown {what} {kind!r} (expected {', '.join(others)} or {last})")
    return tables[kind]


# The config fields each kind of study does not read, and so rejects
_UNREAD_FIELDS = {
    "bs": ("discount", "jump_intensity"),
    "ou_oracle": ("n_obs", "epsilon", "n_paths_price", "replications", "alpha", "strike",
                  "rate", "obs_horizon", "eps_smooth"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one replicated study; see from_dict for the JSON shape."""

    theta0: tuple
    x0: float = 1.0
    n_obs: int = 500
    epsilon: float | None = None  # default 1 / sqrt(n_obs)
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

    def resolved_epsilon(self) -> float:
        return 1.0 / np.sqrt(self.n_obs) if self.epsilon is None else float(self.epsilon)

    def resolved_eps_smooth(self) -> float:
        # smoothing bias is bounded by e^{-rT} eps_smooth / 2, kept below
        # Monte Carlo noise at the default path counts
        return 1e-3 * self.strike if self.eps_smooth is None else self.eps_smooth

    def price_grid(self) -> TimeGrid:
        steps = self.n_grid_price if self.n_grid_price is not None else self.n_obs
        return TimeGrid(self.horizon, steps)

    @classmethod
    def from_dict(cls, raw: dict, kind: str = "bs") -> "ExperimentConfig":
        """Config of a study of the given kind (bs or ou_oracle) from a JSON
        object: theta0 (a list) is required, the other fields the kind reads
        are optional, and each value must have its field's JSON type."""
        unread = _kind_table(_UNREAD_FIELDS, kind, "experiment kind")
        if "theta0" not in raw:
            raise ValueError("config lacks 'theta0'")
        hints = typing.get_type_hints(cls)
        table = {k: typing.get_args(t) or (t,) for k, t in hints.items() if k not in unread}
        check_json_types(raw, table, "config", f"kind {kind!r}")
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
    rows: tuple
    summary: dict


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


def run_bs_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Replicated estimate-then-price study under geometric Brownian dynamics.

    Per replication: observe one Euler path of the model at theta0 on the
    observation grid, estimate (mu, sigma) in closed form, price the
    smoothed call at the estimate on the study's one set of pricing paths,
    and record the normalized error (true-parameter C and I in the
    denominator) plus the estimate-based confidence interval.  Replication
    failures are tolerated up to 5% of R, counted as the summary's failed;
    beyond that the study raises a ValueError naming the first.

    The correction pass at theta0 runs first, its paths split over worker
    processes as every batch is; the replications then run in forked
    workers over contiguous index ranges (see workers.in_slices) and are
    merged in index order.  A worker first observes and estimates each of
    its replications, refusing there what pricing would refuse, then
    prices its estimates in groups, one estimate_C call per group.
    """
    grid_obs = TimeGrid(config.obs_horizon, config.n_obs)  # checks n_obs before eps reads it
    eps = config.resolved_epsilon()
    root = config.root_seed
    model = model_from_config(
        {"model": "bs", "params": list(config.theta0), "epsilon": eps, "x0": config.x0}
    )
    theta0 = model.theta0
    functional = Functional(
        kind="smoothed_call_terminal",
        horizon=config.horizon,
        strike=config.strike,
        rate=config.rate,
        eps_smooth=config.resolved_eps_smooth(),
    )
    grid_price = config.price_grid()
    rates = contrast_rates(eps, config.n_obs, model.p)

    # The true-parameter report over the correction paths gives the
    # normalization; an unidentified parameter or a bad closed-form input
    # fails before any Monte Carlo pass.
    info0 = fisher_info(model, theta0, deterministic_path(model, theta0, grid_obs))
    h0 = bs_call_closed_form(
        theta0, eps, config.x0, config.strike, config.rate, config.horizon
    )
    at_theta0 = build_report(
        model, functional, theta0, rates, info0, config.n_paths_correction, root, grid_price,
        alpha=config.alpha, start_index=IDX_CORRECTION,
    )
    denom0 = float(np.sqrt(at_theta0.asy_var))
    per_call = max(1, PRICING_VALUES // config.n_paths_price)

    def price(thetas: list) -> list:
        """estimate_C's moments at each theta, from one call on the pricing paths."""
        return estimate_C(
            model, functional, np.array(thetas), config.n_paths_price, root, grid_price,
            start_index=IDX_PRICING,
        )

    def replicate(start: int, stop: int) -> tuple[list, list]:
        """Rows and recorded failures of replications start..stop-1, in order:
        each is observed and estimated, then all are priced in groups."""
        estimates, rows, failures = [], [], []
        for r in range(start, stop):
            try:
                bundle = sample_noise(grid_obs, NO_JUMPS, path_seed(root, IDX_OBSERVATION + r))
                obs_path = euler_path(model, theta0, bundle)
                est = bs_closed_form(
                    Observations(grid=grid_obs, samples=obs_path.values, eps=eps)
                )
                if est.info is None:
                    raise ValueError("degenerate estimate: sigma_hat = 0")
                # what pricing refuses, refused here as a failure of r alone
                info_inv = information_inverse(model, est.info)
                estimates.append((r, model.require_theta(est.theta), info_inv))
            except (ValueError, RuntimeError) as exc:
                failures.append((r, str(exc)))
        for i in range(0, len(estimates), per_call):
            group = estimates[i : i + per_call]
            try:
                moments = price([theta for _, theta, _ in group])
            except (ValueError, RuntimeError):
                moments = [None] * len(group)
            for (r, theta, info_inv), m in zip(group, moments):
                try:
                    # after an error in the group's call, priced alone, so
                    # that the error fails its own replication alone
                    m = m or price([theta])[0]
                    priced = report_from_moments(theta, rates, info_inv, m, config.alpha)
                except (ValueError, RuntimeError) as exc:
                    failures.append((r, str(exc)))
                    continue
                lo, hi = priced.ci
                rows.append(
                    ReplicationRow(
                        replication=r,
                        theta_hat=tuple(float(v) for v in theta),
                        h_hat=priced.h_hat,
                        h_se=priced.h_se_mc,
                        z_hat=float((priced.h_hat - h0) / (priced.gamma_star * denom0)),
                        ci_low=lo,
                        ci_high=hi,
                        covered=bool(lo <= h0 <= hi),
                    )
                )
        return rows, sorted(failures)

    parts = in_slices(
        replicate, config.replications, _worker_count(config.replications), "replications"
    )
    rows = [row for part, _ in parts for row in part]
    failures = [failure for _, part in parts for failure in part]
    if len(failures) > 0.05 * config.replications:
        raise ValueError(
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
    return ExperimentOutput(rows=tuple(rows), summary=summary)


def run_ou_oracle(config: ExperimentConfig) -> dict:
    """Compare Monte Carlo pricing against the mean-reverting closed form.

    The discounted-integral value of the jump model has an explicit
    formula; the report holds the Monte Carlo estimate, the closed form,
    the correction vector against a central-difference gradient of the
    closed form, and their normalized gaps.
    """
    lam = config.jump_intensity
    model = model_from_config(
        {"model": "ou", "params": list(config.theta0), "x0": config.x0, "jump": {"intensity": lam}}
    )
    theta = model.theta0
    functional = Functional(
        kind="discounted_integral", horizon=config.horizon, discount=config.discount
    )
    grid = config.price_grid()

    def h_of(th):
        return ou_discounted_value(
            th[0], th[2], lam, config.discount, config.horizon, config.x0
        )

    # the closed form checks its inputs before the Monte Carlo pass
    h_closed = h_of(theta)
    grad = central_difference_gradient(h_of, theta)
    c_hat, c_se, h_mc, h_se = estimate_C(
        model,
        functional,
        theta,
        config.n_paths_correction,
        config.root_seed,
        grid,
        start_index=IDX_CORRECTION,
    )

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


def json_text(value) -> str:
    """The text of every JSON output: sorted keys, indent 2, a final newline;
    a NaN or an infinity, which JSON (RFC 8259) cannot hold, is a ValueError."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text(header, rows) -> str:
    """The text of every CSV output: the header row, then rows, "\\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # a bool is an int
        return str(int(value))
    if not math.isfinite(value):
        raise ValueError(f"a study CSV would hold the non-finite value {value}")
    return repr(float(value))


def replications_csv(output: ExperimentOutput) -> str:
    p = len(output.rows[0].theta_hat) if output.rows else 0
    header = (
        ["replication"]
        + [f"theta_hat_{i + 1}" for i in range(p)]
        + ["H_hat", "H_se", "z_hat", "ci_low", "ci_high", "covered"]
    )
    rows = (
        (r.replication, *r.theta_hat, r.h_hat, r.h_se, r.z_hat, r.ci_low, r.ci_high, r.covered)
        for r in output.rows
    )
    return csv_text(header, ([_fmt(v) for v in row] for row in rows))


def qq_csv(z_values) -> str:
    z = np.sort(np.asarray(z_values, dtype=float))
    n = z.size
    theo = norm_ppf((np.arange(1, n + 1) - 0.5) / n)
    return csv_text(["theoretical", "empirical"], ([_fmt(t), _fmt(e)] for t, e in zip(theo, z)))


def histogram_csv(z_values) -> str:
    counts, edges = np.histogram(z_values, bins=HIST_EDGES)
    return csv_text(
        ["bin_left", "bin_right", "count"],
        ([_fmt(v) for v in row] for row in zip(edges[:-1], edges[1:], counts)),
    )


def study_files(output: ExperimentOutput) -> dict:
    """A bs study's file texts by name; qq.csv and histogram.csv show the rows' z_hat."""
    z = [row.z_hat for row in output.rows]
    return {
        "replications.csv": replications_csv(output),
        "summary.json": json_text(output.summary),
        "qq.csv": qq_csv(z),
        "histogram.csv": histogram_csv(z),
    }


def write_experiment_outputs(files: dict, out_dir) -> dict:
    """The one writer of an experiment's files: each text of files, keyed
    by file name, into the directory out_dir, made with its parents if
    missing; returns files.  Called with no files, it only makes out_dir,
    as a study does before its first path.  An empty out_dir, or an
    OSError, is a ValueError (cannot write <path>: <reason>)."""
    if not out_dir:
        raise ValueError("the output directory path is empty")
    path = FsPath(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = FsPath(out_dir) / name
            path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    return files


# ---------------------------------------------------------------------------
# JSON config -> model / functional
# ---------------------------------------------------------------------------


_PARAM_NAMES = {
    "bs": ("mu", "sigma"),
    "ou": ("mu", "sigma", "eta"),
    "levy": ("mu", "sigma", "eta"),
}

# JSON types of the keys each model's config reads, and of the ou jump object
_MODEL_KEYS = {"model": (str,), "params": (tuple,), "x0": (float,)}
MODEL_FIELDS = {
    "bs": {**_MODEL_KEYS, "epsilon": (float,)},
    "ou": {**_MODEL_KEYS, "jump": (dict,)},
    "levy": _MODEL_KEYS,
}
_JUMP_FIELDS = {"intensity": (float,)}

# JSON types of the keys each functional kind's config reads, and the
# Functional field each key but kind sets
_FUNCTIONAL_ARGS = {
    "T": "horizon", "K": "strike", "r": "rate", "epsilon_smooth": "eps_smooth", "delta": "discount",
}
_FUNCTIONAL_KEYS = {"kind": (str,), "T": (float,)}
_CALL_KEYS = {**_FUNCTIONAL_KEYS, "K": (float,), "r": (float,), "epsilon_smooth": (float,)}
_FUNCTIONAL_FIELDS = {
    "terminal": _FUNCTIONAL_KEYS,
    "time_average": _FUNCTIONAL_KEYS,
    "discounted_integral": {**_FUNCTIONAL_KEYS, "delta": (float,)},
    "smoothed_call_terminal": _CALL_KEYS,
    "smoothed_call_average": _CALL_KEYS,
}


def model_from_config(raw: dict, reads: dict | None = None) -> JumpDiffusionModel:
    """Build a model from {model, params, x0} and its model's own keys:
    epsilon, the noise scale, which bs requires, and jump: {intensity} for
    ou (default 1).  levy has no noise scale and a fixed jump law.

    The one place a built-in model is built from a config: raw may hold
    the keys of its model's table in MODEL_FIELDS and of reads, the types
    of the caller's own keys in the same object, and nothing else.  One
    value per parameter, which the model checks against its parameter box.
    """
    name = raw.get("model")
    fields = _kind_table(MODEL_FIELDS, name, "model")
    check_json_types(raw, {**fields, **(reads or {})}, "config", f"model {name!r}")
    names, params = _PARAM_NAMES[name], [float(v) for v in raw.get("params", ())]
    if len(params) != len(names):
        raise ValueError(
            f"model {name!r} takes {len(names)} params ({', '.join(names)}), got {len(params)}"
        )
    x0 = float(raw.get("x0", 1.0))
    if name == "ou":
        jump = raw.get("jump", {})
        check_json_types(jump, _JUMP_FIELDS, "jump config", "model 'ou'")
        return ou_jump_model(*params, float(jump.get("intensity", 1.0)), x0)
    if name == "levy":
        return levy_model(*params, x0)
    if "epsilon" not in raw:
        raise ValueError("bs model config lacks 'epsilon'")
    return bs_small_noise_model(*params, float(raw["epsilon"]), x0)


def functional_from_config(raw: dict) -> Functional:
    """Build a functional from {kind, T} and its kind's own keys: K, r and
    epsilon_smooth for the two calls, delta for the discounted integral."""
    for key in ("kind", "T"):
        if key not in raw:
            raise ValueError(f"functional config lacks {key!r}")
    kind = raw["kind"]
    fields = _kind_table(_FUNCTIONAL_FIELDS, kind, "functional kind")
    check_json_types(raw, fields, "functional config", f"kind {kind!r}")
    args = {_FUNCTIONAL_ARGS[k]: float(v) for k, v in raw.items() if k != "kind"}
    return Functional(kind, **args)
