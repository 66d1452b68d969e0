"""Every config key the commands read, at the values that break numbers.

Configs are drawn from the type tables, the one list of the keys each
kind reads: each model's and functional kind's table, the price table and
the study's fields, with keys of the other kinds mixed in.  The values are
0, -1, 1e-300, 1e308, NaN and +-Infinity.  Each case must either exit 0
with finite output (strict JSON, or a CSV of finite numbers) or exit 2
with one `error:` line on standard error and nothing on standard output;
an uncaught exception, a numpy warning (a second line on standard error)
or a non-finite output fails.  `price` and `simulate` run in full at
B = 100 paths and n <= 20 steps; `experiment` runs up to its first path.

README.md's JSON examples are checked against the same tables.
"""

import contextlib
import csv
import io
import json
import math
import re
import typing
import warnings
from pathlib import Path as FsPath
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import plugmc.inference
from plugmc.cli import _PRICE_FIELDS, main
from plugmc.experiments import (
    _FUNCTIONAL_FIELDS,
    _JUMP_FIELDS,
    MATRIX,
    MODEL_FIELDS,
    ExperimentConfig,
    functional_from_config,
    model_from_config,
)

SPECIALS = (0, -1, 1e-300, 1e308, math.nan, math.inf, -math.inf)
SETTINGS = settings(
    derandomize=True, max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

MODELS = {
    "bs": {"model": "bs", "params": [0.2, 1.0], "epsilon": 0.1},
    "ou": {"model": "ou", "params": [1.0, 0.3, 0.5], "jump": {"intensity": 1.0}},
    "levy": {"model": "levy", "params": [0.1, 0.3, 0.5]},
}
FUNCTIONALS = {
    "terminal": {"kind": "terminal", "T": 1.0},
    "time_average": {"kind": "time_average", "T": 1.0},
    "discounted_integral": {"kind": "discounted_integral", "T": 1.0, "delta": 0.05},
    "smoothed_call_terminal": {"kind": "smoothed_call_terminal", "T": 1.0, "K": 0.75,
                               "r": 0.05, "epsilon_smooth": 0.001},
    "smoothed_call_average": {"kind": "smoothed_call_average", "T": 1.0, "K": 0.75,
                              "r": 0.05, "epsilon_smooth": 0.001},
}
STUDIES = {
    "bs": {"theta0": [0.2, 1.0], "n_obs": 20, "n_paths_price": 1000,
           "n_paths_correction": 1000, "replications": 30},
    "ou_oracle": {"theta0": [1.0, 0.3, 0.5], "n_grid_price": 20, "n_paths_correction": 1000},
}
STUDY_FIELDS = {
    k: typing.get_args(t) or (t,) for k, t in typing.get_type_hints(ExperimentConfig).items()
}

SPECIAL = st.sampled_from(SPECIALS)


def _types(*tables) -> dict:
    """Each key of the tables with its JSON types."""
    return {key: types for table in tables for key, types in table.items()}


def _value(types):
    """A special number, or a list or square matrix of them for a list field."""
    if tuple in types:
        return st.lists(SPECIAL, min_size=1, max_size=3)
    if MATRIX in types:
        return st.integers(2, 3).flatmap(
            lambda p: st.lists(st.lists(SPECIAL, min_size=p, max_size=p), min_size=p, max_size=p)
        )
    return SPECIAL


def _mutate(data, base: dict, types: dict) -> dict:
    """base with up to three of the keys of types set to a drawn value or removed."""
    out = dict(base)
    for key in data.draw(st.lists(st.sampled_from(sorted(types)), max_size=3, unique=True)):
        value = data.draw(st.one_of(st.none(), _value(types[key])))
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_refused_or_finite(command, code, out, err):
    if code == 2:
        assert out == ""
        assert err.startswith(f"plugmc {command}: error: ") and err.count("\n") == 1, err
        return
    assert code == 0 and err == ""
    if command == "simulate":
        rows = list(csv.reader(io.StringIO(out)))
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
    else:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the output"))


def _price_config(data) -> dict:
    model = data.draw(st.sampled_from(sorted(MODELS)))
    kind = data.draw(st.sampled_from(sorted(FUNCTIONALS)))
    functional = _mutate(data, FUNCTIONALS[kind], _types(*_FUNCTIONAL_FIELDS.values()))
    base = {**MODELS[model], "functional": functional, "n": 10}
    if "jump" in base:
        base["jump"] = _mutate(data, base["jump"], _JUMP_FIELDS)
    types = _types(*MODEL_FIELDS.values(), _PRICE_FIELDS)
    return _mutate(data, base, {k: v for k, v in types.items() if dict not in v})


@SETTINGS
@given(data=st.data())
def test_price_refuses_or_prices_every_drawn_config(data, tmp_path):
    path = tmp_path / "price.json"
    path.write_text(json.dumps(_price_config(data)))
    code, out, err = _run(["price", "--config", str(path), "--B", "100"])
    _check_refused_or_finite("price", code, out, err)


@SETTINGS
@given(
    model=st.sampled_from(sorted(MODELS)),
    flags=st.dictionaries(
        st.sampled_from(["--epsilon", "--x0", "--jump-intensity", "--T"]),
        SPECIAL.map(repr), max_size=2,
    ),
    param=st.tuples(st.integers(0, 2), st.one_of(st.none(), SPECIAL)),
    steps=st.sampled_from(["0", "-1", "1", "20"]),
)
def test_simulate_refuses_or_writes_finite_paths(model, flags, param, steps):
    params = list(MODELS[model]["params"])
    index, value = param
    if value is not None:
        params[index % len(params)] = value
    # flag=value, as argparse takes "-inf" after a bare flag for an option
    argv = ["simulate", "--model", model, "--params=" + ",".join(map(repr, params)),
            f"--n={steps}", "--paths", "2", *(f"{flag}={value}" for flag, value in flags.items())]
    code, out, err = _run(argv)
    _check_refused_or_finite("simulate", code, out, err)


class FirstPath(Exception):
    """Raised in place of drawing the first path of a study."""


@SETTINGS
@given(data=st.data())
def test_experiment_refuses_or_reaches_its_first_path(data, tmp_path):
    kind = data.draw(st.sampled_from(sorted(STUDIES)))
    raw = _mutate(data, {"kind": kind, **STUDIES[kind]}, STUDY_FIELDS)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(raw))

    def first_path(*args, **kwargs):
        raise FirstPath

    with mock.patch.object(plugmc.inference, "simulate_batch", first_path):
        try:
            code, out, err = _run(["experiment", "--config", str(path)])
        except FirstPath:
            return
    assert code == 2
    _check_refused_or_finite("experiment", code, out, err)


def test_readme_json_examples_build_through_their_tables():
    readme = (FsPath(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert len(blocks) >= 2
    for raw in blocks:
        if "theta0" in raw:
            ExperimentConfig.from_dict(raw, raw.pop("kind", "bs"))
        else:
            model_from_config(raw, _PRICE_FIELDS)
            functional_from_config(raw["functional"])
