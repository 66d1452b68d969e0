"""Edge values of the standard-library normal functions, and a light import.

`tests/test_normal.py` checks accuracy against independent oracles; this
file pins what those oracles do not reach: the ends of the quantile's
domain, infinities and NaN, the scalar/array contract, and that importing
plugmc does not load scipy.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plugmc
from plugmc import norm_cdf, norm_ppf


@pytest.mark.parametrize(
    "x, expected",
    [(-math.inf, 0.0), (0.0, 0.5), (math.inf, 1.0), (-40.0, 0.0), (40.0, 1.0)],
)
def test_cdf_at_edges(x, expected):
    assert norm_cdf(x) == expected


def test_cdf_of_nan_is_nan():
    assert math.isnan(norm_cdf(math.nan))


@pytest.mark.parametrize(
    "q, expected", [(0.0, -math.inf), (0.5, 0.0), (1.0, math.inf)]
)
def test_ppf_at_edges(q, expected):
    assert norm_ppf(q) == expected


@pytest.mark.parametrize("q", [math.nan, -0.1, 1.1, -math.inf, math.inf])
def test_ppf_outside_unit_interval_is_nan(q):
    assert math.isnan(norm_ppf(q))


@pytest.mark.parametrize("fn, arg", [(norm_cdf, 0.3), (norm_ppf, 0.3)])
def test_scalar_in_gives_scalar_out(fn, arg):
    for value in (arg, np.float64(arg), np.array(arg)):
        out = fn(value)
        assert np.ndim(out) == 0
        assert isinstance(out, float)


@pytest.mark.parametrize("fn", [norm_cdf, norm_ppf])
@pytest.mark.parametrize("shape", [(0,), (3,), (2, 3), (1, 2, 1)])
def test_array_keeps_its_shape(fn, shape):
    q = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    out = fn(q)
    assert isinstance(out, np.ndarray)
    assert out.shape == shape
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out.ravel(), [fn(v) for v in q.ravel()])


def test_ppf_array_carries_edges():
    out = norm_ppf(np.array([0.0, 0.5, 1.0, math.nan]))
    assert out[0] == -math.inf and out[1] == 0.0 and out[2] == math.inf
    assert math.isnan(out[3])


def test_import_does_not_load_scipy():
    # a fresh interpreter, running the same copy of plugmc as these tests
    root = os.path.dirname(os.path.dirname(os.path.abspath(plugmc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys, plugmc, plugmc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_import_starts_no_thread_and_loads_no_executor():
    # simulate_batch starts its helper thread per call; importing plugmc
    # starts none, and does not pay for concurrent.futures (5-7 ms)
    root = os.path.dirname(os.path.dirname(os.path.abspath(plugmc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys, threading, plugmc, plugmc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'), "
        "threading.active_count())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[] 1"


def test_import_loads_no_multiprocessing():
    # the study forks its workers with os.fork; importing plugmc does not
    # pay for multiprocessing, which would also raise the parent's peak RSS
    root = os.path.dirname(os.path.dirname(os.path.abspath(plugmc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys, plugmc, plugmc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
