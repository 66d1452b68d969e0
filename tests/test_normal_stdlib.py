"""Edge values of the standard-library normal functions, and a light import.

`tests/test_normal.py` checks accuracy against independent oracles; this
file pins what those oracles do not reach: the ends of the quantile's
domain, infinities and NaN, the scalar/array contract, that importing
plugmc does not load scipy, that each module's `__all__` names only
what the module defines, that the package exports each of those names,
that no module imports a name it does not use, and that no module
defines a top-level name that the package neither loads nor exports.
"""

import ast
import glob
import importlib
import math
import os
import pkgutil
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
    # a live thread keeps every batch and study in one process; importing
    # plugmc starts none, and does not pay for concurrent.futures (5-7 ms)
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


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(plugmc.__path__)))
def test_every_exported_name_exists(name):
    # a stale entry would make `from plugmc.<module> import *` raise
    module = importlib.import_module(f"plugmc.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# The top-level names of the package before it star-imported each
# module's __all__; a name leaves this list only by a change that
# CHANGES.md states (plugin_H went with the one-line wrapper it named).
EARLIER_TOP_LEVEL = """
    CoupledPaths EstimatorResult ExperimentConfig ExperimentOutput Functional
    InferenceReport JumpDiffusionModel JumpSpec NO_JUMPS NoiseBundle Observations
    Path SimulationBlowup TimeGrid asymptotic_variance bs_call_closed_form
    bs_closed_form bs_small_noise_model build_report confidence_interval contrast
    contrast_gradient contrast_rates coupled_paths default_probe_grid
    deterministic_path estimate_C euler_path fisher_info ks_statistic levy_model
    minimize_contrast norm_cdf norm_pdf norm_ppf ou_discounted_value ou_jump_model
    path_seed run_bs_experiment run_ou_oracle sample_noise simulate_batch
    smoothed_call smoothed_call_deriv validate_model write_experiment_outputs
    z_quantile
""".split()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(plugmc.__path__)))
def test_module_exports_are_top_level(name):
    module = importlib.import_module(f"plugmc.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if getattr(plugmc, n, None) is not getattr(module, n)] == []


def test_earlier_top_level_names_still_exported():
    assert [n for n in EARLIER_TOP_LEVEL if not hasattr(plugmc, n)] == []


def test_package_modules_have_no_unused_imports():
    # an import kept only so that a caller can patch it would be dead code
    unused = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(plugmc.__file__), "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.basename(path)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_package_defines_nothing_unused():
    # a top-level def, class or assignment that no module loads and no
    # __all__ exports is dead code
    paths = sorted(glob.glob(os.path.join(os.path.dirname(plugmc.__file__), "*.py")))
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(a.name for a in node.names)
    unused = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        defined, exported = [], set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names == ["__all__"]:
                    exported = set(ast.literal_eval(node.value))
                else:
                    defined += names
        unused += [f"{module}: {n}" for n in defined if n not in exported | loaded]
    assert unused == []
