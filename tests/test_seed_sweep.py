"""scripts/seed_sweep.py: its table holds each seed's study statistics."""

import dataclasses
import importlib.util
import math
import statistics
from pathlib import Path

from plugmc import ExperimentConfig, run_bs_experiment

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_lists_each_seed_then_mean_and_spread():
    sweep = load_sweep()
    config = ExperimentConfig(
        theta0=(0.2, 1.0), n_obs=20, n_paths_price=1000, n_paths_correction=1000,
        replications=30,
    )
    lines = sweep.table(config, range(4, 6)).splitlines()
    assert lines[0].split() == ["seed", "KS", "z_sd", "z_mean", "coverage"]
    keys = [key for _, key in sweep.COLUMNS]
    rows = []
    for line, seed in zip(lines[1:3], (4, 5)):
        summary = run_bs_experiment(dataclasses.replace(config, root_seed=seed)).summary
        want = [summary[key] for key in keys]
        assert line.split() == [str(seed)] + [f"{v:.4f}" for v in want]
        rows.append(want)
    columns = list(zip(*rows))
    sds = [statistics.stdev(c) for c in columns]
    assert lines[3].split() == ["mean"] + [f"{statistics.fmean(c):.4f}" for c in columns]
    assert lines[4].split() == ["sd"] + [f"{sd:.4f}" for sd in sds]
    assert lines[5].split() == ["se"] + [f"{sd / math.sqrt(2):.4f}" for sd in sds]
    worst = max((4, 5), key=lambda seed: rows[seed - 4][0])
    assert lines[6] == f"largest KS {rows[worst - 4][0]:.4f} (seed {worst})"


def test_seed_ranges():
    sweep = load_sweep()
    assert list(sweep._seeds("100-103")) == [100, 101, 102, 103]
    assert list(sweep._seeds("7")) == [7]
