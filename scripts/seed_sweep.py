"""The criterion-3 bs study over many root seeds: one line of statistics
per seed, then their means and spreads.

The acceptance suite runs each study at one root seed.  A change that
moves the random bitstreams draws new values of its statistics there;
this table shows whether the new values come from the same distribution
as the old ones.  Each study is the suite's criterion-3 config (R = 300
replications, 10 000 pricing paths, 100 000 correction paths) at the
given n.

    PYTHONPATH=src python scripts/seed_sweep.py --n 50 --seeds 100-119
    PYTHONPATH=src python scripts/seed_sweep.py --n 500 --seeds 100-109

The n = 50 sweep took 36 s and the n = 500 one 142 s on a
2-vCPU x86-64 host.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics

from plugmc import ExperimentConfig, run_bs_experiment

# The study of the criterion-3 acceptance tests, less n_obs and root_seed
CRITERION_3 = dict(
    theta0=(0.2, 1.0), n_paths_price=10_000, n_paths_correction=100_000, replications=300
)

# Column name, summary key
COLUMNS = (("KS", "ks_statistic"), ("z_sd", "z_sd"), ("z_mean", "z_mean"),
           ("coverage", "coverage"))


def table(config: ExperimentConfig, seeds) -> str:
    """The sweep's text: the columns of the study config at each root seed,
    then each column's mean, its sd over seeds and the mean's standard
    error, and the largest KS with its seed."""
    values = {}
    lines = ["seed " + "".join(f"{name:>10}" for name, _ in COLUMNS)]
    for seed in seeds:
        summary = run_bs_experiment(dataclasses.replace(config, root_seed=seed)).summary
        values[seed] = [summary[key] for _, key in COLUMNS]
        lines.append(f"{seed:>4} " + "".join(f"{v:>10.4f}" for v in values[seed]))
    columns = list(zip(*values.values()))
    sds = [statistics.stdev(c) if len(c) > 1 else 0.0 for c in columns]
    lines.append("mean " + "".join(f"{statistics.fmean(c):>10.4f}" for c in columns))
    lines.append("sd   " + "".join(f"{sd:>10.4f}" for sd in sds))
    lines.append("se   " + "".join(f"{sd / math.sqrt(len(values)):>10.4f}" for sd in sds))
    worst = max(values, key=lambda seed: values[seed][0])
    lines.append(f"largest KS {values[worst][0]:.4f} (seed {worst})")
    return "\n".join(lines) + "\n"


def _seeds(text: str) -> range:
    """'a-b' is the root seeds a..b, 'a' the seed a alone."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="observations per path (n_obs)")
    parser.add_argument("--seeds", type=_seeds, required=True, help="root seeds, as a-b")
    args = parser.parse_args(argv)
    print(table(ExperimentConfig(**CRITERION_3, n_obs=args.n), args.seeds), end="")


if __name__ == "__main__":
    main()
