"""The Euler stepper's time per path-step, in one process.

Each case draws one chunk of noise, and every case runs
simulate._step_block once untimed, so that the first case timed does not
pay for the process's first calls.  Then each case times _step_block on
its chunk and prints the best of --repeat calls in ns per path-step (for
the recorded path, ns per step of its one column).  The noise draw is not
timed.  Run it from the repository root, pinned to one CPU for steadier
numbers:

    PYTHONPATH=src taskset -c 1 python scripts/step_timing.py --repeat 21

The cases are bs X only and X + Y at 2 000 x 50 and at 2 048 x 500, ou
(lambda = 1, so with jumps) X + Y at 2 048 x 500, alone and with the
weighted sums of the oracle's discounted integral (discount 0.05), levy
X + Y at 2 048 x 500, and one recorded bs and one recorded ou path X + Y
over 500 steps, the route of `plugmc simulate`, and one recorded ou and
one recorded levy path over 10 000 steps, where a recorded route whose
cost grows faster than the steps would show.  It uses only names the
stepper has had since the linear tables, so the same script times an
older tree given on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import functools
import time

import numpy as np

from plugmc import Functional, bs_small_noise_model, levy_model, ou_jump_model
from plugmc.simulate import TimeGrid, _draw_chunk, _flat_jumps, _step_block, path_seed

EPS = 1.0 / np.sqrt(500)
BS = bs_small_noise_model(0.2, 1.0, EPS, 1.0)
OU = ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0)
LEVY = levy_model(0.1, 0.3, 0.5, 1.0)

# Name, model, paths, steps, want_y, record, weighted (the discounted integral)
CASES = (
    ("bs X, 2000 x 50", BS, 2000, 50, False, False, False),
    ("bs X + Y, 2000 x 50", BS, 2000, 50, True, False, False),
    ("bs X, 2048 x 500", BS, 2048, 500, False, False, False),
    ("bs X + Y, 2048 x 500", BS, 2048, 500, True, False, False),
    ("ou (lambda 1) X + Y, 2048 x 500", OU, 2048, 500, True, False, False),
    ("ou X + Y weighted, 2048 x 500", OU, 2048, 500, True, False, True),
    ("levy X + Y, 2048 x 500", LEVY, 2048, 500, True, False, False),
    ("bs X + Y, 1 recorded path x 500", BS, 1, 500, True, True, False),
    ("ou X + Y, 1 recorded path x 500", OU, 1, 500, True, True, False),
    ("ou X + Y, 1 recorded path x 10000", OU, 1, 10_000, True, True, False),
    ("levy X + Y, 1 recorded x 10000", LEVY, 1, 10_000, True, True, False),
)


def measure(repeat: int) -> dict[str, float]:
    """Each case's best time over `repeat` calls, in ns per path-step,
    after one untimed call of every case."""
    runs = []
    for name, model, m, n, want_y, record, weighted in CASES:
        grid = TimeGrid(1.0, n)
        oracle = Functional(kind="discounted_integral", horizon=1.0, discount=0.05)
        weights = oracle.weights(grid) if weighted else None
        increments = np.empty((n, m))
        jumps = _flat_jumps(*_draw_chunk(path_seed(7, 0), grid, model.jump, 0, increments), grid)
        run = functools.partial(
            _step_block, model, model.theta0, grid, increments, jumps,
            want_y=want_y, weights=weights, record=record,
        )
        runs.append((name, m * n, run))
    for _, _, run in runs:
        run()
    out = {}
    for name, path_steps, run in runs:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        out[name] = best * 1e9 / path_steps
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7, help="calls per case (best is kept)")
    args = parser.parse_args(argv)
    for name, ns in measure(args.repeat).items():
        print(f"{name:<34}{ns:>10.2f} ns/path-step")


if __name__ == "__main__":
    main()
