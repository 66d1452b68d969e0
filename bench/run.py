#!/usr/bin/env python3
"""The plugmc benchmark.

Each workload runs in its own process as a closed loop with one client:
the next op starts when the previous one has returned.  Run from any
directory:

    python3 bench/run.py --workload price_bs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of untraced ops, with times
corrected for the speed of a shared host (see speed.py).  --trace 1 runs
traced and untraced ops alternately and reports per-layer metrics, the
tracing overhead and a determinism self-check (op 0 run twice).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("price_bs", "study_bs_n50", "oracle_ou", "observe_estimate")
SETUP_PROBES = 4  # fresh processes that time set-up, besides this one
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def op_seed(seed: int, index: int) -> int:
    """The seed of op `index` of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"plugmc-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


def set_up(name: str, work_dir: Path):
    """Import plugmc and build the workload's configs.

    Returns (workload, seconds taken at the nominal kernel speed).
    """
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](work_dir)
    seconds = time.perf_counter() - t0
    return workload, seconds * speed.REF_NOMINAL_S / speed.reference_seconds()


def probe_set_up(name: str, work_dir: Path) -> float:
    """Set-up time, as set_up gives it, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name,
         "--work-dir", str(work_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, else the pinned setting."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class Runner:
    """Runs and checks ops of one workload and keeps the tallies."""

    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.probe = None  # a SpeedProbe while one samples the host's speed

    def op(self, index: int, span=None):
        """Runs op `index`, inside `span` when given.

        Returns (seconds, outputs, (start, end)); seconds leave out the time
        the speed probe took, and outputs are None when the op raised or
        failed its check.
        """
        op_dir = self.work_dir / f"op{index}"
        op_dir.mkdir(exist_ok=True)
        self.attempted += 1
        outputs = None
        probe_spent = self._probe_spent()
        with span or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outputs = self.workload.run(op_seed(self.seed, index), op_dir)
            except Exception:
                traceback.print_exc()
            t1 = time.perf_counter()
        elapsed = t1 - t0 - (self._probe_spent() - probe_spent)
        try:
            if outputs is not None:
                self.workload.check(outputs)
        except Exception as exc:
            print(f"op {index}: check failed: {exc!r}", file=sys.stderr)
            outputs = None
        if outputs is None:
            self.failed += 1
        shutil.rmtree(op_dir, ignore_errors=True)
        return elapsed, outputs, (t0, t1)

    def _probe_spent(self) -> float:
        return self.probe.spent if self.probe else 0.0


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank `pct` percentile of the op times and the samples beyond it."""
    ordered = sorted(times)
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def measure(runner: Runner, seconds: float, setup_s: float) -> dict:
    """Untraced ops for `seconds`; op times are corrected for the host's speed."""
    raw, timed = [], []
    with speed.SpeedProbe() as probe:
        runner.probe = probe
        for i in range(runner.workload.warmup_ops):
            runner.op(-1 - i)
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < seconds:
            elapsed, _, interval = runner.op(len(timed))
            timed.append((elapsed, interval))
        runner.probe = None
    times = [probe.corrected(elapsed, *interval) for elapsed, interval in timed]
    pct = runner.workload.tail_pct
    tail_s, beyond = tail(times, pct)
    print(f"ops timed: {len(times)}; op_s_tail is p{pct:g} with {beyond} "
          f"samples beyond it; failed_ratio {runner.failed / runner.attempted:.4f}; "
          f"raw op_s_p50 {statistics.median(e for e, _ in timed):.6g} s; "
          f"speed samples {len(probe.samples)}")
    return {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


COUNT_UNITS = ("count", "bytes")  # repeat exactly for a given seed


def measure_traced(runner: Runner, seconds: float, env: dict) -> tuple[dict, bool]:
    """Alternate traced and untraced ops, then run op 0 again to check that
    its outputs and counts repeat.  Returns (metrics, self-checks passed).

    Layer times are as measured, including the speed probe's samples
    (about 0.5%); the op times behind the tracing overhead are corrected.
    """
    import tracing

    tracer = tracing.Tracer()
    traced, untraced, figures, outputs = [], [], {}, {}
    ok = True

    def traced_op(index: int):
        nonlocal ok
        first = len(tracer.spans)
        tracer.op = index
        tracer.install()
        try:
            elapsed, out, interval = runner.op(index, tracer.span("op"))
        finally:
            tracer.uninstall()
            tracer.op = None
        replay = tracer.replay_noise(index)
        try:
            figures = tracing.op_metrics(tracer.spans[first:], first, replay)
        except ValueError as exc:
            print(f"op {index}: {exc}", file=sys.stderr)
            ok = False
            figures = None
        return (elapsed, interval), out, figures

    with speed.SpeedProbe() as probe:
        runner.probe = probe
        for i in range(runner.workload.warmup_ops):
            runner.op(-1 - i)
        start = time.perf_counter()
        index = 0
        while not untraced or time.perf_counter() - start < seconds:
            if index % 2 == 0:
                timing, outputs[index], figures[index] = traced_op(index)
                traced.append(timing)
            else:
                elapsed, _, interval = runner.op(index)
                untraced.append((elapsed, interval))
            index += 1
        runner.probe = None

    # determinism: op 0 again, same seed, same outputs and counts
    _, again, again_figures = traced_op(0)
    if outputs[0] is None or again != outputs[0]:
        print("determinism: op 0 outputs differ between two runs", file=sys.stderr)
        ok = False
    if figures[0] is not None and again_figures is not None:
        for name, (value, unit) in figures[0].items():
            if unit in COUNT_UNITS and again_figures[name][0] != value:
                print(f"determinism: {name} differs between two runs", file=sys.stderr)
                ok = False

    metrics = {}
    per_op = [f for f in figures.values() if f is not None]
    if figures[0] is not None:
        for name, (value, unit) in figures[0].items():
            if unit not in COUNT_UNITS:  # counts are op 0's, which every run makes
                value = statistics.median(f[name][0] for f in per_op)
            metrics[name] = (value, unit)
    traced_p50 = statistics.median(probe.corrected(e, *iv) for e, iv in traced)
    untraced_p50 = statistics.median(probe.corrected(e, *iv) for e, iv in untraced)
    metrics["trace.op_s_p50_traced"] = (traced_p50, "s")
    metrics["trace.op_s_p50_untraced"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{runner.workload.name}-seed{runner.seed}.json"
    spans_file.write_text(json.dumps({"env": env, "spans": tracer.spans}) + "\n")
    print(f"traced ops {len(traced)}, untraced ops {len(untraced)}; "
          f"spans written to {spans_file}")
    if figures[0] is not None and figures[0]["simulate.batch.calls"][0]:
        # the ROADMAP Baseline quantities, on price_bs
        print(f"{runner.workload.name}: estimate_C {metrics['inference.estimate_C.s'][0]:.3f} s, "
              f"noise replay {metrics['simulate.noise.replay_s'][0]:.3f} s, "
              "X + Y stepping (derived) "
              f"{metrics['simulate.step.ns_per_path_step_derived'][0]:.1f} ns/path-step")
    return metrics, ok


def run_workload(args) -> int:
    nproc = pin_threads()
    if not (SRC / "plugmc" / "__init__.py").is_file():
        print(f"plugmc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        workload, setup_s = set_up(args.workload, work_dir)
        env = environment(nproc, args.seed)
        print("env: " + json.dumps(env, sort_keys=True))
        runner = Runner(workload, args.seed, work_dir)
        checks_ok = True
        if args.trace:
            metrics, checks_ok = measure_traced(runner, args.seconds, env)
        else:
            probes = [probe_set_up(args.workload, work_dir / f"probe{i}")
                      for i in range(SETUP_PROBES)]
            setup_s = statistics.median([setup_s, *probes])
            metrics = measure(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and checks_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table and one combined result."""
    pin_threads()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        pin_threads()
        sys.path.insert(0, str(SRC))
        args.work_dir.mkdir()
        print(set_up(args.setup_probe, args.work_dir)[1])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
