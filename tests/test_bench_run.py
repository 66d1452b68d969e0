"""The benchmark's traced run, end to end, in a process of its own.

`bench/run.py --trace 1` installs the tracer's patches on plugmc and runs
op 0 twice as a determinism self-check; its last line says whether every
op and check passed.  A short run of the cheapest workload keeps that
route working as the package changes.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_traced_bench_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "observe_estimate",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
