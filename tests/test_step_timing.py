"""scripts/step_timing.py: it times every case and prints one line each."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_timing.py"


def load_timing():
    spec = importlib.util.spec_from_file_location("step_timing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_a_positive_time_per_case(capsys):
    timing = load_timing()
    timing.main(["--repeat", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert [line[:34].rstrip() for line in lines] == [case[0] for case in timing.CASES]
    for line in lines:
        ns, unit = line[34:].split()
        assert unit == "ns/path-step" and math.isfinite(float(ns)) and float(ns) > 0
