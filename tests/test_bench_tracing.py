"""The benchmark's tracer patches plugmc functions by attribute name.

Renaming or moving one of those attributes breaks `bench/run.py --trace 1`;
these tests make it break the test suite as well.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in patched)


def test_traced_simulate_records_single_path_spans(monkeypatch):
    tracing = _tracing(monkeypatch)
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        out = workloads.run_cli(
            ["simulate", "--model", "bs", "--params", "0.2,1.0", "--n", "4", "--paths", "2"]
        )
    finally:
        tracer.uninstall()
    assert out.count("\n") == 1 + 2 * 5
    names = [span["name"] for span in tracer.spans]
    assert names.count("simulate.single") == 2
    assert names.count("simulate.single_noise") == 2
    assert tracer.spans[0]["attrs"] == {"command": "simulate", "bytes": len(out.encode())}
