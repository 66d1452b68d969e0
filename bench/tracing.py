"""Spans around the public functions of each plugmc layer, for the traced run.

Callers inside plugmc bind names with `from .x import y`, so each function
is patched at the attribute its caller looks up (for example
`plugmc.inference.simulate_batch`, which `estimate_C` calls), not where it
is defined.  Spans (name, start, end, parent, op) stay in memory and are
written out when the run ends; layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

import plugmc.cli
import plugmc.estimate
import plugmc.experiments
import plugmc.functionals
import plugmc.inference
from plugmc.experiments import IDX_OBSERVATION
from plugmc.simulate import path_seed, sample_noise

import workloads


class Tracer:
    """Records spans of the op being traced while its patches are installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # per op: (grid, jump spec, root seed, start index, paths) of each batch
        self.batches: dict[int, list[tuple]] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": 0, "end": 0, "op": self.op,
               "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                note(tracer, rec, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def install(self) -> None:
        cli, est, exp, inf = plugmc.cli, plugmc.estimate, plugmc.experiments, plugmc.inference
        functional = plugmc.functionals.Functional
        for owner, attr, name, note in [
            (inf, "simulate_batch", "simulate.batch", _note_batch),
            (inf, "estimate_C", "inference.estimate_C", None),
            (exp, "estimate_C", "inference.estimate_C", None),
            (cli, "build_report", "inference.build_report", None),
            (functional, "values_from_batch", "functionals.reduce", None),
            (functional, "gradients_from_batch", "functionals.reduce", None),
            (exp, "sample_noise", "simulate.single_noise", _note_single_noise),
            (cli, "sample_noise", "simulate.single_noise", None),
            (exp, "euler_path", "simulate.single", None),
            (cli, "coupled_paths", "simulate.single", None),
            (cli, "minimize_contrast", "estimate.minimize_contrast", _note_newton),
            (est, "contrast_gradient", "estimate.contrast_gradient", None),
            (exp, "bs_closed_form", "estimate.bs_closed_form", None),
            (est, "fisher_info", "estimate.fisher_info", None),
            (exp, "fisher_info", "estimate.fisher_info", None),
            (est, "deterministic_path", "estimate.deterministic_path", None),
            (exp, "deterministic_path", "estimate.deterministic_path", None),
            (cli, "run_bs_experiment", "experiments.run_bs", _note_study),
            (cli, "run_ou_oracle", "experiments.run_ou_oracle", None),
            (cli, "write_experiment_outputs", "experiments.write", _note_write),
            (workloads, "run_cli", "cli.main", _note_cli),
        ]:
            self.patch(owner, attr, name, note)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def replay_noise(self, op: int) -> tuple[int, int, int]:
        """Regenerate every batch path of an op from its seed, untraced.

        Returns (elapsed ns, paths, jumps drawn).
        """
        paths = jumps = 0
        t0 = time.perf_counter_ns()
        for grid, jump, root, start, n_paths in self.batches.get(op, ()):
            for i in range(start, start + n_paths):
                jumps += sample_noise(grid, jump, path_seed(root, i)).jump_times.size
            paths += n_paths
        elapsed = time.perf_counter_ns() - t0
        self.batches.pop(op, None)
        return elapsed, paths, jumps


def _note_batch(tracer, rec, args, result):
    grid, n_paths = args["grid"], args["n_paths"]
    rec["attrs"].update(paths=n_paths, path_steps=n_paths * grid.steps)
    tracer.batches.setdefault(tracer.op, []).append(
        (grid, args["model"].jump, args["root_seed"], args.get("start_index", 0), n_paths)
    )


def _note_cli(tracer, rec, args, result):
    rec["attrs"].update(command=args["argv"][0], bytes=len(result.encode()))


def _note_single_noise(tracer, rec, args, result):
    # the study draws one observation path per replication, in order
    if args["seed"] & ((1 << 64) - 1) >= IDX_OBSERVATION:
        rec["attrs"]["replication_start"] = True


def _note_newton(tracer, rec, args, result):
    rec["attrs"].update(sweeps=result.n_iter, converged=bool(result.converged))


def _note_study(tracer, rec, args, result):
    rec["attrs"]["failed"] = result.summary["failed"]


def _note_write(tracer, rec, args, result):
    rec["attrs"]["bytes"] = sum(len(text.encode()) for text in result.values())


# ---------------------------------------------------------------------------
# Metrics of one op, derived from its spans
# ---------------------------------------------------------------------------


def op_metrics(spans: list[dict], first: int, replay: tuple[int, int, int]) -> dict:
    """Per-layer figures of one traced op.

    `spans` are the op's spans, its root first; their parent fields index
    the tracer's whole span list, in which the op's root sits at `first`.
    """
    parent = [None if s["parent"] is None else s["parent"] - first for s in spans]
    dur_ns = [s["end"] - s["start"] for s in spans]
    own = list(dur_ns)
    for i, p in enumerate(parent[1:], start=1):
        own[p] -= dur_ns[i]
        outer = spans[p]
        if not outer["start"] <= spans[i]["start"] <= spans[i]["end"] <= outer["end"]:
            raise ValueError(f"span {spans[i]['name']} is not inside {outer['name']}")
    if min(own) < 0 or sum(own) != dur_ns[0]:
        raise ValueError("self times do not add up to the op span")

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def total(*names):
        return sum(dur_ns[i] for n in names for i in by_name.get(n, ())) * 1e-9

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ()))

    batches = by_name.get("simulate.batch", [])
    est_c = by_name.get("inference.estimate_C", [])
    batch_s = total("simulate.batch")
    paths = attr_sum("simulate.batch", "paths")
    path_steps = attr_sum("simulate.batch", "path_steps")
    replay_ns, replay_paths, jumps = replay
    if replay_paths != paths:
        raise ValueError("noise replay covered other paths than the op")
    replay_s = replay_ns * 1e-9
    in_est_c = sum(dur_ns[i] for i in batches if parent[i] in est_c) * 1e-9

    # the study's correction pass is its first estimate_C call
    correction_ns = 0
    for study in by_name.get("experiments.run_bs", ()):
        correction_ns += dur_ns[next(i for i in est_c if parent[i] == study)]
    # a replication runs from one observation-noise draw to the next
    starts = [spans[i]["start"] for i in by_name.get("simulate.single_noise", ())
              if spans[i]["attrs"].get("replication_start")]
    replication = [(b - a) * 1e-9 for a, b in zip(starts, starts[1:])]

    newton = by_name.get("estimate.minimize_contrast", [])
    cli_spans = by_name.get("cli.main", [])

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    # (value, unit); counts and bytes repeat exactly for a given op seed
    return {
        "simulate.batch.calls": (len(batches), "count"),
        "simulate.batch.paths": (paths, "count"),
        "simulate.batch.path_steps": (path_steps, "count"),
        "simulate.batch.s": (batch_s, "s"),
        "simulate.batch.xy.ns_per_path_step": (per(batch_s, path_steps, 1e9), "ns"),
        "simulate.noise.replay_s": (replay_s, "s"),
        "simulate.noise.ns_per_path": (per(replay_s, paths, 1e9), "ns"),
        "simulate.noise.share": (per(replay_s, batch_s), "ratio"),
        "simulate.noise.jumps": (jumps, "count"),
        "simulate.step.ns_per_path_step_derived":
            (per(batch_s - replay_s, path_steps, 1e9), "ns"),
        "simulate.single.s": (total("simulate.single"), "s"),
        "simulate.single_noise.s": (total("simulate.single_noise"), "s"),
        "inference.estimate_C.calls": (len(est_c), "count"),
        "inference.estimate_C.s": (total("inference.estimate_C"), "s"),
        "inference.overhead_s": (total("inference.estimate_C") - in_est_c, "s"),
        "inference.build_report.s": (total("inference.build_report"), "s"),
        "functionals.reduce.s": (total("functionals.reduce"), "s"),
        "estimate.minimize_contrast.s": (total("estimate.minimize_contrast"), "s"),
        "estimate.contrast_gradient.calls":
            (len(by_name.get("estimate.contrast_gradient", ())), "count"),
        "estimate.newton_sweeps": (attr_sum("estimate.minimize_contrast", "sweeps"), "count"),
        "estimate.converged_ratio":
            (per(sum(spans[i]["attrs"]["converged"] for i in newton), len(newton)), "ratio"),
        "estimate.bs_closed_form.s": (total("estimate.bs_closed_form"), "s"),
        "estimate.fisher_info.s":
            (total("estimate.fisher_info", "estimate.deterministic_path"), "s"),
        "experiments.correction.s": (correction_ns * 1e-9, "s"),
        "experiments.replication.s_p50":
            (statistics.median(replication) if replication else 0.0, "s"),
        "experiments.failed": (attr_sum("experiments.run_bs", "failed"), "count"),
        "experiments.write.s": (total("experiments.write"), "s"),
        "experiments.write.bytes": (attr_sum("experiments.write", "bytes"), "bytes"),
        "cli.self_s": (sum(own[i] for i in cli_spans) * 1e-9, "s"),
        "cli.output.bytes": (sum(spans[i]["attrs"].get("bytes", 0) for i in cli_spans), "bytes"),
    }
