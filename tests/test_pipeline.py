"""The batch pipeline: chunk c + 1's noise is drawn on a helper thread while
chunk c steps.  Its outputs, errors and thread use must be those of a
serial run."""

import threading
from dataclasses import fields, replace

import numpy as np
import pytest

import plugmc.simulate
from plugmc import (
    Functional,
    SimulationBlowup,
    TimeGrid,
    bs_small_noise_model,
    levy_model,
    ou_jump_model,
    simulate_batch,
)
from plugmc.simulate import BLOCK_PATHS, BatchResult

from test_simulate import tripwire_model

MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, 0.1, 1.0),
    "ou": ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
}


class _Inline:
    """Stands in for simulate._Prefetch: draws at once on the calling thread."""

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def join(self):
        pass

    def result(self):
        return self._value


def _draw_threads(monkeypatch):
    """Record the thread of every block draw, and the threads alive then."""
    draw = plugmc.simulate._draw_block
    seen = []

    def recording(*args):
        seen.append((threading.get_ident(), threading.active_count()))
        return draw(*args)

    monkeypatch.setattr(plugmc.simulate, "_draw_block", recording)
    return seen


# (n_paths, chunk_size, start_index): 1, 2, 5 and 3 chunks; starts and
# chunk edges that cut blocks apart, up to the top of the 64-bit index range
LAYOUTS = [
    (50, 2048, 0),
    (BLOCK_PATHS + 7, BLOCK_PATHS - 3, BLOCK_PATHS - 5),
    (5 * 40 - 3, 40, 2**40 - 70),
    (130, 64, 2**64 - 130),
]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "want_y, weighted, record",
    [(False, False, False), (True, False, False), (True, True, False), (False, True, True),
     (True, True, True)],
)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_pipeline_matches_serial_run(monkeypatch, name, want_y, weighted, record, layout):
    n_paths, chunk_size, start = layout
    model = MODELS[name]
    grid = TimeGrid(1.0, 9)
    weights = Functional(kind="time_average", horizon=1.0).weights(grid) if weighted else None
    seen = _draw_threads(monkeypatch)
    caller = threading.get_ident()
    threads_before = threading.active_count()

    def run():
        return simulate_batch(
            model, model.theta0, grid, 2024, n_paths, start_index=start, want_y=want_y,
            weights=weights, record=record, chunk_size=chunk_size,
        )

    threaded = run()
    threaded_draws = list(seen)
    assert threading.active_count() == threads_before
    seen.clear()
    monkeypatch.setattr(plugmc.simulate, "_Prefetch", _Inline)
    serial = run()
    assert all(thread == caller for thread, _ in seen)

    for f in fields(BatchResult):
        a, b = getattr(threaded, f.name), getattr(serial, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert np.array_equal(a, b), f.name

    # the caller draws the first chunk's blocks and helpers every later
    # block, in the serial order; no more than one helper is alive at a time
    m = min(chunk_size, n_paths)
    first_blocks = (start + m - 1) // BLOCK_PATHS - start // BLOCK_PATHS + 1
    on_caller = [thread == caller for thread, _ in threaded_draws]
    assert len(threaded_draws) == len(seen)
    assert on_caller == [True] * first_blocks + [False] * (len(seen) - first_blocks)
    assert all(count <= threads_before + 1 for _, count in threaded_draws)


def _failing_sampler(model, fail_at, error):
    """The model with a jump sampler that raises `error` on call fail_at
    (counting from 1) and draws as before until then, and the list of the
    sampler's calls."""
    sampler = model.jump.sampler
    calls = []

    def sizes(rng, count):
        calls.append(count)
        if len(calls) == fail_at:
            raise error
        return sampler(rng, count)

    return replace(model, jump=replace(model.jump, sampler=sizes)), calls


def test_stepping_error_wins_over_prefetch_error():
    # path 7 of chunk 0 blows up at step 5, while the helper's first
    # sampler call, for chunk 1, raises: the serial run never draws chunk
    # 1, so the blow-up is what the call raises
    ou = MODELS["ou"]
    grid = TimeGrid(1.0, 20)
    tripped = tripwire_model(ou, ou.theta0, grid, 9, 3 * BLOCK_PATHS, path=7, step=4, where="X")
    model, calls = _failing_sampler(tripped, 2, KeyError("prefetch failed"))
    threads_before = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup, match=r"step 5 in X \(path index 7\)$"):
            simulate_batch(
                model, ou.theta0, grid, 9, 3 * BLOCK_PATHS, want_y=True, chunk_size=BLOCK_PATHS
            )
    assert len(calls) == 2  # the prefetch did raise
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("fail_at", [1, 2, 4])
def test_sampler_error_in_any_chunk_surfaces_as_raised(fail_at):
    # one sampler call per block and one block per chunk: call 1 is the
    # caller's own draw of chunk 0, calls 2 and 4 are helper draws
    error = LookupError(f"no sizes at call {fail_at}")
    model, calls = _failing_sampler(MODELS["levy"], fail_at, error)
    threads_before = threading.active_count()
    with pytest.raises(LookupError, match=f"^no sizes at call {fail_at}$"):
        simulate_batch(
            model, model.theta0, TimeGrid(1.0, 6), 3, 5 * BLOCK_PATHS, chunk_size=BLOCK_PATHS
        )
    assert len(calls) == fail_at
    assert threading.active_count() == threads_before
