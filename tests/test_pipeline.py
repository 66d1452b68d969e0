"""The batch split: each of W contiguous ranges of paths is drawn and stepped
in a forked worker.  Its outputs and errors must be those of W = 1, which
runs the same slice function in this process."""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

import plugmc.simulate
from plugmc import (
    Functional,
    SimulationBlowup,
    TimeGrid,
    bs_small_noise_model,
    estimate_C,
    levy_model,
    ou_jump_model,
    simulate_batch,
)
from plugmc.simulate import BLOCK_PATHS, BatchResult

from conftest import assert_no_child

MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, 0.1, 1.0),
    "ou": ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
}


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(plugmc.simulate, "_worker_count", lambda chunks: workers)


def _assert_same_batch(a: BatchResult, b: BatchResult) -> None:
    for f in fields(BatchResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None) == (y is None), f.name
        if x is not None:
            assert np.array_equal(x, y), f.name


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
    results = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        results.append(
            simulate_batch(
                model, model.theta0, grid, 2024, n_paths, start_index=start, want_y=want_y,
                weights=weights, record=record, chunk_size=chunk_size,
            )
        )
        assert_no_child()
    for split in results[1:]:
        _assert_same_batch(split, results[0])


def test_blowup_round_trips_through_pickle():
    err = pickle.loads(pickle.dumps(SimulationBlowup(5, " in X (path index 7)")))
    assert type(err) is SimulationBlowup
    assert str(err) == "non-finite state at step 5 in X (path index 7)"
    assert err.step == 5


def _tripwires(model, grid, root, n_paths, trips):
    """The model with its drift made infinite at the state each path of
    trips {path: step} reaches at that step, so the path turns non-finite
    at step + 1.  The model steps without its table, through the patched
    coefficients."""
    model = replace(model, table=None)
    x_path = simulate_batch(model, model.theta0, grid, root, n_paths, record=True).x_path
    targets = [x_path[step, path] for path, step in trips.items()]

    def coefficients(x, th):
        coef = list(model.coefficients(x, th))
        coef[0] = np.where(np.isin(x, targets), np.inf, coef[0])
        return tuple(coef)

    return replace(model, coefficients=coefficients)


# path 150 blows up at an earlier step than path 7, but lies in a later
# chunk and, for W = 2 and 3, in a later slice: the serial run names path 7
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "trips, expected",
    [({150: 3}, "step 4 in X (path index 150)"), ({7: 4, 150: 2}, "step 5 in X (path index 7)")],
)
def test_blowup_in_any_slice_reads_as_in_serial_run(monkeypatch, workers, trips, expected):
    ou = MODELS["ou"]
    grid = TimeGrid(1.0, 20)
    n_paths = 3 * BLOCK_PATHS
    model = _tripwires(ou, grid, 9, n_paths, trips)
    _force_workers(monkeypatch, workers)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup) as err:
            simulate_batch(model, ou.theta0, grid, 9, n_paths, want_y=True, chunk_size=BLOCK_PATHS)
    assert str(err.value) == f"non-finite state at {expected}"
    assert err.value.step == int(expected.split()[1])
    assert_no_child()


def _failing_sampler(monkeypatch, messages):
    """Make the jump sampler raise LookupError(messages[b]) when it draws
    the sizes of noise block b, in whichever process draws that block."""
    draw = plugmc.simulate._draw_block

    def drawing(streams, key, grid, jump, out):
        block = key & ((1 << 64) - 1)
        if block in messages:

            def sizes(rng, count):
                raise LookupError(messages[block])

            jump = replace(jump, sampler=sizes)
        return draw(streams, key, grid, jump, out)

    monkeypatch.setattr(plugmc.simulate, "_draw_block", drawing)


def test_stepping_error_wins_over_later_sampler_error(monkeypatch):
    # path 7 of chunk 0 blows up at step 5, and the sampler fails on block
    # 1, the block of chunk 1: a serial run never draws chunk 1
    ou = MODELS["ou"]
    grid = TimeGrid(1.0, 20)
    n_paths = 3 * BLOCK_PATHS
    model = _tripwires(ou, grid, 9, n_paths, {7: 4})
    _failing_sampler(monkeypatch, {1: "no sizes for block 1"})
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationBlowup, match=r"step 5 in X \(path index 7\)$"):
                simulate_batch(
                    model, ou.theta0, grid, 9, n_paths, want_y=True, chunk_size=BLOCK_PATHS
                )
        assert_no_child()


# five blocks, one per chunk, over 1, 2 and 3 slices; the sampler fails
# on block fail_at - 1 and on the last block, and the earlier error wins
@pytest.mark.parametrize("fail_at", [1, 2, 4])
def test_sampler_error_in_any_chunk_surfaces_as_raised(monkeypatch, fail_at):
    model = MODELS["levy"]
    failing = {fail_at - 1: f"no sizes for block {fail_at - 1}", 4: "no sizes for block 4"}
    _failing_sampler(monkeypatch, failing)
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(LookupError, match=f"^no sizes for block {fail_at - 1}$"):
            simulate_batch(
                model, model.theta0, TimeGrid(1.0, 6), 3, 5 * BLOCK_PATHS, chunk_size=BLOCK_PATHS
            )
        assert_no_child()


@pytest.mark.parametrize("chunk_size", [1, 7, 2048])
@pytest.mark.parametrize("name", ["bs", "ou"])
def test_stacked_thetas_match_single_theta_batches(monkeypatch, name, chunk_size):
    # one draw of each chunk, stepped at every row of the stack: row j is
    # bit for bit the batch of theta[j] alone, for any split
    model = MODELS[name]
    thetas = model.theta0 * np.array([[1.0], [1.1], [0.9]])
    grid = TimeGrid(1.0, 9)
    weights = Functional(kind="time_average", horizon=1.0).weights(grid)
    kwargs = dict(start_index=BLOCK_PATHS - 5, want_y=True, weights=weights, record=True,
                  chunk_size=chunk_size)
    _force_workers(monkeypatch, 1)
    single = [simulate_batch(model, th, grid, 2024, 20, **kwargs) for th in thetas]
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        stacked = simulate_batch(model, thetas, grid, 2024, 20, **kwargs)
        assert_no_child()
        assert isinstance(stacked, list) and len(stacked) == len(thetas)
        for a, b in zip(stacked, single):
            _assert_same_batch(a, b)
    one = simulate_batch(model, thetas[:1], grid, 2024, 20, **kwargs)
    assert isinstance(one, list) and len(one) == 1
    _assert_same_batch(one[0], single[0])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ["bs", "ou"])
def test_stacked_estimate_C_matches_single_theta_calls(monkeypatch, name, workers):
    model = MODELS[name]
    thetas = model.theta0 * np.array([[1.0], [1.2]])
    grid = TimeGrid(1.0, 9)
    functional = Functional(kind="time_average", horizon=1.0)
    _force_workers(monkeypatch, workers)
    # 4100 paths are three chunks of 2048
    stacked = estimate_C(model, functional, thetas, 4100, 7, grid, start_index=3)
    assert_no_child()
    _force_workers(monkeypatch, 1)
    for row, th in zip(stacked, thetas):
        single = estimate_C(model, functional, th, 4100, 7, grid, start_index=3)
        assert len(row) == len(single) == 4
        for a, b in zip(row, single):
            assert np.array_equal(a, b) and type(a) is type(b)
