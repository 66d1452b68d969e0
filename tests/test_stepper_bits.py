"""The Euler stepper gives the floats of oracles.reference_step_block: bit
for bit for a model without a table ("arrays", "signed"), where skipping
a term or reusing a buffer must not move a bit, the sign of a zero
included; within rounding for the built-ins, which step from their
tables in another order (products and sums over the grid, see
simulate), and each of whose routes gives the same bits.

The cases reach the signed zeros where a skip could differ: a state
X = 0 (ou at x0 = 0, where the drift's theta-gradient -x is -0.0),
increments of +0.0 and -0.0, a tangent factor g < 0 (ou with mu dt > 1,
so Y g is -0.0 where Y is +0.0), an initial gradient holding -0.0, and
constants -0.0, +0.0 and 1.0 in every slot of the model's outputs.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from oracles import reference_step_block

import plugmc.simulate
from plugmc import Functional, JumpSpec, bs_small_noise_model, levy_model, ou_jump_model
from plugmc.models import JumpDiffusionModel
from plugmc.simulate import (
    BatchResult,
    SimulationBlowup,
    TimeGrid,
    _draw_chunk,
    _flat_jumps,
    _step_block,
    path_seed,
    simulate_batch,
)

EPS = 1.0 / np.sqrt(500)


def array_gradient_model() -> JumpDiffusionModel:
    """Every derivative an array, some of them -0.0 throughout, with jumps
    whose kernel derivatives are arrays too; initial_grad holds -0.0."""

    def coefficients(x, th):
        z = np.zeros_like(x)
        return (
            th[0] * x, th[1] + z, th[0] + z, -z, (x, -z), (z, 1.0 + z),
            2.0 * th[1] * x, 2.0 * th[1] + z, (-z, 2.0 * x),
        )

    def jump_kernel(x, s, th):
        return (th[1] * s * x, th[1] * s, (-0.0 * s, s * x))

    return JumpDiffusionModel(
        name="arrays", param_names=("a", "b"),
        initial=lambda th: 0.5, initial_grad=lambda th: np.array([-0.0, 0.0]),
        coefficients=coefficients, param_box=np.array([[-5.0, 5.0], [-5.0, 5.0]]),
        growth_const=10.0, theta0=np.array([0.3, 0.2]),
        jump=JumpSpec(2.0, lambda rng, count: rng.normal(0.0, 0.5, count)),
        jump_kernel=jump_kernel,
    )


def signed_constant_model() -> JumpDiffusionModel:
    """Scalar +0.0, -0.0 and 1.0 in every slot: the g factor, each row and
    the jump column each meet a constant that may be skipped and one that
    may not; initial_grad holds -0.0."""

    def coefficients(x, th):
        return (
            -th[0] * x, 1.0, -th[0], 0.0,
            (-x, -0.0, 0.0, 1.0, -0.0), (0.0, 0.0, 0.0, -0.0, 1.0),
            0.0, -0.0, (0.0, 0.0, th[1], 0.0, -0.0),
        )

    def jump_kernel(x, s, th):
        c_th = (0.0, -0.0, 1.0, 0.0, 0.0) if s.size % 2 else (0.0, 0.0, 1.0, 0.0, 0.0)
        return (s + th[1], 0.0, c_th)

    return JumpDiffusionModel(
        name="signed", param_names=("mu", "eta", "c", "d", "e"),
        initial=lambda th: 0.0, initial_grad=lambda th: np.array([0.0, -0.0, 0.0, -0.0, 0.0]),
        coefficients=coefficients, param_box=np.array([[-5.0, 5.0]] * 5),
        growth_const=10.0, theta0=np.array([3.0, 0.5, 0.0, 0.0, 0.0]),
        jump=JumpSpec(3.0, lambda rng, count: rng.normal(0.0, 0.5, count)),
        jump_kernel=jump_kernel,
    )


# Each stepped at its theta0.  mu = 3 ("ou_stiff", "signed") gives g < 0 on
# the 2-step grid (mu dt = 1.5) and g > 0 on the 12-step one.
MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, EPS, 1.0),
    "ou_lam0": ou_jump_model(1.0, 0.3, 0.5, 0.0, 1.0),
    "ou_lam1": ou_jump_model(1.0, 0.3, 0.5, 1.0, 1.0),
    "ou_x0_zero": ou_jump_model(1.0, 0.3, 0.5, 1.0, 0.0),
    "ou_lam0_x0_zero": ou_jump_model(1.0, 0.0, 0.0, 0.0, 0.0),
    "ou_stiff": ou_jump_model(3.0, 0.3, 0.5, 4.0, 0.0),
    "ou_stiff_lam0": ou_jump_model(3.0, 0.3, 0.5, 0.0, 0.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
    "arrays": array_gradient_model(),
    "signed": signed_constant_model(),
}

settings = pytest.mark.parametrize(
    "want_y, weighted, record",
    [(y, w, r) for y in (False, True) for w in (False, True) for r in (False, True)],
)


def hand_increments(steps: int, m: int) -> np.ndarray:
    """Columns of +0.0 and -0.0 alone, and columns that mix signed zeros with
    small and large increments of both signs."""
    pattern = np.array([0.0, -0.0, 0.1, -0.0, -0.2, 0.0, 1e-300, -1e-300, 0.05])
    inc = np.empty((steps, m))
    inc[:, 0] = 0.0
    inc[:, 1] = -0.0
    inc[:, 2] = [(-0.0, 0.0)[k % 2] for k in range(steps)]
    for col in range(3, m):
        inc[:, col] = np.roll(pattern, col)[np.arange(steps) % pattern.size]
    return inc


def hand_jumps(grid: TimeGrid, m: int):
    """Jumps in every column, two in one step of column 1, sizes of both
    signs and zeros of both signs."""
    dt = grid.dt
    cols = np.array([0, 1, 1, 2, 3, 4, 5, 5])
    times = np.array([0.5, 0.5, 0.7, 1.0, 1.5, 2.0, 0.2, 1.9]) * dt
    times = np.minimum(times, grid.horizon)
    sizes = np.array([0.0, -0.0, 0.3, -0.4, 1.2, -0.0, 0.0, -0.1])
    keep = cols < m
    return _flat_jumps(cols[keep], times[keep], sizes[keep], grid)


def assert_same_bits(got: BatchResult, want: BatchResult) -> None:
    for f in fields(BatchResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64, f.name
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), f.name


def assert_close(got: BatchResult, want: BatchResult) -> None:
    """Each field within 1e-12 (1 + max |field|): the rounding of the
    affine step's other order, a few ulps per step."""
    for f in fields(BatchResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f.name
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64, f.name
            assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b))), f.name


def assert_steps_as_reference(model, grid, increments, jumps, want_y, weighted, record):
    weights = None
    if weighted:
        functional = Functional(kind="discounted_integral", horizon=grid.horizon, discount=0.5)
        weights = functional.weights(grid)
    args = (model, model.theta0, grid, increments, jumps)
    kw = dict(want_y=want_y, weights=weights, record=record)
    check = assert_same_bits if model.table is None else assert_close
    check(_step_block(*args, **kw), reference_step_block(*args, **kw))


@settings
@pytest.mark.parametrize("name", MODELS)
def test_step_matches_reference_on_drawn_noise(name, want_y, weighted, record):
    model = MODELS[name]
    grid = TimeGrid(1.0, 12)
    increments = np.empty((grid.steps, 9))
    jumps = _flat_jumps(*_draw_chunk(path_seed(31, 0), grid, model.jump, 0, increments), grid)
    assert_steps_as_reference(model, grid, increments, jumps, want_y, weighted, record)


@pytest.mark.parametrize("steps", [2, 12])
@settings
@pytest.mark.parametrize("name", MODELS)
def test_step_matches_reference_on_signed_zero_increments(name, want_y, weighted, record, steps):
    model = MODELS[name]
    grid = TimeGrid(1.0, steps)
    jumps = hand_jumps(grid, 7) if model.has_jumps else None
    assert_steps_as_reference(
        model, grid, hand_increments(steps, 7), jumps, want_y, weighted, record
    )


def test_signed_zero_cases_reach_a_negative_zero():
    # the cases above are only a check if some output holds -0.0 that a
    # careless skip would turn into +0.0, or the other way round
    grid = TimeGrid(1.0, 2)
    model = MODELS["ou_stiff_lam0"]
    res = reference_step_block(model, model.theta0, grid, hand_increments(2, 7), None,
                               want_y=True, record=True)
    y = res.y_path
    assert np.any((y == 0) & np.signbit(y)) and np.any((y == 0) & ~np.signbit(y))


def scalar_g_tripwire(model, theta, grid, root, n_paths, path, step):
    """b_x stays +0.0 and a_x turns NaN, a scalar, once a block's state
    holds the value `path` reaches at `step`: g is a scalar NaN there.
    The model steps without its table, through the generic branches."""
    model = replace(model, table=None)
    target = simulate_batch(model, theta, grid, root, n_paths, record=True).x_path[step, path]

    def coefficients(x, th):
        coef = list(model.coefficients(x, th))
        if np.any(x == target):
            coef[2] = float("nan")
        return tuple(coef)

    return replace(model, coefficients=coefficients)


def jump_column_tripwire(model, theta, grid, root, n_paths, path, step):
    """c_x stays +0.0 and one c_theta entry turns inf once a jump starts
    from the value `path` reaches at `step`: the jumps add one column.
    The model steps without its table, through the generic branches."""
    model = replace(model, table=None)
    target = simulate_batch(model, theta, grid, root, n_paths, record=True).x_path[step, path]

    def jump_kernel(x, z, th):
        c, c_x, c_th = model.jump_kernel(x, z, th)
        if np.any(x == target):
            c_th = c_th[:-1] + (float("inf"),)
        return c, c_x, c_th

    return replace(model, jump_kernel=jump_kernel)


def first_jump(model, grid, root, n_paths, after):
    """(path, step) of the first jump of the batch at or after step `after`."""
    increments = np.empty((grid.steps, n_paths))
    cols, sizes, bounds = _flat_jumps(
        *_draw_chunk(path_seed(root, 0), grid, model.jump, 0, increments), grid
    )
    k = int(np.searchsorted(bounds, bounds[after], side="right")) - 1
    return int(cols[bounds[k]]), k


def blowup(monkeypatch, model, theta, grid, root, n_paths, workers, stepper):
    monkeypatch.setattr(plugmc.simulate, "_worker_count", lambda chunks: min(workers, chunks))
    monkeypatch.setattr(plugmc.simulate, "_step_block", stepper)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup) as err:
            simulate_batch(model, theta, grid, root, n_paths, want_y=True, chunk_size=3)
    return err.value


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("branch", ["scalar_g", "jump_column"])
def test_blowup_through_skipping_branches_matches_reference(monkeypatch, branch, workers):
    ou = ou_jump_model(1.0, 0.3, 0.5, 5.0, 1.0)
    grid, root, n_paths = TimeGrid(1.0, 20), 17, 10
    if branch == "scalar_g":
        path, step = 7, 9
        model = scalar_g_tripwire(ou, ou.theta0, grid, root, n_paths, path, step)
    else:
        path, step = first_jump(ou, grid, root, n_paths, after=8)
        model = jump_column_tripwire(ou, ou.theta0, grid, root, n_paths, path, step)
    got = blowup(monkeypatch, model, ou.theta0, grid, root, n_paths, workers, _step_block)
    want = blowup(
        monkeypatch, model, ou.theta0, grid, root, n_paths, workers, reference_step_block
    )
    assert (got.step, str(got)) == (want.step, str(want))
    assert got.step == step + 1 and " in Y " in str(got)
    index = int(str(got).rsplit(" ", 1)[1].rstrip(")"))
    if branch == "scalar_g":  # every column of the path's chunk turns NaN
        assert path - 2 <= index <= path
    else:
        assert index == path


def hand_chunk(columns):
    """A _draw_chunk that fills each chunk's increments from columns, shape
    (steps, n_paths), one column per path of the batch, and draws no jumps."""

    def draw(root_key, grid, jump, first, increments):
        increments[:] = columns[:, first : first + increments.shape[1]]
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)

    return draw


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", ["X", "Y"])
def test_affine_blowup_names_first_step_and_path(monkeypatch, label, workers):
    # bs with eps = 1 and sigma = 10 on hand-built increments, stepped from
    # its table: path 7 alone overflows, in the fourth of four chunks
    n_paths = 10
    if label == "X":
        # dW = 1e80 from step 6 on: X grows by g ~ 1e81 a step, past the
        # largest float at step 9, while Y_sigma ~ k X / 10 is still finite
        model, grid = bs_small_noise_model(0.2, 10.0, 1.0, 1.0), TimeGrid(1.0, 20)
        increments = np.zeros((grid.steps, n_paths))
        increments[5:, 7] = 1e80
        step = 9
    else:
        # dt = 5 and x0 = 1e300: path 7 (dW = 0) has g = 2, so X_k = 2^k x0
        # stays finite while Y_mu ~ 2.5 k X_k overflows at step 22; the
        # others (dW = -0.1) have g = 1 and stay finite
        model, grid = bs_small_noise_model(0.2, 10.0, 1.0, 1e300), TimeGrid(120.0, 24)
        increments = np.full((grid.steps, n_paths), -0.1)
        increments[:, 7] = 0.0
        step = 22
    assert model.table is not None
    monkeypatch.setattr(plugmc.simulate, "_draw_chunk", hand_chunk(increments))
    err = blowup(monkeypatch, model, model.theta0, grid, 0, n_paths, workers, _step_block)
    assert err.step == step
    assert str(err) == f"non-finite state at step {step} in {label} (path index 7)"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", ["X", "Y"])
def test_sum_form_blowup_names_first_step_and_path(monkeypatch, label, workers):
    # ou (a law with jumps, none drawn) on hand-built increments, stepped as
    # weighted sums: path 7 alone overflows, in a later chunk; the re-run
    # names the recursion's first non-finite step
    n_paths = 10
    if label == "X":
        # dW = 1e307 from step 6 on: X_k = g X_k-1 + 1e307 passes the
        # largest float while Y_mu ~ -dt k X is still finite
        model, grid = ou_jump_model(1.0, 1.0, 0.5, 1.0, 1.0), TimeGrid(1.0, 40)
        increments = np.zeros((grid.steps, n_paths))
        increments[5:, 7] = 1e307
        step = 29
    else:
        # dt = 5: path 7 (dW = 1e306 each step) has X_k ~ k 1e306, finite,
        # while Y_mu ~ -2.5 k^2 1e306 overflows; the others (dW = 0) decay
        model, grid = ou_jump_model(1e-3, 1.0, 0.5, 1.0, 1.0), TimeGrid(120.0, 24)
        increments = np.zeros((grid.steps, n_paths))
        increments[:, 7] = 1e306
        step = 10
    assert not plugmc.simulate._product_form(model, model.theta0, True)
    monkeypatch.setattr(plugmc.simulate, "_draw_chunk", hand_chunk(increments))
    got = blowup(monkeypatch, model, model.theta0, grid, 0, n_paths, workers, _step_block)
    want = blowup(
        monkeypatch, model, model.theta0, grid, 0, n_paths, workers, reference_step_block
    )
    assert (got.step, str(got)) == (want.step, str(want))
    assert str(got) == f"non-finite state at step {step} in {label} (path index 7)"


def path_columns(res: BatchResult, cols) -> BatchResult:
    """The BatchResult of the paths `cols` alone (recorded paths end in B)."""
    def take(name):
        value = getattr(res, name)
        if value is None:
            return None
        return value[..., cols] if name.endswith("_path") else value[cols]

    return BatchResult(**{f.name: take(f.name) for f in fields(BatchResult)})


@pytest.mark.parametrize("steps", [1, 31, 32, 33, 77])
@settings
def test_product_form_does_not_depend_on_block_steps_or_chunk_width(
    monkeypatch, want_y, weighted, record, steps
):
    # every route of the product form (a wide chunk's block reduction, the
    # rows of a recorded or weighted chunk, one column's accumulate) gives
    # the same bits, at any block length
    model, theta, root = MODELS["bs"], MODELS["bs"].theta0, 41
    grid = TimeGrid(1.0, steps)
    weights = Functional(kind="time_average", horizon=1.0).weights(grid) if weighted else None
    kw = dict(want_y=want_y, weights=weights, record=record)
    assert plugmc.simulate._product_form(model, theta, want_y)
    monkeypatch.setattr(plugmc.simulate, "_worker_count", lambda chunks: 1)

    def batch(n_paths, width, **extra):
        return simulate_batch(model, theta, grid, root, n_paths, chunk_size=width, **kw, **extra)

    want = batch(9, 2048)
    increments = np.empty((steps, 9))
    _draw_chunk(path_seed(root, 0), grid, model.jump, 0, increments)
    assert_close(want, reference_step_block(model, theta, grid, increments, None, **kw))
    for block in (1, 5, 32):
        monkeypatch.setattr(plugmc.simulate, "BLOCK_STEPS", block)
        for width in (1, 2, 3):
            assert_same_bits(batch(9, width), want)
        wide = batch(2049, 2048)  # a chunk of 2 048 columns, then one of one
        assert_same_bits(path_columns(wide, slice(0, 9)), want)
        assert_same_bits(path_columns(wide, slice(2048, 2049)), batch(1, 3, start_index=2048))


# The tables without delta entries, each on a grid of 70 steps: g = 1
# (levy), 0 < g < 1, g = -0.5 ("ou_stiff", mu dt = 1.5) and g = 0 exactly
# ("ou_zero_factor", mu dt = 1)
SUM_FORM = {
    "ou_lam0": (MODELS["ou_lam0"], TimeGrid(1.0, 70)),
    "ou_lam1": (MODELS["ou_lam1"], TimeGrid(1.0, 70)),
    "ou_stiff": (MODELS["ou_stiff"], TimeGrid(35.0, 70)),
    "ou_zero_factor": (ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0), TimeGrid(70.0, 70)),
    "levy": (MODELS["levy"], TimeGrid(1.0, 70)),
}


def sum_form_setup(monkeypatch, name, want_y, weighted, workers):
    """The model, grid and thetas of SUM_FORM[name] (theta0 and a second
    row), and a batch(theta, n_paths, width, record, ...) at W = workers."""
    model, grid = SUM_FORM[name]
    theta = model.theta0
    thetas = np.stack([theta, theta * np.array([0.5, 2.0, -1.0])])
    dt_g = 1.0 - theta[0] * grid.dt if name.startswith("ou") else 1.0
    assert {"ou_stiff": dt_g < 0, "ou_zero_factor": dt_g == 0.0}.get(name, dt_g > 0)
    weights = None
    if weighted:
        functional = Functional(kind="discounted_integral", horizon=grid.horizon, discount=0.05)
        weights = functional.weights(grid)
    assert not plugmc.simulate._product_form(model, theta, want_y)
    monkeypatch.setattr(plugmc.simulate, "_worker_count", lambda chunks: min(workers, chunks))

    def batch(th, n_paths, width, record, **extra):
        return simulate_batch(model, th, grid, 43, n_paths, chunk_size=width, record=record,
                              want_y=want_y, weights=weights, **extra)

    return model, grid, thetas, weights, batch


@pytest.mark.parametrize("workers", [1, 2])
@settings
@pytest.mark.parametrize("name", SUM_FORM)
def test_sum_form_does_not_depend_on_route_chunk_width_workers_or_stack(
    monkeypatch, name, want_y, weighted, record, workers
):
    # every route of the weighted sums (chunks of two or three columns, a
    # lone column, which goes in twice, the recorded rows in blocks of
    # RECORD_STEPS, which end in the terminal) gives the same bits at any
    # chunk width and worker count, and at each row of a stack
    model, grid, thetas, weights, batch = sum_form_setup(
        monkeypatch, name, want_y, weighted, workers
    )
    want = [batch(th, 9, 2048, record) for th in thetas]
    increments = np.empty((grid.steps, 9))
    jumps = _flat_jumps(*_draw_chunk(path_seed(43, 0), grid, model.jump, 0, increments), grid)
    assert_close(want[0], reference_step_block(model, thetas[0], grid, increments, jumps,
                                               want_y=want_y, weights=weights, record=record))
    for width in (1, 2, 3):
        for got, lone in zip(batch(thetas, 9, width, record), want):
            assert_same_bits(got, lone)
    if record:
        terminal = batch(thetas[0], 9, 3, False)
        assert_same_bits(
            BatchResult(x_terminal=want[0].x_path[-1],
                        y_terminal=want[0].y_path[-1].T.copy() if want_y else None),
            BatchResult(x_terminal=terminal.x_terminal, y_terminal=terminal.y_terminal),
        )


@pytest.mark.parametrize("name", SUM_FORM)
def test_sum_form_wide_chunk_matches_lone_columns(monkeypatch, name):
    # a chunk of 2 048 columns, then one of one, with every output on:
    # its columns equal the same paths in chunks of three and alone
    _, _, thetas, _, batch = sum_form_setup(monkeypatch, name, True, True, 1)
    wide = batch(thetas[0], 2049, 2048, True)
    assert_same_bits(path_columns(wide, slice(0, 9)), batch(thetas[0], 9, 3, True))
    assert_same_bits(path_columns(wide, slice(2048, 2049)),
                     batch(thetas[0], 1, 3, True, start_index=2048))


@pytest.mark.parametrize("width", [1, 3])
@settings
def test_zero_factor_gives_the_recursions_finite_paths(monkeypatch, want_y, weighted, record,
                                                       width):
    # mu = 0 and eps sigma = 1: dW = -1.0 makes g = 0, so X turns 0 and
    # 1/g infinite.  Without Y the product form stays finite and stands;
    # with Y it is NaN on that path, which takes the recursion's finite
    # values: no NaN and no SimulationBlowup
    model = bs_small_noise_model(0.0, 1.0, 1.0, 1.0)
    grid = TimeGrid(1.0, 40)
    zero = width // 2
    increments = np.random.default_rng(5).normal(0.0, 0.1, (grid.steps, width))
    increments[35, zero] = -1.0
    weights = Functional(kind="time_average", horizon=1.0).weights(grid) if weighted else None
    kw = dict(want_y=want_y, weights=weights, record=record)
    args = (model, model.theta0, grid, increments, None)
    got = _step_block(*args, **kw)
    want = reference_step_block(*args, **kw)
    assert got.x_terminal[zero] == 0.0
    for f in fields(BatchResult):
        value = getattr(got, f.name)
        assert value is None or np.isfinite(value).all(), f.name
    assert_close(got, want)
    if want_y:
        assert_same_bits(path_columns(got, [zero]), path_columns(want, [zero]))
    # each path's values do not depend on the chunk it is stepped in
    monkeypatch.setattr(plugmc.simulate, "_draw_chunk", hand_chunk(increments))
    res = simulate_batch(model, model.theta0, grid, 0, width, chunk_size=1, **kw)
    assert_same_bits(res, got)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", ["X", "Y"])
def test_product_blowup_after_first_block_names_step_and_path(monkeypatch, label, workers):
    # as test_affine_blowup_names_first_step_and_path, past BLOCK_STEPS = 32
    n_paths = 10
    if label == "X":
        # dW = 1e80 from step 37 on: X grows by g ~ 1e81 a step, past the
        # largest float at step 40, while Y_sigma ~ X / 3 is still finite
        model, grid = bs_small_noise_model(0.2, 10.0, 1.0, 1.0), TimeGrid(1.0, 60)
        increments = np.zeros((grid.steps, n_paths))
        increments[36:, 7] = 1e80
        step = 40
    else:
        # dt = 5 and x0 = 1e290: path 7 (dW = 0) has g = 2, so X_k = 2^k x0
        # stays finite while Y_mu = 2.5 k X_k overflows at step 54; the
        # others (dW = -0.1) have g = 1 and stay finite
        model, grid = bs_small_noise_model(0.2, 10.0, 1.0, 1e290), TimeGrid(300.0, 60)
        increments = np.full((grid.steps, n_paths), -0.1)
        increments[:, 7] = 0.0
        step = 54
    assert plugmc.simulate._product_form(model, model.theta0, True)
    monkeypatch.setattr(plugmc.simulate, "_draw_chunk", hand_chunk(increments))
    for zero_factor in (False, True):
        if zero_factor:
            # path 6, in path 7's chunk, has g = 0 at step 10: its product
            # form fails too, and the re-run must give it the recursion's
            # finite values without swallowing path 7's blow-up
            mu, delta = model.theta0[0], model.theta0[1] * model.epsilon
            increments[9, 6] = -(1.0 + mu * grid.dt) / delta
            assert (1.0 + mu * grid.dt) + increments[9, 6] * delta == 0.0
        got = blowup(monkeypatch, model, model.theta0, grid, 0, n_paths, workers, _step_block)
        want = blowup(
            monkeypatch, model, model.theta0, grid, 0, n_paths, workers, reference_step_block
        )
        assert (got.step, str(got)) == (want.step, str(want))
        assert str(got) == f"non-finite state at step {step} in {label} (path index 7)"
