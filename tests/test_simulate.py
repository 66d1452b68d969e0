"""Noise sampling, Euler stepping, coupling and batch consistency."""

import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plugmc.simulate
from plugmc import (
    NO_JUMPS,
    Functional,
    TimeGrid,
    SimulationBlowup,
    bs_small_noise_model,
    coupled_paths,
    coupling_residual_supnorms,
    euler_path,
    levy_model,
    ou_jump_model,
    path_seed,
    sample_noise,
    simulate_batch,
    sup_norm_moment,
)
from plugmc.models import JumpDiffusionModel, JumpSpec
from plugmc.simulate import BLOCK_PATHS, NoiseBundle

from conftest import EPS, THETA0, coupling_residual_sup


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.allclose(g.times(), [0, 0.5, 1.0, 1.5, 2.0])


def test_same_seed_reproduces_bundle_bit_exactly(ou_model):
    grid = TimeGrid(1.0, 64)
    a = sample_noise(grid, ou_model.jump, path_seed(42, 7))
    b = sample_noise(grid, ou_model.jump, path_seed(42, 7))
    assert np.array_equal(a.brownian_increments, b.brownian_increments)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_sizes, b.jump_sizes)
    c = sample_noise(grid, ou_model.jump, path_seed(42, 8))
    assert not np.array_equal(a.brownian_increments, c.brownian_increments)


def test_no_jumps_gives_empty_lists():
    bundle = sample_noise(TimeGrid(1.0, 16), NO_JUMPS, path_seed(0, 0))
    assert bundle.jump_times.size == 0 and bundle.jump_sizes.size == 0


def test_jump_times_sorted_and_in_range(ou_model):
    grid = TimeGrid(2.0, 32)
    for i in range(50):
        b = sample_noise(grid, ou_model.jump, path_seed(5, i))
        assert np.all(np.diff(b.jump_times) >= 0)
        if b.jump_times.size:
            assert b.jump_times.min() >= 0.0 and b.jump_times.max() <= 2.0
            assert b.jump_sizes.size == b.jump_times.size


def test_increment_moments():
    # per-step variance dt within 3 standard errors over 1e5 draws
    grid = TimeGrid(1.0, 10)
    draws = np.concatenate(
        [sample_noise(grid, NO_JUMPS, path_seed(11, i)).brownian_increments
         for i in range(10_000)]
    )
    n = draws.size  # 1e5
    mean_se = np.sqrt(grid.dt / n)
    assert abs(draws.mean()) < 3 * mean_se
    var_se = grid.dt * np.sqrt(2.0 / n)
    assert abs(draws.var() - grid.dt) < 3 * var_se


def test_jump_count_moments(ou_model):
    # Poisson(lam T): mean and variance both lam T within 3 stderr
    grid = TimeGrid(2.0, 8)
    lam_t = ou_model.jump.intensity * grid.horizon
    counts = np.array(
        [sample_noise(grid, ou_model.jump, path_seed(17, i)).jump_times.size
         for i in range(20_000)]
    )
    n = counts.size
    assert abs(counts.mean() - lam_t) < 3 * np.sqrt(lam_t / n)
    var_se = np.sqrt((lam_t + 2 * lam_t**2) / n)  # Poisson: Var(S^2-ish) bound
    assert abs(counts.var() - lam_t) < 4 * var_se


def constant_model():
    return JumpDiffusionModel(
        name="const",
        p=1,
        param_names=("c",),
        initial=lambda th: 2.5,
        initial_grad=lambda th: np.zeros(1),
        coefficients=lambda x, th: (0.0, 0.0, 0.0, 0.0, (0.0,), (0.0,)),
        param_box=np.array([[-1.0, 1.0]]),
        growth_const=1.0,
        theta0=np.zeros(1),
    )


def test_zero_dynamics_constant_path():
    m = constant_model()
    b = sample_noise(TimeGrid(1.0, 32), NO_JUMPS, path_seed(1, 1))
    p = euler_path(m, np.zeros(1), b)
    assert np.all(p.values == 2.5)


def test_bs_noise_free_path_matches_ode():
    # Euler error for x' = mu x at n = 500: |X_1 - e^mu| < 5e-4
    m = bs_small_noise_model(0.2, 1.0, 0.0, 1.0)
    b = sample_noise(TimeGrid(1.0, 500), NO_JUMPS, path_seed(2, 0))
    p = euler_path(m, THETA0, b)
    assert abs(p.values[-1] - np.exp(0.2)) < 5e-4


def test_bs_noise_free_error_halves_when_n_doubles():
    m = bs_small_noise_model(0.2, 1.0, 0.0, 1.0)
    errs = []
    for n in (100, 200, 400):
        b = sample_noise(TimeGrid(1.0, n), NO_JUMPS, path_seed(2, 1))
        errs.append(abs(euler_path(m, THETA0, b).values[-1] - np.exp(0.2)))
    assert errs[1] == pytest.approx(errs[0] / 2, rel=0.05)
    assert errs[2] == pytest.approx(errs[1] / 2, rel=0.05)


def test_ou_mean_matches_formula(ou_model):
    # E X_1 = x0 e^{-mu} + lam eta / mu (1 - e^{-mu}) within 3 MC stderr
    grid = TimeGrid(1.0, 100)
    res = simulate_batch(ou_model, ou_model.theta0, grid, 23, 100_000)
    x1 = res.x_terminal
    target = np.exp(-1.0) + 0.5 * (1 - np.exp(-1.0))
    se = x1.std(ddof=1) / np.sqrt(x1.size)
    # allow the O(dt) Euler mean bias on top of MC noise
    assert abs(x1.mean() - target) < 3 * se + 3.0 / grid.steps


def test_ou_without_jumps_reverts_to_pure_diffusion():
    # lam = 0: mean follows the homogeneous ODE, checked against an
    # independent integrator
    from scipy.integrate import solve_ivp
    from plugmc import ou_jump_model

    m = ou_jump_model(1.3, 0.3, 0.5, 0.0, 1.0)
    assert not m.has_jumps
    grid = TimeGrid(1.0, 100)
    res = simulate_batch(m, m.theta0, grid, 29, 50_000)
    sol = solve_ivp(lambda t, y: -1.3 * y, (0, 1), [1.0], rtol=1e-10, atol=1e-12)
    target = sol.y[0, -1]
    assert target == pytest.approx(np.exp(-1.3), abs=1e-8)
    se = res.x_terminal.std(ddof=1) / np.sqrt(res.x_terminal.size)
    assert abs(res.x_terminal.mean() - target) < 3 * se + 3.0 / grid.steps


def test_levy_pure_jump_identity():
    # mu = 0, sigma = 0, eta = 1: the path is x0 plus the driving jump sum
    from plugmc import levy_model

    m = levy_model(0.0, 0.0, 1.0, 1.0)
    grid = TimeGrid(1.0, 64)
    b = sample_noise(grid, m.jump, path_seed(33, 2))
    p = euler_path(m, m.theta0, b)
    s = np.zeros(grid.steps + 1)
    np.add.at(s, b.jump_step_indices() + 1, b.jump_sizes)
    s = np.cumsum(s)
    assert np.max(np.abs(p.values - (1.0 + s))) < 1e-12


def test_strong_convergence_against_lognormal_solution():
    # same Brownian path, exact X_T = x exp((mu - e^2 s^2 / 2) T + e s W_T)
    m = bs_small_noise_model(0.2, 1.0, 1.0, 1.0)  # eps = 1 makes the noise visible
    theta = THETA0
    errors = {}
    for n in (100, 400):
        errs = []
        for i in range(400):
            b = sample_noise(TimeGrid(1.0, n), NO_JUMPS, path_seed(31, i))
            w_t = b.brownian_increments.sum()
            exact = np.exp((0.2 - 0.5) * 1.0 + w_t)
            errs.append(euler_path(m, theta, b).values[-1] - exact)
        errors[n] = np.sqrt(np.mean(np.square(errs)))
    assert errors[400] < errors[100]


def test_blowup_reports_step_index():
    m = bs_small_noise_model(4.9, 1.0, 0.0, 1.0)
    # huge drift with big dt: x' = 4.9 x explodes only if state overflows;
    # force overflow with an absurd grid by scaling through a custom model
    def exploding(x, th):
        return (x**3 * 1e300,) + m.coefficients(x, th)[1:]

    expl = JumpDiffusionModel(
        **{**{f: getattr(m, f) for f in m.__dataclass_fields__}, "coefficients": exploding}
    )
    b = sample_noise(TimeGrid(1.0, 8), NO_JUMPS, path_seed(3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup) as err:
            euler_path(expl, THETA0, b)
    assert err.value.step >= 1


def overflowing_sensitivity_model():
    # dX = K X dt from X_0 = theta = 0: X stays at 0 while its theta-derivative
    # grows by 1 + K dt per step and overflows on the second step
    k = 1e200
    return JumpDiffusionModel(
        name="stiff",
        p=1,
        param_names=("x0",),
        initial=lambda th: th[0],
        initial_grad=lambda th: np.ones(1),
        coefficients=lambda x, th: (k * x, 0.0, k, 0.0, (0.0,), (0.0,)),
        param_box=np.array([[-1.0, 1.0]]),
        growth_const=k,
        theta0=np.zeros(1),
    )


def test_blowup_in_sensitivity_names_step_and_path():
    m = overflowing_sensitivity_model()
    grid = TimeGrid(1.0, 8)
    theta = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        # X alone stays finite
        assert np.all(simulate_batch(m, theta, grid, 3, 4).x_terminal == 0.0)
        with pytest.raises(SimulationBlowup, match=r"step 2 in Y \(path index 0\)") as err:
            simulate_batch(m, theta, grid, 3, 4, want_y=True)
        assert err.value.step == 2
        b = sample_noise(grid, NO_JUMPS, path_seed(3, 0))
        with pytest.raises(SimulationBlowup, match="in Y"):
            coupled_paths(m, theta, b)


def tripwire_model(model, theta, grid, root, n_paths, path, step, where):
    """The model with its drift ("X"), drift x-derivative ("Y") or both
    ("XY") made infinite at the state `path` reaches at `step`, so that
    path alone turns non-finite at step + 1 (in Y through the factor g)."""
    target = simulate_batch(model, theta, grid, root, n_paths, record=True).x_path[step, path]

    def coefficients(x, th):
        coef = list(model.coefficients(x, th))
        for i in {"X": (0,), "Y": (2,), "XY": (0, 2)}[where]:
            coef[i] = np.where(x == target, np.inf, coef[i])
        return tuple(coef)

    return replace(model, coefficients=coefficients)


# The expected step, label and path index are those that a check after
# every step reports.
@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("where, label", [("X", "X"), ("Y", "Y"), ("XY", "X")])
def test_deferred_check_locates_blowup_in_later_chunk(bs_model, where, label, record):
    grid = TimeGrid(1.0, 12)
    weights = Functional(kind="time_average", horizon=1.0).weights(grid)
    model = tripwire_model(bs_model, THETA0, grid, 5, 10, path=7, step=4, where=where)
    expected = rf"^non-finite state at step 5 in {label} \(path index 7\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup, match=expected) as err:
            simulate_batch(
                model, THETA0, grid, 5, 10,
                want_y=True, weights=weights, record=record, chunk_size=3,
            )
        assert err.value.step == 5
        if where == "Y":
            # X alone stays finite and equal to the model's own paths
            res = simulate_batch(model, THETA0, grid, 5, 10, record=record, chunk_size=3)
            base = simulate_batch(bs_model, THETA0, grid, 5, 10, record=record)
            assert np.array_equal(res.x_terminal, base.x_terminal)


@pytest.mark.parametrize("where, label", [("Y", "Y"), ("XY", "X")])
def test_deferred_check_locates_blowup_with_jumps(where, label):
    ou = ou_jump_model(1.0, 0.3, 0.5, 20.0, 1.0)
    grid = TimeGrid(1.0, 20)
    model = tripwire_model(ou, ou.theta0, grid, 9, 10, path=7, step=11, where=where)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationBlowup, match=rf"step 12 in {label} \(path index 7\)$"):
            simulate_batch(model, ou.theta0, grid, 9, 10, want_y=True, chunk_size=4)
        with pytest.raises(SimulationBlowup, match=rf"step 12 in {label} \(path index 0\)$"):
            coupled_paths(model, ou.theta0, sample_noise(grid, ou.jump, path_seed(9, 7)))


def test_levy_coupling_residual_below_1e10(levy):
    u = np.array([0.05, -0.03, 0.02])
    for i in range(20):
        b = sample_noise(TimeGrid(1.0, 128), levy.jump, path_seed(13, i))
        assert coupling_residual_sup(levy, levy.theta0, u, b) < 1e-10


def test_sup_norm_moment_trivial_and_scaling():
    zeros = np.zeros(500)
    assert sup_norm_moment(zeros, 2) == (0.0, 0.0)
    rng = np.random.default_rng(0)
    vals = rng.exponential(1.0, 6400)
    est_small, se_small = sup_norm_moment(vals[:400], 2)
    est_big, se_big = sup_norm_moment(vals, 2)
    # stderr scales as 1/sqrt(M): 16x the sample, ~4x smaller stderr
    assert se_big == pytest.approx(se_small / 4, rel=0.35)
    with pytest.raises(ValueError):
        sup_norm_moment(vals, 3)


def test_residual_moment_drops_16x_when_u_halves(bs_model):
    grid = TimeGrid(1.0, 128)
    est = {}
    for h in (0.1, 0.05):
        sups = coupling_residual_supnorms(
            bs_model, THETA0, np.array([h, 0.0]), grid, 41, 400
        )
        est[h], _ = sup_norm_moment(sups, 2)
    assert est[0.1] / est[0.05] == pytest.approx(16.0, rel=0.25)


def test_batch_residuals_match_single_paths(ou_model):
    # two recorded batches on shared seeds give each path's single-path residual
    grid = TimeGrid(1.0, 32)
    u = np.array([0.05, 0.0, 0.0])
    sups = coupling_residual_supnorms(ou_model, ou_model.theta0, u, grid, 43, 100)
    assert sups.shape == (100,) and np.all(sups > 0)
    for i in range(5):
        b = sample_noise(grid, ou_model.jump, path_seed(43, i))
        assert sups[i] == pytest.approx(
            coupling_residual_sup(ou_model, ou_model.theta0, u, b), rel=1e-9
        )


def test_recorded_batch_matches_single_paths_across_chunks(ou_model):
    grid = TimeGrid(1.0, 20)
    res = simulate_batch(
        ou_model, ou_model.theta0, grid, 77, 5, want_y=True, record=True, chunk_size=2
    )
    assert res.x_path.shape == (21, 5) and res.y_path.shape == (21, 3, 5)
    for i in range(5):
        b = sample_noise(grid, ou_model.jump, path_seed(77, i))
        cp = coupled_paths(ou_model, ou_model.theta0, b)
        assert np.array_equal(res.x_path[:, i], cp.x)
        assert np.array_equal(res.y_path[:, :, i], cp.y)


def test_batch_matches_single_path_bitwise(ou_model):
    # same seeds, same stepper: terminal states agree exactly
    grid = TimeGrid(1.0, 50)
    res = simulate_batch(ou_model, ou_model.theta0, grid, 77, 5, want_y=True, chunk_size=2)
    for i in range(5):
        b = sample_noise(grid, ou_model.jump, path_seed(77, i))
        cp = coupled_paths(ou_model, ou_model.theta0, b)
        assert res.x_terminal[i] == cp.x[-1]
        assert np.array_equal(res.y_terminal[i], cp.y[-1])


def test_batch_chunk_size_invariance(bs_model):
    grid = TimeGrid(1.0, 40)
    weights = Functional(kind="time_average", horizon=1.0).weights(grid)
    a = simulate_batch(bs_model, THETA0, grid, 99, 37, chunk_size=5, weights=weights)
    b = simulate_batch(bs_model, THETA0, grid, 99, 37, chunk_size=64, weights=weights)
    assert np.array_equal(a.x_terminal, b.x_terminal)
    assert np.array_equal(a.x_sum, b.x_sum)


def test_batch_weighted_sums_match_recorded_paths(ou_model):
    # any node weights: x_sum and y_sum are the weighted sums of the paths
    grid = TimeGrid(1.0, 30)
    weights = np.random.default_rng(3).uniform(size=31)
    res = simulate_batch(
        ou_model, ou_model.theta0, grid, 8, 7, want_y=True, record=True,
        weights=weights, chunk_size=3,
    )
    assert np.allclose(res.x_sum, weights @ res.x_path, rtol=1e-13, atol=0)
    y_sum = np.einsum("k,kpb->bp", weights, res.y_path)
    assert np.allclose(res.y_sum, y_sum, rtol=1e-13, atol=1e-15)
    with pytest.raises(ValueError, match=r"weights must have shape \(31,\)"):
        simulate_batch(ou_model, ou_model.theta0, grid, 8, 7, weights=weights[:-1])


def test_batch_start_index_offsets_paths(bs_model):
    grid = TimeGrid(1.0, 16)
    a = simulate_batch(bs_model, THETA0, grid, 4, 10)
    b = simulate_batch(bs_model, THETA0, grid, 4, 6, start_index=4)
    assert np.array_equal(a.x_terminal[4:], b.x_terminal)


def test_theta_outside_box_rejected(bs_model):
    b = sample_noise(TimeGrid(1.0, 8), NO_JUMPS, path_seed(0, 0))
    with pytest.raises(ValueError):
        euler_path(bs_model, np.array([40.0, 1.0]), b)


def test_path_seed_validation():
    with pytest.raises(ValueError):
        path_seed(-1, 0)
    assert path_seed(1, 2) == (1 << 64) | 2
    # a half wider than 64 bits would alias a smaller seed: rejected
    with pytest.raises(ValueError, match="2\\*\\*64"):
        path_seed(2**64 + 5, 0)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        path_seed(5, 2**64)
    assert path_seed(2**64 - 1, 2**64 - 1) == (1 << 128) - 1
    # numpy integers give the same seed as Python ints; floats are refused
    assert path_seed(np.uint64(5), np.int64(3)) == path_seed(5, 3)
    with pytest.raises(TypeError):
        path_seed(5.0, 0)


def test_bool_root_or_index_rejected(bs_model):
    # True would alias root 1 or path index 1
    with pytest.raises(TypeError, match="must be integers"):
        path_seed(True, 0)
    with pytest.raises(TypeError, match="must be integers"):
        path_seed(5, False)
    grid = TimeGrid(1.0, 4)
    with pytest.raises(TypeError, match="must be integers"):
        simulate_batch(bs_model, THETA0, grid, True, 3)
    with pytest.raises(TypeError, match="must be integers"):
        simulate_batch(bs_model, THETA0, grid, 5, 3, start_index=True)


def test_batch_index_range_checked_before_any_draw(bs_model, monkeypatch):
    def no_draw(*args):
        raise AssertionError("noise drawn before the index range was checked")

    monkeypatch.setattr(plugmc.simulate, "_draw_block", no_draw)
    grid = TimeGrid(1.0, 4)
    # the last path index would be 2**64: rejected up front
    with pytest.raises(ValueError, match=r"run past 2\*\*64 - 1"):
        simulate_batch(bs_model, THETA0, grid, 1, 5, start_index=2**64 - 4)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        simulate_batch(bs_model, THETA0, grid, 2**64, 1)


@pytest.mark.parametrize("steps", [2.5, True, 3.0, "4"])
def test_grid_steps_must_be_an_integer(steps):
    # a float step count gave a grid (dt = 0.4 for 2.5 steps) that failed
    # later with an unrelated TypeError; a bool counted as 1
    with pytest.raises(TypeError, match="steps must be an integer"):
        TimeGrid(1.0, steps)


def test_grid_accepts_numpy_integer_steps():
    assert TimeGrid(1.0, np.int64(4)).dt == TimeGrid(1.0, 4).dt


@pytest.mark.parametrize(
    "n_paths, chunk_size, error, message",
    [
        (3, 0, ValueError, "chunk_size must be >= 1, got 0"),
        (3, -3, ValueError, "chunk_size must be >= 1, got -3"),
        (3, True, TypeError, "chunk_size must be an integer, got True"),
        (3, 2.0, TypeError, "chunk_size must be an integer, got 2.0"),
        (0, 4, ValueError, "n_paths must be >= 1, got 0"),
        (True, 4, TypeError, "n_paths must be an integer, got True"),
        (2.5, 4, TypeError, "n_paths must be an integer, got 2.5"),
    ],
)
def test_batch_counts_checked_before_any_draw(
    bs_model, monkeypatch, n_paths, chunk_size, error, message
):
    # chunk_size = 0 used to loop forever, and chunk_size = -3 failed
    # inside numpy; each bad count is now named before any noise is drawn
    def no_draw(*args):
        raise AssertionError("noise drawn before the counts were checked")

    monkeypatch.setattr(plugmc.simulate, "_draw_block", no_draw)
    with pytest.raises(error, match=re.escape(message)):
        simulate_batch(bs_model, THETA0, TimeGrid(1.0, 4), 1, n_paths, chunk_size=chunk_size)


def _odd_uint32_sizes(rng, count):
    # 2 * count + 1 float32 uniforms: an odd number of 32-bit draws, so
    # every block's jump draws end with half a 64-bit word cached in the
    # generator
    u = rng.random(2 * count + 1, dtype=np.float32)
    return u[:count].astype(float) - 0.5


PROPERTY_MODELS = {
    "bs": bs_small_noise_model(0.2, 1.0, 0.1, 1.0),
    "ou": ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
    "levy": levy_model(0.1, 0.3, 0.5, 1.0),
    "ou_uint32": replace(
        ou_jump_model(1.0, 0.3, 0.5, 2.0, 1.0),
        jump=JumpSpec(intensity=2.0, mean=0.0, sampler=_odd_uint32_sizes),
    ),
}


def _recording(model, counts):
    if not model.has_jumps:
        return model
    sampler = model.jump.sampler

    def record(rng, count):
        counts.append(count)
        return sampler(rng, count)

    return replace(model, jump=replace(model.jump, sampler=record))


def _fresh_block_generators(key):
    # the documented derivation: the first 8 words of a fresh
    # Philox(key=key) are the SFC64 states of the block's increments
    # (words 0-3) and of its jumps (words 4-7), each in a fresh generator
    words = np.random.Philox(key=key).random_raw(8)
    gens = []
    for state in (words[:4], words[4:]):
        bits = np.random.SFC64(0)
        bits.state = {
            "bit_generator": "SFC64", "state": {"state": state},
            "has_uint32": 0, "uinteger": 0,
        }
        gens.append(np.random.Generator(bits))
    return gens


def _fresh_block_jumps(model, grid, key):
    # a block's jumps from a fresh Generator(SFC64) with its jump state:
    # BLOCK_PATHS counts, then every time, then every size
    gen = _fresh_block_generators(key)[1]
    counts = gen.poisson(model.jump.intensity * grid.horizon, BLOCK_PATHS)
    times = gen.uniform(0.0, grid.horizon, counts.sum())
    return counts, times, model.jump.sampler(gen, counts.sum())


def _fresh_generator_path(model, grid, root, index):
    # path `index` from fresh generators keyed to its block, in the
    # documented draw order: row index % BLOCK_PATHS of the block's
    # (BLOCK_PATHS, steps) increments, and that row's segment of the
    # block's jumps with its times sorted
    block, row = divmod(index, BLOCK_PATHS)
    key = path_seed(root, block)
    gen = _fresh_block_generators(key)[0]
    increments = gen.normal(0.0, np.sqrt(grid.dt), (BLOCK_PATHS, grid.steps))[row]
    times = sizes = np.empty(0)
    if model.has_jumps:
        counts, all_times, all_sizes = _fresh_block_jumps(model, grid, key)
        lo = counts[:row].sum()
        segment = slice(lo, lo + counts[row])
        times, sizes = np.sort(all_times[segment]), all_sizes[segment]
    bundle = NoiseBundle(path_seed(root, index), grid, increments, times, sizes)
    return coupled_paths(model, model.theta0, bundle)


@st.composite
def batch_layouts(draw):
    n_paths = draw(st.integers(1, 2 * BLOCK_PATHS + 10))
    start = draw(
        st.one_of(
            st.integers(0, 2**40),
            st.integers(2**64 - n_paths - 3, 2**64 - n_paths),
        )
    )
    chunk_size = draw(st.integers(1, 3 * BLOCK_PATHS).filter(lambda c: BLOCK_PATHS % c))
    return n_paths, start, chunk_size


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_MODELS)),
    layout=batch_layouts(),
    root=st.integers(0, 2**64 - 1),
    steps=st.integers(1, 12),
)
@example(name="ou_uint32", layout=(7, 2**64 - 7, 3), root=2**64 - 1, steps=5)
@example(name="ou_uint32", layout=(2 * BLOCK_PATHS + 3, 5, 37), root=12345, steps=4)
def test_rekeyed_batch_matches_fresh_generator_per_path(name, layout, root, steps):
    # Generators re-set per block give each path exactly its row of the
    # block drawn by fresh SFC64 generators with the states derived from a
    # fresh Philox(key=path_seed(root, block)), at any chunking (chunk
    # sizes that cut blocks apart) and any start index up to the top of
    # the 64-bit counter.  Swapped increment and jump states, a state or a
    # cached 32-bit half left over from the previous block, or a misplaced
    # row or jump segment, would change X, Y or the jumps.
    n_paths, start, chunk_size = layout
    counts = []
    model = _recording(PROPERTY_MODELS[name], counts)
    grid = TimeGrid(1.0, steps)
    res = simulate_batch(
        model, model.theta0, grid, root, n_paths,
        start_index=start, want_y=True, chunk_size=chunk_size,
    )
    batch_counts = list(counts)
    for i in range(n_paths):
        cp = _fresh_generator_path(model, grid, root, start + i)
        assert res.x_terminal[i] == cp.x[-1]
        assert np.array_equal(res.y_terminal[i], cp.y[-1])
    if model.has_jumps:
        # one sampler call per block each chunk covers, for the whole block
        ref_counts = []
        for lo in range(start, start + n_paths, chunk_size):
            hi = min(lo + chunk_size, start + n_paths)
            for block in range(lo // BLOCK_PATHS, (hi - 1) // BLOCK_PATHS + 1):
                key = path_seed(root, block)
                ref_counts.append(_fresh_block_jumps(model, grid, key)[0].sum())
        assert batch_counts == ref_counts


def test_sample_noise_matches_batch_column_at_block_edges(ou_model):
    # single paths at block offsets 0 and BLOCK_PATHS - 1 and across a
    # block boundary equal their batch columns, increments and jumps alike
    grid = TimeGrid(1.0, 20)
    for start, n_paths in ((0, 1), (2 * BLOCK_PATHS - 1, 3), (BLOCK_PATHS - 2, 5)):
        res = simulate_batch(
            ou_model, ou_model.theta0, grid, 91, n_paths, start_index=start,
            want_y=True, record=True, chunk_size=2,
        )
        for i in range(n_paths):
            b = sample_noise(grid, ou_model.jump, path_seed(91, start + i))
            cp = coupled_paths(ou_model, ou_model.theta0, b)
            assert np.array_equal(res.x_path[:, i], cp.x)
            assert np.array_equal(res.y_path[:, :, i], cp.y)


def test_sample_noise_reuses_streams_without_carrying_state():
    # sample_noise keeps one set of block generators per thread; calls that
    # alternate jump laws (the odd-uint32 sampler leaves a cached 32-bit
    # half), roots, rows and grids each give the path of fresh generators,
    # on the main thread and on a second one
    calls = [
        ("ou_uint32", 5, 3, 2 * BLOCK_PATHS + 1),
        ("bs", 5, 7, 0),
        ("levy", 2**64 - 1, 4, BLOCK_PATHS - 1),
        ("ou_uint32", 0, 3, 9),
        ("ou", 5, 3, 2 * BLOCK_PATHS + 1),
    ]

    def check_all(results):
        for name, root, steps, index in calls:
            model = PROPERTY_MODELS[name]
            grid = TimeGrid(1.0, steps)
            b = sample_noise(grid, model.jump, path_seed(root, index))
            cp = coupled_paths(model, model.theta0, b)
            ref = _fresh_generator_path(model, grid, root, index)
            results.append(np.array_equal(cp.x, ref.x) and np.array_equal(cp.y, ref.y))

    results = []
    check_all(results)
    other = threading.Thread(target=check_all, args=(results,))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    check_all(results)
    assert results == [True] * (3 * len(calls))
