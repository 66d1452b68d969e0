"""Seeded path generation for jump diffusions.

Everything here is deterministic given a seed.  A root seed expands to
per-path seeds through a counter-based scheme (the 128-bit Philox key is
root in the high 64 bits, path counter in the low 64), so Monte Carlo
batches are reproducible regardless of chunking or evaluation order, and
a single path's driving noise can be regenerated in isolation.

A batch does not build one generator per path: it re-keys a single
Philox generator through its state setter (key = path seed, counter 0,
empty output buffer, no cached 32-bit half), which yields exactly the
stream of Generator(Philox(key=seed)) without the cost of constructing
it.  What the noise layer still costs is the normal draws themselves.

The Euler step applied everywhere (single paths and vectorized batches
share one stepper) is

    X_{k+1} = X_k + a(X_k) dt + b(X_k) dW_k
              + sum of c(X_k, z_j) over jumps in (t_k, t_{k+1}]
              - dt * integral of c(X_k, z) against the jump measure,

i.e. jumps enter with the left-limit state and the compensator drift is
evaluated in closed form from the model.  The sensitivity Y = dX/dtheta,
held as a (p, m) array for m paths, is advanced on the same grid from the
same noise by differentiating that step, one generic line per term:

    Y_{k+1} = Y_k + (a_x Y_k + a_theta) dt + (b_x Y_k + b_theta) dW_k
              + sum of (c_x Y_k + c_theta) over jumps
              - (comp_x Y_k + comp_theta) dt,

with every coefficient from one `model.coefficients` call per step, so
the Euler iterates of Y are the exact theta-derivatives of the Euler
iterates of X.

The stepper advances one theta at a time.  A run can record its full
paths; the coupling residual X^{theta+u} - X^theta - u.Y comes from two
recorded runs on the same seeds, (X, Y) at theta and X alone at
theta + u.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .models import JumpDiffusionModel, JumpSpec

Array = np.ndarray

__all__ = [
    "TimeGrid",
    "NoiseBundle",
    "Path",
    "CoupledPaths",
    "SimulationBlowup",
    "path_seed",
    "sample_noise",
    "euler_path",
    "coupled_paths",
    "simulate_batch",
    "BatchResult",
    "coupling_residual_supnorms",
    "sup_norm_moment",
]

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / steps on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> Array:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class NoiseBundle:
    """One path's driving randomness, reusable across parameter values.

    brownian_increments has one N(0, dt) draw per step; jump_times are
    sorted in (0, horizon]; jump_sizes pair with them one to one.
    Regenerating from the same seed reproduces the bundle bit for bit.
    """

    seed: int
    grid: TimeGrid
    brownian_increments: Array
    jump_times: Array
    jump_sizes: Array

    def jump_step_indices(self) -> Array:
        """Step k such that the jump time lies in (t_k, t_{k+1}]."""
        if self.jump_times.size == 0:
            return np.empty(0, dtype=np.int64)
        k = np.ceil(self.jump_times / self.grid.dt).astype(np.int64) - 1
        return np.clip(k, 0, self.grid.steps - 1)


@dataclass(frozen=True)
class Path:
    grid: TimeGrid
    values: Array

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class CoupledPaths:
    """(X, sensitivity Y) at one theta on one grid; y has shape (steps + 1, p)."""

    grid: TimeGrid
    x: Array
    y: Array


class SimulationBlowup(RuntimeError):
    """Path state became non-finite (coefficient blow-up)."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite state at step {step}{detail}")


def path_seed(root_seed: int, index: int) -> int:
    """Counter-based per-path seed: root in high 64 bits, counter in low.

    Both halves must fit in 64 bits; a larger value would alias a smaller
    one (2**64 + 5 and 5 would give the same streams), so it is rejected.
    numpy integers are converted first, as their fixed-width shifts wrap.
    """
    root_seed, index = operator.index(root_seed), operator.index(index)
    if root_seed < 0 or index < 0:
        raise ValueError("root_seed and index must be non-negative")
    if root_seed >> 64 or index >> 64:
        raise ValueError(
            f"root_seed and index must be below 2**64, got {root_seed} and {index}"
        )
    return (root_seed << 64) | index


_MASK64 = (1 << 64) - 1


class _PathStreams:
    """One Generator(Philox) re-keyed to each path seed in turn.

    The state written by `at` is that of a freshly keyed generator: key
    [seed & (2**64 - 1), seed >> 64], counter 0, an empty 4-word output
    buffer (buffer_pos 4) and no cached 32-bit half (has_uint32 0), so a
    partly used block of the previous path never leaks into the next one
    and the stream equals Generator(Philox(key=seed)) bit for bit.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, seed: int) -> np.random.Generator:
        self._key[0] = seed & _MASK64
        self._key[1] = seed >> 64
        self._bits.state = self._state  # the setter copies, the dict stays as built
        return self._gen


def _draw_noise(gen: np.random.Generator, grid: TimeGrid, jump: JumpSpec, sd: float):
    """The one draw order of a path, shared by sample_noise and batches.

    Returns the grid's N(0, dt) Brownian increments (sd = sqrt(dt)) and,
    for a jump law with positive intensity, the sorted jump times and
    their sizes (None, None otherwise).
    """
    increments = gen.normal(0.0, sd, grid.steps)
    if jump.intensity > 0:
        count = int(gen.poisson(jump.intensity * grid.horizon))
        times = np.sort(gen.uniform(0.0, grid.horizon, count))
        return increments, times, jump.sampler(gen, count)
    return increments, None, None


def sample_noise(grid: TimeGrid, jump: JumpSpec, seed: int) -> NoiseBundle:
    """Realize Brownian increments and compound-Poisson jumps for one path."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    increments, times, sizes = _draw_noise(gen, grid, jump, np.sqrt(grid.dt))
    return NoiseBundle(
        seed=seed,
        grid=grid,
        brownian_increments=increments,
        jump_times=np.empty(0) if times is None else times,
        jump_sizes=np.empty(0) if sizes is None else sizes,
    )


# ---------------------------------------------------------------------------
# Core stepper (shared by single-path and batch simulation)
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Streaming per-path reductions over a batch of simulated paths.

    Arrays are per path; Y-blocks have shape (B, p).  x_path (steps + 1, B)
    and y_path (steps + 1, p, B) are the recorded paths.  Fields are None
    when the corresponding quantity was not requested.
    """

    x_terminal: Array
    trap_x: Array | None = None
    disc_v: Array | None = None
    y_terminal: Array | None = None
    trap_y: Array | None = None
    disc_vy: Array | None = None
    x_path: Array | None = None
    y_path: Array | None = None


def _flat_jumps(times_list, sizes_list, dt, n_steps):
    """Flatten per-path jump lists into step-sorted parallel arrays."""
    counts = np.array([t.size for t in times_list], dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return None
    paths = np.repeat(np.arange(len(times_list), dtype=np.int64), counts)
    times = np.concatenate(times_list)
    sizes = np.concatenate(sizes_list)
    steps = np.clip(np.ceil(times / dt).astype(np.int64) - 1, 0, n_steps - 1)
    order = np.argsort(steps, kind="stable")
    steps = steps[order]
    return steps, paths[order], sizes[order], np.searchsorted(steps, np.arange(n_steps + 1))


def _step_block(
    model: JumpDiffusionModel,
    theta: Array,
    grid: TimeGrid,
    increments: Array,  # (steps, m), one column per path
    jumps,  # output of _flat_jumps or None
    *,
    want_y: bool = False,
    disc: float | None = None,  # discount rate delta of int e^{-delta t} X dt
    want_trap: bool = False,
    record: bool = False,
    path_offset: int = 0,
) -> BatchResult:
    """Advance a block of m paths over the full grid.

    record=True keeps the full paths in x_path and y_path (small blocks
    only).  Raises SimulationBlowup at the first step where X or Y turns
    non-finite.
    """
    n, m = increments.shape
    dt = grid.dt
    p = model.p
    x = np.full(m, float(model.initial(theta)))
    has_jumps = model.has_jumps

    y = None
    if want_y:
        y0 = np.asarray(model.initial_grad(theta), dtype=float)
        y = np.repeat(y0[:, None], m, axis=1)  # (p, m)

    if want_trap:
        trap_x = x * (0.5 * dt)
        trap_y = y * (0.5 * dt) if y is not None else None
    if disc is not None:
        disc_w = np.exp(-disc * grid.times())  # e^{-delta t_k}, k = 0..n
        disc_v = disc_w[0] * x * (0.5 * dt)
        disc_vy = disc_w[0] * y * (0.5 * dt) if y is not None else None

    rec_x = rec_y = None
    if record:
        rec_x = np.empty((n + 1, m))
        rec_x[0] = x
        if y is not None:
            rec_y = np.empty((n + 1, p, m))
            rec_y[0] = y

    for k in range(n):
        dw = increments[k]
        x_prev = x

        coef = model.coefficients(x_prev, theta)
        a, b, a_x, b_x, a_th, b_th = coef[:6]
        x = x_prev + a * dt + b * dw
        if has_jumps:
            comp, comp_x, comp_th = coef[6:]
            x = x - comp * dt

        if y is not None:
            yp = y
            y = np.empty_like(yp)
            for j in range(p):
                row = yp[j] + (a_x * yp[j] + a_th[j]) * dt + (b_x * yp[j] + b_th[j]) * dw
                if has_jumps:
                    row = row - (comp_x * yp[j] + comp_th[j]) * dt
                y[j] = row

        if jumps is not None:
            steps_j, paths_j, sizes_j, bounds = jumps
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                pj = paths_j[lo:hi]
                c, c_x, c_th = model.jump_kernel(x_prev[pj], sizes_j[lo:hi], theta)
                np.add.at(x, pj, c)
                if y is not None:
                    for j in range(p):
                        np.add.at(y[j], pj, c_x * yp[j, pj] + c_th[j])

        for label, state in (("X", x), ("Y", y)):
            if state is not None and not np.isfinite(state).all():
                finite = np.isfinite(state).reshape(-1, m).all(axis=0)
                bad = int(np.flatnonzero(~finite)[0])
                raise SimulationBlowup(
                    k + 1, detail=f" in {label} (path index {path_offset + bad})"
                )

        last = k == n - 1
        if want_trap:
            trap_x = trap_x + x * (0.5 * dt if last else dt)
            if trap_y is not None:
                trap_y = trap_y + y * (0.5 * dt if last else dt)
        if disc is not None:
            w = disc_w[k + 1] * (0.5 * dt if last else dt)
            disc_v = disc_v + w * x
            if disc_vy is not None:
                disc_vy = disc_vy + w * y

        if record:
            rec_x[k + 1] = x
            if rec_y is not None:
                rec_y[k + 1] = y

    def per_path(block):
        # (p, m) -> C-contiguous (m, p); an F-ordered array would change the
        # summation order of the reductions over paths (mean(axis=0))
        return None if block is None else np.ascontiguousarray(block.T)

    return BatchResult(
        x_terminal=x,
        trap_x=trap_x if want_trap else None,
        trap_y=per_path(trap_y) if want_trap else None,
        disc_v=disc_v if disc is not None else None,
        disc_vy=per_path(disc_vy) if disc is not None else None,
        y_terminal=per_path(y),
        x_path=rec_x,
        y_path=rec_y,
    )


def _bundle_jumps(bundle: NoiseBundle):
    if bundle.jump_times.size == 0:
        return None
    return _flat_jumps(
        [bundle.jump_times], [bundle.jump_sizes], bundle.grid.dt, bundle.grid.steps
    )


def _step_bundle(model: JumpDiffusionModel, theta, noise: NoiseBundle, want_y: bool):
    theta = model.require_theta(theta)
    inc = noise.brownian_increments[:, None]
    return _step_block(
        model, theta, noise.grid, inc, _bundle_jumps(noise), want_y=want_y, record=True
    )


def euler_path(model: JumpDiffusionModel, theta, noise: NoiseBundle) -> Path:
    """Euler-Maruyama path of X under theta on the bundle's grid."""
    res = _step_bundle(model, theta, noise, want_y=False)
    return Path(grid=noise.grid, values=res.x_path[:, 0])


def coupled_paths(model: JumpDiffusionModel, theta, noise: NoiseBundle) -> CoupledPaths:
    """Advance X and its sensitivity Y at theta from one noise bundle."""
    res = _step_bundle(model, theta, noise, want_y=True)
    return CoupledPaths(grid=noise.grid, x=res.x_path[:, 0], y=res.y_path[:, :, 0])


def simulate_batch(
    model: JumpDiffusionModel,
    theta,
    grid: TimeGrid,
    root_seed: int,
    n_paths: int,
    *,
    start_index: int = 0,
    want_y: bool = False,
    record: bool = False,
    disc: float | None = None,
    want_trap: bool = False,
    chunk_size: int = 4096,
) -> BatchResult:
    """Simulate n_paths seeded paths and return streaming reductions.

    Path i uses seed path_seed(root_seed, start_index + i); results are
    identical for any chunk_size.  want_y adds the sensitivity Y; record
    keeps the full paths (small batches only); see _step_block.
    """
    theta = model.require_theta(theta)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    first_seed = path_seed(root_seed, start_index)
    last_index = operator.index(start_index) + n_paths - 1
    if last_index >> 64:
        raise ValueError(f"path indices {start_index}..{last_index} run past 2**64 - 1")

    streams = _PathStreams()
    sd = np.sqrt(grid.dt)
    jump = model.jump
    has_jumps = model.has_jumps
    # one column per path, reused by every chunk; the last one takes a view
    buffer = np.empty((grid.steps, min(chunk_size, n_paths)))
    pieces: list[BatchResult] = []
    done = 0
    while done < n_paths:
        m = min(chunk_size, n_paths - done)
        increments = buffer[:, :m]
        times_list = []
        sizes_list = []
        for i in range(m):
            gen = streams.at(first_seed + done + i)
            increments[:, i], times, sizes = _draw_noise(gen, grid, jump, sd)
            if has_jumps:
                times_list.append(times)
                sizes_list.append(sizes)
        jumps = (
            _flat_jumps(times_list, sizes_list, grid.dt, grid.steps)
            if has_jumps
            else None
        )
        res = _step_block(
            model,
            theta,
            grid,
            increments,
            jumps,
            want_y=want_y,
            disc=disc,
            want_trap=want_trap,
            record=record,
            path_offset=done,
        )
        pieces.append(res)
        done += m

    def cat(attr, axis=0):
        vals = [getattr(p, attr) for p in pieces]
        return None if vals[0] is None else np.concatenate(vals, axis=axis)

    return BatchResult(
        x_terminal=cat("x_terminal"),
        trap_x=cat("trap_x"),
        disc_v=cat("disc_v"),
        y_terminal=cat("y_terminal"),
        trap_y=cat("trap_y"),
        disc_vy=cat("disc_vy"),
        x_path=cat("x_path", axis=-1),
        y_path=cat("y_path", axis=-1),
    )


def coupling_residual_supnorms(
    model: JumpDiffusionModel, theta, u, grid: TimeGrid, root_seed: int, n_paths: int
) -> Array:
    """Sup-norm over grid nodes of X^{theta+u} - X^theta - u.Y per path.

    Two recorded batches on the same seeds: (X, Y) at theta, X at theta + u.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths for a usable moment estimate")
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    base = simulate_batch(model, theta, grid, root_seed, n_paths, want_y=True, record=True)
    shifted = simulate_batch(model, theta + u, grid, root_seed, n_paths, record=True)
    residual = shifted.x_path - base.x_path - u @ base.y_path  # (steps + 1, B)
    return np.max(np.abs(residual), axis=0)


def sup_norm_moment(residual_sup_norms: Array, p: float) -> tuple[float, float]:
    """Sample mean and standard error of the p-th power of sup-norm residuals."""
    if p not in (1, 2, 4):
        raise ValueError(f"p must be one of 1, 2, 4; got {p}")
    v = np.asarray(residual_sup_norms, dtype=float) ** p
    est = float(np.mean(v))
    se = float(np.std(v, ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
    return est, se
