"""Seeded path generation for jump diffusions.

Everything here is deterministic given a seed.  A root seed and a path
index name a path (path_seed packs them as root in the high 64 bits,
index in the low 64).  Paths are drawn in blocks of BLOCK_PATHS: path i
is row i % BLOCK_PATHS of block i // BLOCK_PATHS.  The block's key is
path_seed(root, i // BLOCK_PATHS), and the counter-based Philox stream
with that key (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) only derives the block's generator states: its first 8
words are two SFC64 states, one for the increments and one for the
jumps, and every number of the block is drawn from those two.

  - The block's Brownian increments fill (BLOCK_PATHS, steps) row by row
    in one normal call (numpy's ziggurat) from the increments generator.
  - The jump generator draws the block's jumps: BLOCK_PATHS Poisson
    counts in one call, then every jump time in one uniform call, then
    every size in one sampler call; row r owns the r-th segment, its
    times sorted.

Monte Carlo batches are therefore reproducible regardless of chunking
or evaluation order: a chunk that covers part of a block draws the block
up to the last row it needs and slices it.  A single path's noise is
regenerated in isolation by drawing its block's rows up to its own.

A batch builds no generator per block: it re-keys one Philox bit
generator and re-sets two SFC64 ones through their state setters (see
_BlockStreams); a block without jumps sets the increments state alone.
SFC64 draws a normal faster than Philox, and setting the states costs a
few microseconds per block; what the noise layer still costs is the
normal draws themselves.

A batch is pipelined over chunks of paths: while the calling thread
steps chunk c, one helper thread draws chunk c + 1, block after block in
the serial order, into the other of two increment buffers (see
simulate_batch).  A block's numbers depend only on its key, not on when
or on which thread it is drawn, so the outputs are those of a serial
run.  Only the calling thread steps and calls the model's coefficients;
the helper calls the jump law's sampler.

The Euler step applied everywhere (single paths and vectorized batches
share one stepper) is

    X_{k+1} = X_k + a(X_k) dt + b(X_k) dW_k
              + sum of c(X_k, z_j) over jumps in (t_k, t_{k+1}]
              - dt * integral of c(X_k, z) against the jump measure,

i.e. jumps enter with the left-limit state and the compensator drift is
evaluated in closed form from the model.  The sensitivity Y = dX/dtheta,
held as a (p, m) array for m paths, is advanced on the same grid from the
same noise by differentiating that step.  In the factored (pathwise
tangent) form of Glasserman, Monte Carlo Methods in Financial
Engineering (2004), section 7.2,

    g_k     = 1 + a_x dt + b_x dW_k - comp_x dt
    Y_{k+1} = Y_k g_k + (a_theta dt + b_theta dW_k - comp_theta dt)
              + sum of (c_x Y_k + c_theta) over jumps,

the factor g_k is computed once per step and shared by all p rows.  Every
coefficient comes from one `model.coefficients` call per step, so the
Euler iterates of Y are the exact theta-derivatives of the Euler iterates
of X, up to rounding.  X and Y are checked for finiteness once per block
of paths, after its last step, since each update adds to or scales the
previous state; a block that fails is stepped again from the same noise
with a check after every step, which names the first non-finite step.

A batch keeps, per path, the terminal (X, Y) and one weighted sum over
the grid nodes, sum_k weights[k] (X, Y)_{t_k}, with the caller's weights
(a functional's trapezoid rule, see Functional.weights).

The stepper advances one theta at a time.  A run can record its full
paths; the coupling residual X^{theta+u} - X^theta - u.Y comes from two
recorded runs on the same seeds, (X, Y) at theta and X alone at
theta + u.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, fields

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


def _check_count(name: str, value) -> None:
    """Raise unless value is an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / steps on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        _check_count("steps", self.steps)

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
        return _jump_steps(self.jump_times, self.grid)


def _jump_steps(times: Array, grid: TimeGrid) -> Array:
    """Step k of each jump time, t_k < time <= t_{k+1}, clipped to the grid."""
    return np.clip(np.ceil(times / grid.dt).astype(np.int64) - 1, 0, grid.steps - 1)


@dataclass(frozen=True)
class Path:
    grid: TimeGrid
    values: Array


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
    A bool is refused, as True would alias 1.
    """
    if isinstance(root_seed, bool) or isinstance(index, bool):
        raise TypeError(
            f"root_seed and index must be integers, got {root_seed!r} and {index!r}"
        )
    root_seed, index = operator.index(root_seed), operator.index(index)
    if root_seed < 0 or index < 0:
        raise ValueError("root_seed and index must be non-negative")
    if root_seed >> 64 or index >> 64:
        raise ValueError(
            f"root_seed and index must be below 2**64, got {root_seed} and {index}"
        )
    return (root_seed << 64) | index


_MASK64 = (1 << 64) - 1

# Paths per noise block.  Path i of a root seed is row i % BLOCK_PATHS of
# block i // BLOCK_PATHS; a block's normals fill (BLOCK_PATHS, steps) in
# one call, so the per-path generator set-up and call overhead of drawing
# paths one at a time is paid once per block.  Chosen from measurement:
# a bs batch with Y took 2.7, 2.5 and 2.4 ms at 2 000 x 50 and 42.5, 41.9
# and 41.4 ms at 4 096 x 500 for 16, 32 and 64 (2-vCPU x86-64 host).  A
# larger block would make sample_noise of a high row dearer still.
BLOCK_PATHS = 64


class _BlockStreams:
    """Two Generator(SFC64), set for each noise block in turn from its key.

    `at(key)` re-keys one Philox bit generator through its state setter
    (key [key & (2**64 - 1), key >> 64], counter 0, an empty 4-word output
    buffer, no cached 32-bit half), which yields exactly the stream of
    Philox(key=key), and takes its first 8 words in one random_raw call.
    Words 0-3 become the SFC64 state (a, b, c, counter) of the generator
    for the block's Brownian increments, words 4-7 that of the generator
    for its jumps; each setter also clears the cached 32-bit half
    (has_uint32 0, uinteger 0).  So the two generators draw exactly as
    fresh Generator(SFC64) objects given those states, and nothing of the
    previous block survives.  No generator is built per block.  For a
    block without jumps only words 0-3 are taken and set: its jump
    generator is never drawn from.
    """

    def __init__(self):
        self._philox = np.random.Philox(key=0)
        self._key = np.zeros(2, dtype=np.uint64)
        self._philox_state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._sfc = (np.random.SFC64(0), np.random.SFC64(0))
        self._gens = tuple(np.random.Generator(bits) for bits in self._sfc)
        self._sfc_state = {
            "bit_generator": "SFC64",
            "state": {"state": None},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, key: int, jumps: bool) -> tuple[np.random.Generator, np.random.Generator]:
        """The block's (increments, jumps) generators, set from key; with
        jumps False the jumps generator is left as it was, not to be used."""
        self._key[0] = key & _MASK64
        self._key[1] = key >> 64
        self._philox.state = self._philox_state  # the setter copies, the dict stays as built
        words = self._philox.random_raw(8 if jumps else 4)
        for bits, lo in zip(self._sfc if jumps else self._sfc[:1], (0, 4)):
            self._sfc_state["state"]["state"] = words[lo : lo + 4]
            bits.state = self._sfc_state
        return self._gens


def _draw_block(streams: _BlockStreams, key: int, grid: TimeGrid, jump: JumpSpec, out: Array):
    """The one draw order of a noise block, shared by sample_noise and batches.

    Fills out, shape (rows, steps), with the first `rows` rows of the
    block's standard normals, drawn row by row in one call from the
    block's increments generator; the caller scales them by sqrt(dt).
    sd * z equals normal(0, sd) bit for bit, but for z = -0.0, which gives
    -0.0 where normal gives +0.0.  For a jump law with positive intensity,
    returns the jumps of all BLOCK_PATHS rows as (row, time, size) arrays,
    ordered by row and by time within a row (None otherwise), drawn from
    the block's jump generator: BLOCK_PATHS Poisson counts, then every
    time, then every size.  A row's normals do not depend on `rows`, and
    its jumps do not depend on which rows the caller keeps.
    """
    has_jumps = jump.intensity > 0
    normals, jumps = streams.at(key, has_jumps)
    normals.standard_normal(out=out)
    if has_jumps:
        counts = jumps.poisson(jump.intensity * grid.horizon, BLOCK_PATHS)
        total = int(counts.sum())
        row = np.repeat(np.arange(BLOCK_PATHS), counts)
        times = jumps.uniform(0.0, grid.horizon, total)
        sizes = jump.sampler(jumps, total)
        return row, times[np.lexsort((times, row))], sizes
    return None


# Each thread's _BlockStreams for sample_noise, built on its first call:
# building one costs most of a short path's draw, and at() resets all of
# its state, so reusing it changes no number.
_thread_streams = threading.local()


def sample_noise(grid: TimeGrid, jump: JumpSpec, seed: int) -> NoiseBundle:
    """Realize Brownian increments and compound-Poisson jumps for one path.

    The path seed path_seed(root, i) names row i % BLOCK_PATHS of block
    i // BLOCK_PATHS; the rows of the block before it are drawn and
    dropped, so path i costs O((i % BLOCK_PATHS + 1) * steps) normals.
    """
    root, index = operator.index(seed) >> 64, operator.index(seed) & _MASK64
    block, row = divmod(index, BLOCK_PATHS)
    streams = getattr(_thread_streams, "streams", None)
    if streams is None:
        streams = _thread_streams.streams = _BlockStreams()
    normals = np.empty((row + 1, grid.steps))
    jumps = _draw_block(streams, path_seed(root, block), grid, jump, normals)
    times = sizes = np.empty(0)
    if jumps is not None:
        rows, block_times, block_sizes = jumps
        lo, hi = np.searchsorted(rows, (row, row + 1))
        times, sizes = block_times[lo:hi], block_sizes[lo:hi]
    return NoiseBundle(
        seed=seed,
        grid=grid,
        brownian_increments=normals[row] * np.sqrt(grid.dt),
        jump_times=times,
        jump_sizes=sizes,
    )


# ---------------------------------------------------------------------------
# Core stepper (shared by single-path and batch simulation)
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """Streaming per-path reductions over a batch of simulated paths.

    Arrays are per path; Y-blocks have shape (B, p).  x_sum and y_sum are
    sum_k weights[k] X_{t_k} and the same for Y.  x_path (steps + 1, B)
    and y_path (steps + 1, p, B) are the recorded paths.  Fields are None
    when the corresponding quantity was not requested.
    """

    x_terminal: Array
    x_sum: Array | None = None
    y_terminal: Array | None = None
    y_sum: Array | None = None
    x_path: Array | None = None
    y_path: Array | None = None


def _flat_jumps(paths: Array, times: Array, sizes: Array, grid: TimeGrid):
    """Step-sorted parallel arrays of jumps; paths holds each jump's column.

    The jumps come in column order and by time within a column, and the
    stable sort keeps that order within a step.
    """
    if times.size == 0:
        return None
    steps = _jump_steps(times, grid)
    order = np.argsort(steps, kind="stable")
    steps = steps[order]
    return steps, paths[order], sizes[order], np.searchsorted(steps, np.arange(grid.steps + 1))


def _pos_zero(v) -> bool:
    """v is a float +0.0, so s - v * dt is s bit for bit (dt > 0)."""
    return isinstance(v, float) and v == 0.0 and math.copysign(1.0, v) > 0


def _step_block(
    model: JumpDiffusionModel,
    theta: Array,
    grid: TimeGrid,
    increments: Array,  # (steps, m), one column per path
    jumps,  # output of _flat_jumps or None
    *,
    want_y: bool = False,
    weights: Array | None = None,  # (steps + 1,), one per grid node
    record: bool = False,
    path_offset: int = 0,
    check_steps: bool = False,
) -> BatchResult:
    """Advance a block of m paths over the full grid.

    weights adds the weighted sums x_sum (and y_sum); record=True keeps
    the full paths in x_path and y_path (small blocks only).  Raises
    SimulationBlowup at the first step where X or Y turns non-finite,
    found by a re-run with check_steps=True if the end-of-block check fails.
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
        y_prev = np.empty_like(y)  # the two swap each step

    x_sum = y_sum = None
    if weights is not None:
        x_sum = weights[0] * x
        if y is not None:
            y_sum = weights[0] * y

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
            x -= comp * dt

        if y is not None:
            # factored tangent step: the factor g is shared by all p rows
            g = 1.0 + a_x * dt + b_x * dw
            if has_jumps and not _pos_zero(comp_x):
                g -= comp_x * dt
            y, y_prev = y_prev, y
            np.multiply(y_prev, g, out=y)
            for j in range(p):
                y[j] += a_th[j] * dt + b_th[j] * dw
                if has_jumps and not _pos_zero(comp_th[j]):
                    y[j] -= comp_th[j] * dt

        if jumps is not None:
            steps_j, paths_j, sizes_j, bounds = jumps
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                pj = paths_j[lo:hi]
                c, c_x, c_th = model.jump_kernel(x_prev[pj], sizes_j[lo:hi], theta)
                np.add.at(x, pj, c)
                if y is not None:
                    c_th_rows = np.empty((p, hi - lo))  # each entry broadcast to its row
                    for j in range(p):
                        c_th_rows[j] = c_th[j]
                    np.add.at(y, (slice(None), pj), c_x * y_prev[:, pj] + c_th_rows)

        if check_steps:
            for label, state in (("X", x), ("Y", y)):
                if state is not None and not np.isfinite(state).all():
                    finite = np.isfinite(state).reshape(-1, m).all(axis=0)
                    bad = int(np.flatnonzero(~finite)[0])
                    raise SimulationBlowup(
                        k + 1, detail=f" in {label} (path index {path_offset + bad})"
                    )

        if x_sum is not None:
            x_sum += weights[k + 1] * x
            if y_sum is not None:
                y_sum += weights[k + 1] * y

        if record:
            rec_x[k + 1] = x
            if rec_y is not None:
                rec_y[k + 1] = y

    if not check_steps and not (np.isfinite(x).all() and (y is None or np.isfinite(y).all())):
        _step_block(
            model, theta, grid, increments, jumps,
            want_y=want_y, path_offset=path_offset, check_steps=True,
        )

    def per_path(block):
        # (p, m) -> C-contiguous (m, p); an F-ordered array would change the
        # summation order of the reductions over paths (mean(axis=0))
        return None if block is None else np.ascontiguousarray(block.T)

    return BatchResult(
        x_terminal=x,
        x_sum=x_sum,
        y_terminal=per_path(y),
        y_sum=per_path(y_sum),
        x_path=rec_x,
        y_path=rec_y,
    )


def _step_bundle(model: JumpDiffusionModel, theta, noise: NoiseBundle, want_y: bool):
    theta = model.require_theta(theta)
    column = np.zeros(noise.jump_times.size, dtype=np.int64)  # a block of one path
    jumps = _flat_jumps(column, noise.jump_times, noise.jump_sizes, noise.grid)
    inc = noise.brownian_increments[:, None]
    return _step_block(model, theta, noise.grid, inc, jumps, want_y=want_y, record=True)


def euler_path(model: JumpDiffusionModel, theta, noise: NoiseBundle) -> Path:
    """Euler-Maruyama path of X under theta on the bundle's grid."""
    res = _step_bundle(model, theta, noise, want_y=False)
    return Path(grid=noise.grid, values=res.x_path[:, 0])


def coupled_paths(model: JumpDiffusionModel, theta, noise: NoiseBundle) -> CoupledPaths:
    """Advance X and its sensitivity Y at theta from one noise bundle."""
    res = _step_bundle(model, theta, noise, want_y=True)
    return CoupledPaths(grid=noise.grid, x=res.x_path[:, 0], y=res.y_path[:, :, 0])


def _draw_chunk(
    streams: _BlockStreams,
    root_key: int,
    grid: TimeGrid,
    jump: JumpSpec,
    first: int,
    increments: Array,  # (steps, m), filled with paths first..first+m-1
    normals: Array,  # (BLOCK_PATHS, steps), scratch for one block
):
    """Draw a chunk's noise: its increments in place, and its jumps.

    Returns the chunk's jumps as _flat_jumps gives them, or None.  Nothing
    of block or chunk size is allocated: each block's normals go into
    `normals` and are scaled into their columns of `increments`.
    """
    sd = np.sqrt(grid.dt)
    m = increments.shape[1]
    paths, times, sizes = [], [], []
    col = 0
    for block in range(first // BLOCK_PATHS, (first + m - 1) // BLOCK_PATHS + 1):
        # rows lo..hi-1 of this block are columns col..col+hi-lo-1
        lo = max(first - block * BLOCK_PATHS, 0)
        hi = min(first + m - block * BLOCK_PATHS, BLOCK_PATHS)
        block_jumps = _draw_block(streams, root_key | block, grid, jump, normals[:hi])
        np.multiply(normals[lo:hi].T, sd, out=increments[:, col : col + hi - lo])
        if block_jumps is not None:
            row, block_times, block_sizes = block_jumps
            a, b = np.searchsorted(row, (lo, hi))
            paths.append(row[a:b] + (col - lo))
            times.append(block_times[a:b])
            sizes.append(block_sizes[a:b])
        col += hi - lo
    if not paths:
        return None
    return _flat_jumps(np.concatenate(paths), np.concatenate(times), np.concatenate(sizes), grid)


class _Prefetch:
    """fn(*args) run on a helper thread while the calling thread works on.

    join() waits for it; result() waits and returns its value, or raises
    on the calling thread what fn raised.
    """

    def __init__(self, fn, *args):
        self._outcome = None
        self._thread = threading.Thread(target=self._run, args=(fn, args), name="plugmc-noise")
        self._thread.start()

    def _run(self, fn, args):
        try:
            self._outcome = (fn(*args), None)
        except BaseException as exc:  # raised again by result(), on the calling thread
            self._outcome = (None, exc)

    def join(self) -> None:
        self._thread.join()

    def result(self):
        self.join()
        value, exc = self._outcome
        if exc is not None:
            raise exc
        return value


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
    weights: Array | None = None,
    chunk_size: int = 2048,
) -> BatchResult:
    """Simulate n_paths seeded paths and return streaming reductions.

    Path i uses seed path_seed(root_seed, start_index + i); results are
    identical for any chunk_size.  n_paths and chunk_size are integers
    >= 1, checked before any draw.  want_y adds the sensitivity Y; weights
    (one per grid node) adds the weighted sums x_sum and y_sum; record
    keeps the full paths (small batches only); see _step_block.

    The paths go in chunks of chunk_size columns.  While the calling
    thread steps chunk c, one helper thread draws chunk c + 1 into the
    other of two (steps, chunk_size) increment buffers, so the default
    2048 keeps the 16 MB of one 4096-column buffer at 500 steps.  Only the
    calling thread steps and calls model.coefficients; the helper draws
    the blocks in the serial order, one at a time, so the outputs are the
    serial ones bit for bit.  A call with one chunk starts no thread.  An
    error while stepping chunk c wins over one from drawing chunk c + 1,
    as it would in a serial run, and the helper has ended before the call
    returns or raises.
    """
    _check_count("n_paths", n_paths)
    _check_count("chunk_size", chunk_size)
    theta = model.require_theta(theta)
    if weights is not None and np.shape(weights) != (grid.steps + 1,):
        raise ValueError(
            f"weights must have shape ({grid.steps + 1},), got {np.shape(weights)}"
        )
    path_seed(root_seed, start_index)  # rejects a bad root or start index up front
    start_index = operator.index(start_index)
    last_index = start_index + n_paths - 1
    if last_index >> 64:
        raise ValueError(f"path indices {start_index}..{last_index} run past 2**64 - 1")

    starts = range(0, n_paths, chunk_size)  # column offset of each chunk
    streams = _BlockStreams()
    root_key = path_seed(root_seed, 0)  # block b has key root_key | b
    normals = np.empty((BLOCK_PATHS, grid.steps))
    # chunk c uses buffers[c % 2]; the last chunk may take a narrower view
    buffers = [np.empty((grid.steps, min(chunk_size, n_paths))) for _ in starts[:2]]

    def draw(c):
        m = min(chunk_size, n_paths - starts[c])
        increments = buffers[c % 2][:, :m]
        first = start_index + starts[c]
        jumps = _draw_chunk(streams, root_key, grid, model.jump, first, increments, normals)
        return increments, jumps

    pieces: list[BatchResult] = []
    drawn = draw(0)
    for c, done in enumerate(starts):
        increments, jumps = drawn
        prefetch = _Prefetch(draw, c + 1) if c + 1 < len(starts) else None
        try:
            pieces.append(
                _step_block(
                    model,
                    theta,
                    grid,
                    increments,
                    jumps,
                    want_y=want_y,
                    weights=weights,
                    record=record,
                    path_offset=done,
                )
            )
        finally:
            if prefetch is not None:
                prefetch.join()  # a stepping error is raised over the prefetch's
        if prefetch is not None:
            drawn = prefetch.result()

    def cat(name):
        vals = [getattr(p, name) for p in pieces]
        axis = -1 if name.endswith("_path") else 0  # recorded paths end in B
        return None if vals[0] is None else np.concatenate(vals, axis=axis)

    return BatchResult(**{f.name: cat(f.name) for f in fields(BatchResult)})


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
