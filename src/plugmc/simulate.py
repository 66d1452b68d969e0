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
_BlockStreams).  SFC64 draws a normal faster than Philox, and setting
the states costs a few microseconds per block; what the noise layer
still costs is the normal draws themselves.

A batch is split over worker processes: with W = min(usable CPUs,
chunks) > 1, each of W equal contiguous ranges of paths is drawn and
stepped, chunk by chunk, in a forked child (see workers.in_slices), and
the parent joins the pieces in path order.  A path's numbers depend only
on its block's key and its own column, so the outputs are those of a
serial run.  The model's table or its coefficients and jump_kernel, and
the jump law's sampler, run in the workers.

The Euler step applied everywhere (single paths and vectorized batches
share one stepper) is

    X_{k+1} = X_k + a(X_k) dt + b(X_k) dW_k
              + sum of c(X_k, z_j) over jumps in (t_k, t_{k+1}]
              - dt * integral of c(X_k, z) against the jump measure,

i.e. jumps enter with the left-limit state and the compensator drift is
evaluated in closed form from the model.  The sensitivity Y = dX/dtheta,
held as a (p, m) array for m paths, is advanced on the same grid from the
same noise by differentiating that step, in the factored (pathwise
tangent) form of Glasserman, Monte Carlo Methods in Financial
Engineering (2004), section 7.2: a factor g_k, computed once per step,
scales all p rows.  So the Euler iterates of Y are the exact
theta-derivatives of the Euler iterates of X, up to rounding.

Three forms step a block of paths: the recursion (_recursion), through
the generic step below, and for the built-ins two closed forms of it, the
product form (_product_block) and the sum form (_sum_block).  All take
their start state from _start: X_0, Y_0 from initial_grad, the weighted
sums at node 0 and the first recorded rows.  _step_block is the one
place that picks a form and judges its result.  It checks the terminal X
and Y once, since each update adds to or scales the previous state.  If
a path failed, the recursion runs again from the same noise with a check
after every step.  That run raises SimulationBlowup at the first
non-finite step, or, where only a closed form failed (a zero factor,
below), gives the failing paths the recursion's finite values while
every other path keeps its own; so a path's values do not depend on the
chunk it is stepped in.

A model with a table (models.LinearTable: the built-ins) steps from the
table's theta-scalars alpha, beta, gamma, delta (the drift net of the
compensator is alpha + beta x, the diffusion gamma + delta x), computed
once per block, with no model call and no test of a coefficient per
step.  With

    g_k = (1 + beta dt) + delta dW_k,

its Euler iterates are

    X_{k+1}   = X_k g_k + alpha dt + gamma dW_k + sum of jumps
    Y_{k+1,j} = Y_{k,j} g_k + (alpha_j + beta_j X_k) dt
                + (gamma_j + delta_j X_k) dW_k + sum of jump shares,

with the compensator gone from both, as it cancels in the net drift.

A table whose only entries are beta and delta, with some delta and no
jump law (bs), takes the product form: X_n = x0 g_0 g_1 ... g_{n-1},
and, since X_k / X_{k+1} = 1 / g_k and Y_0 = 0,

    Y_{n,j} = X_n (beta_j dt S1_n + delta_j S2_n),
    S1_n = sum_{k<n} 1 / g_k,   S2_n = sum_{k<n} dW_k / g_k,

a product and two sums over the grid (the factored pathwise tangent of
Glasserman 2004, section 7.2, taken as a scan in the sense of Blelloch,
"Prefix sums and their applications", CMU-CS-90-190, 1990).  The steps
go in blocks of BLOCK_STEPS.  Each block's factors are made in whole-block
calls into carry rows, with the running value in row 0: [X; g_lo ...
g_hi-1], then [S1; 1/g_lo ...] and [S2; dW_lo/g_lo ...].  Where only the
terminal values are wanted, a chunk of m >= 2 columns reduces each block
down its columns (multiply.reduce, add.reduce over axis 0), which takes
each column's rows in order, so X is the recursion's left-to-right
product bit for bit.  Where rows are wanted (record, weights) the same
sequence is taken row by row, one call per step; a chunk of one column
takes every route as one 1-D accumulate over the whole grid, since an
add.reduce of one column sums pairwise and would move bits.  So every
route gives the same bits.  The carry rows are kept per thread with the
noise streams (_ThreadScratch).

A factor g_k = 0 (delta dW_k = -(1 + beta dt) exactly) leaves X = 0 but
makes 1/g_k infinite, and Y = 0 * inf is NaN: a failed path, which the
re-run above gives the recursion's finite values.

A table without delta entries (ou, levy) takes the sum form.  There
g = 1 + beta dt is one theta-scalar, and a jump's size kappa(theta) +
nu(theta) z and each row's share S = kappa_j + nu_j z do not depend on
x.  With h_i = alpha dt + gamma dW_i + the jumps of step i, the
recursion unrolls to weighted sums of the increments (Kloeden and
Platen, "Numerical Solution of Stochastic Differential Equations", 1992,
section 4.2):

    X_k       = g^k x0 + sum_{i<k} g^(k-1-i) h_i
    Y_{k,j}   = g^k Y_{0,j} + sum_{i<k} g^(k-1-i) (alpha_j dt + gamma_j dW_i
                + shares S of step i) + beta_j dt dX_k/dg
    dX_k/dg   = k g^(k-1) x0 + sum_{i<k} (k-1-i) g^(k-2-i) h_i.

The powers g^e come from one running product (multiply.accumulate), and
e g^(e-1) is e times the previous power, so no power of 0 is negative
(g = 0 and g < 0 occur).  A weighted sum sum_k w_k X_k is the same form
with the weights B_i = sum_{k>i} w_k g^(k-1-i) and their g-derivative,
from one backward recursion of length n per theta.  The sums over the
increments of the terminal and weighted values are one einsum over the
(steps, m) chunk, which sums each entry in step order from +0.0 for two
or more columns (a BLAS product would move a column's bits with the
chunk width); it sums a lone column in another order, so that one goes
in twice.  The jumps go in per column, in their order, by one bincount.
A recorded chunk takes its rows in blocks of RECORD_STEPS steps: row
lo + k is the same sums over the block's first k steps, from the
recorded row lo in place of x0 and Y_0, taken for the block's rows at
once against weights that are 0 past k (a zero weight adds a signed
zero, which moves no sum that starts at +0.0).  So a recorded path costs
O(steps x RECORD_STEPS), and its last row is the terminal value itself.
Every route gives the same bits.  A table entry of 0 leaves its
term out.

Any other model takes the generic step: one `model.coefficients` call
per step,

    X_{k+1} = (X_k + a dt) + b dW_k - comp dt + sum of c(X_k, z_j)
    g_k     = 1 + a_x dt + b_x dW_k - comp_x dt
    Y_{k+1} = Y_k g_k + (a_theta dt + b_theta dW_k - comp_theta dt)
              + sum of (c_x Y_k + c_theta) over jumps,

term by term, each array term through out= into buffers made once per
block, in the order of the formulas; X and Y swap between two buffers
each, so a model must not keep the x it is given.

A batch keeps, per path, the terminal (X, Y) and one weighted sum over
the grid nodes, sum_k weights[k] (X, Y)_{t_k}, with the caller's weights
(a functional's trapezoid rule, see Functional.weights).

The stepper advances one theta at a time; a batch given a stack of
thetas draws each chunk's noise once and steps it at each theta in turn.
A run can record its full paths (record=True); euler_path and
coupled_paths return one recorded path.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .models import JumpDiffusionModel, JumpSpec
from .workers import in_slices
from .workers import worker_count as _worker_count

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
        self.step, self.detail = step, detail
        super().__init__(f"non-finite state at step {step}{detail}")

    def __reduce__(self):  # pickled as (step, detail), not as the message
        return type(self), (self.step, self.detail)


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
    previous block survives.  No generator is built per block.
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

    def at(self, key: int) -> tuple[np.random.Generator, np.random.Generator]:
        """The block's (increments, jumps) generators, set from key."""
        self._key[0] = key & _MASK64
        self._key[1] = key >> 64
        self._philox.state = self._philox_state  # the setter copies, the dict stays as built
        words = self._philox.random_raw(8)
        for bits, lo in zip(self._sfc, (0, 4)):
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
    normals, jumps = streams.at(key)
    normals.standard_normal(out=out)
    if jump.intensity > 0:
        counts = jumps.poisson(jump.poisson_mean(grid.horizon), BLOCK_PATHS)
        total = int(counts.sum())
        row = np.repeat(np.arange(BLOCK_PATHS), counts)
        times = jumps.uniform(0.0, grid.horizon, total)
        sizes = jump.sampler(jumps, total)
        return row, times[np.lexsort((times, row))], sizes
    return None


class _ThreadScratch(threading.local):
    """What each thread's draws and product-form steps reuse: its
    _BlockStreams, and the carry rows (module docstring), contiguous in one
    flat buffer grown when a block needs more: a view of a wider block's
    columns stepped 1.7x slower.  Building the streams costs most of a short
    path's draw, and a fresh (3, BLOCK_STEPS + 1, 2 048) buffer per call
    pays its page faults each time.  at() resets all of the streams' state
    and every carry row is written before it is read, so reuse changes no
    number."""

    def __init__(self):
        self.rows = np.empty(0)

    @functools.cached_property
    def streams(self) -> _BlockStreams:
        """Built on the thread's first draw, not at import."""
        return _BlockStreams()

    def carry_rows(self, rows: int, m: int) -> Array:
        """The carry rows as a contiguous (3, rows, m) view."""
        size = 3 * rows * m
        if self.rows.size < size:
            self.rows = np.empty(size)
        return self.rows[:size].reshape(3, rows, m)


_scratch = _ThreadScratch()


def sample_noise(grid: TimeGrid, jump: JumpSpec, seed: int) -> NoiseBundle:
    """Realize Brownian increments and compound-Poisson jumps for one path.

    The path seed path_seed(root, i) is drawn as the one-path chunk at
    index i of root (see _draw_chunk), so path i costs
    O((i % BLOCK_PATHS + 1) * steps) normals.
    """
    root, index = operator.index(seed) >> 64, operator.index(seed) & _MASK64
    increments = np.empty((grid.steps, 1))
    _, times, sizes = _draw_chunk(path_seed(root, 0), grid, jump, index, increments)
    return NoiseBundle(
        seed=seed,
        grid=grid,
        brownian_increments=increments[:, 0],
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
    """Step-sorted jump columns and sizes, and where each step's jumps start.

    The jumps come in column order and by time within a column, and the
    stable sort keeps that order within a step.
    """
    if times.size == 0:
        return None
    steps = _jump_steps(times, grid)
    order = np.argsort(steps, kind="stable")
    return paths[order], sizes[order], np.searchsorted(steps[order], np.arange(grid.steps + 1))


def _generic_body(model: JumpDiffusionModel, theta: Array, dt: float, increments: Array, jumps,
                  scratch: tuple):
    """The generic step (module docstring): one coefficients call per step."""
    p, has_jumps = model.p, model.has_jumps
    tmp, acc, row, g_buf = scratch
    ndarray, add, sub, mul = np.ndarray, np.add, np.subtract, np.multiply

    def step(k, x_prev, x, y_prev, y):
        dw = increments[k]
        coef = model.coefficients(x_prev, theta)
        a, b, a_x, b_x, a_th, b_th = coef[:6]
        add(x_prev, mul(a, dt, tmp) if isinstance(a, ndarray) else a * dt, acc)
        add(acc, mul(b, dw, tmp), x)
        if has_jumps:
            comp, comp_x, comp_th = coef[6:]
            sub(x, mul(comp, dt, tmp) if isinstance(comp, ndarray) else comp * dt, x)

        if y is not None:
            # factored tangent step: the factor g is shared by all p rows
            g = mul(a_x, dt, g_buf) if isinstance(a_x, ndarray) else a_x * dt
            g = add(1.0, g, g_buf) if isinstance(g, ndarray) else 1.0 + g
            g = add(g, mul(b_x, dw, tmp), g_buf)
            if has_jumps:
                g = sub(g, comp_x * dt, g_buf)
            mul(y_prev, g, y)
            for j in range(p):
                a_j, y_j = a_th[j], y[j]
                r = mul(a_j, dt, row) if isinstance(a_j, ndarray) else a_j * dt
                add(y_j, add(r, mul(b_th[j], dw, tmp), acc), y_j)
                if has_jumps:
                    sub(y_j, comp_th[j] * dt, y_j)

        if jumps is not None:
            paths_j, sizes_j, bounds = jumps
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                pj = paths_j[lo:hi]
                c, c_x, c_th = model.jump_kernel(x_prev[pj], sizes_j[lo:hi], theta)
                np.add.at(x, pj, c)
                if y is not None:
                    c_y = c_x * y_prev[:, pj]
                    for j in range(p):
                        c_y[j] += c_th[j]
                    np.add.at(y, (slice(None), pj), c_y)

    return step


# Steps per block of the product form: the block's factors are made in a
# few whole-block calls and reduced in one.  Chosen from measurement: bs
# X + Y at 2 048 x 500 took 3.2-3.7 ns per path-step at 8, 16 and 32 and
# 4.5 ns at 64, where the carry rows outgrow the cache (2-vCPU x86-64
# host, scripts/step_timing.py).
BLOCK_STEPS = 32


def _product_form(model: JumpDiffusionModel, theta: Array, want_y: bool) -> bool:
    """The model takes the product form (module docstring): a table whose
    only entries are beta and delta, some delta among them, no jump law,
    and a zero initial gradient where Y is wanted."""
    table = model.table
    return (
        table is not None
        and not model.has_jumps
        and all(v is None for v in table.alpha + table.gamma)
        and any(v is not None for v in table.delta)
        and not (want_y and np.any(model.initial_grad(theta)))
    )


def _tangent(scales, x: Array, s1: Array, s2: Array, out: Array) -> None:
    """Y row j = X (c1_j S1 + c2_j S2) into out[..., j, :], for scales of
    (c1_j, c2_j) = (beta_j dt, delta_j), a None term left out; 0 where both
    are None."""
    for j, (c1, c2) in enumerate(scales):
        y_j = out[..., j, :]
        if c1 is None and c2 is None:
            y_j[...] = 0.0
            continue
        if c1 is None:
            np.multiply(s2, c2, y_j)
        else:
            np.multiply(s1, c1, y_j)
            if c2 is not None:
                y_j += s2 * c2
        np.multiply(y_j, x, y_j)


def _start(model: JumpDiffusionModel, theta: Array, n: int, m: int, want_y: bool,
           weights: Array | None, record: bool) -> tuple:
    """The start state of both forms, in _result's order: X_0 and Y_0 (from
    initial_grad) on m paths, their weighted sums at node 0 and the n + 1
    recorded rows with row 0 filled; None for what is not wanted."""
    x = np.full(m, float(model.initial(theta)))
    y = x_sum = y_sum = rec_x = rec_y = None
    if want_y:
        y0 = np.asarray(model.initial_grad(theta), dtype=float)
        y = np.repeat(y0[:, None], m, axis=1)  # (p, m)
    if weights is not None:
        x_sum = weights[0] * x
        if want_y:
            y_sum = weights[0] * y
    if record:
        rec_x = np.empty((n + 1, m))
        rec_x[0] = x
        if want_y:
            rec_y = np.empty((n + 1, model.p, m))
            rec_y[0] = y
    return x, x_sum, y, y_sum, rec_x, rec_y


def _product_block(model: JumpDiffusionModel, theta: Array, grid: TimeGrid, increments: Array,
                   *, want_y: bool, weights: Array | None, record: bool) -> BatchResult:
    """X, Y and their sums and paths in the product form (module docstring),
    unchecked."""
    n, m = increments.shape
    dt = grid.dt
    table = model.table
    _, beta, _, delta = table.scalars(theta)[:4]
    g0 = 1.0 if beta is None else 1.0 + beta * dt
    scales = [(None if b_j is None else b_j * dt, d_j) for b_j, d_j in zip(table.beta, table.delta)]
    add, mul = np.add, np.multiply
    by_rows = m == 1 or record or weights is not None
    block = n if m == 1 else BLOCK_STEPS
    # the carry rows [X; g], [S1; 1/g] and [S2; dW/g]; one column's hold the grid
    rows = min(block, n) + 1
    fac, inv, dinv = np.empty((3, rows, 1)) if m == 1 else _scratch.carry_rows(rows, m)

    x, x_sum, y, y_sum, rec_x, rec_y = _start(model, theta, n, m, want_y, weights, record)
    if weights is not None:
        tmp = np.empty(m)
    if want_y:
        s1, s2, y_k, y_term = np.zeros(m), np.zeros(m), np.empty_like(y), np.empty_like(y)

    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dw, f, v, d = increments[lo:hi], fac[: hi - lo + 1], inv[: hi - lo + 1], dinv[: hi - lo + 1]
        f[0] = x
        add(mul(dw, delta, f[1:]), g0, f[1:])
        if not by_rows:
            # in order down each column, as m >= 2; each sum is reduced while
            # its rows are in cache: 1/g_k into v, then dW_k/g_k in place
            mul.reduce(f, axis=0, out=x)
            if want_y:
                v[0] = s1
                np.divide(1.0, f[1:], v[1:])
                add.reduce(v, axis=0, out=s1)
                v[0] = s2
                mul(v[1:], dw, v[1:])
                add.reduce(v, axis=0, out=s2)
            continue
        # row i of each becomes X, S1, S2 at step lo + i
        carried = [(f, mul, x)]
        if want_y:
            v[0], d[0] = s1, s2
            np.divide(1.0, f[1:], v[1:])
            mul(v[1:], dw, d[1:])
            carried += [(v, add, s1), (d, add, s2)]
        for carry_rows, ufunc, state in carried:
            if m == 1:
                ufunc.accumulate(carry_rows[:, 0], out=carry_rows[:, 0])
            else:
                for i in range(hi - lo):
                    ufunc(carry_rows[i], carry_rows[i + 1], carry_rows[i + 1])
            state[:] = carry_rows[-1]
        if record:
            rec_x[lo + 1 : hi + 1] = f[1:]
            if want_y:
                _tangent(scales, f[1:], v[1:], d[1:], rec_y[lo + 1 : hi + 1])
        if weights is not None:
            for i in range(1, hi - lo + 1):
                w = weights[lo + i]
                add(x_sum, mul(f[i], w, tmp), x_sum)
                if want_y:
                    _tangent(scales, f[i], v[i], d[i], y_k)
                    add(y_sum, mul(y_k, w, y_term), y_sum)

    if want_y:
        _tangent(scales, x, s1, s2, y)
    return _result(x, x_sum, y, y_sum, rec_x, rec_y)


# Steps per block of the sum form's recorded rows (module docstring): a
# recorded path costs O(steps x RECORD_STEPS).  Chosen from measurement:
# one recorded ou path X + Y over 2 000 steps took 7.1, 4.0, 2.2, 1.7 and
# 1.7 us per step at 8, 16, 32, 64 and 128, and a recorded chunk of 2 048
# paths over 500 steps 37, 35, 45, 64 and 118 ns per path-step (2-vCPU
# x86-64 host; the affine recursion took 6.3 us and 10 ns).
RECORD_STEPS = 32


def _sum_block(model: JumpDiffusionModel, theta: Array, grid: TimeGrid, increments: Array, jumps,
               *, want_y: bool, weights: Array | None, record: bool) -> BatchResult:
    """X, Y and their sums and paths of a table without delta entries, as
    weighted sums of the increments (module docstring), unchecked."""
    n, m = increments.shape
    dt = grid.dt
    table = model.table
    alpha, beta, gamma = table.scalars(theta)[:3]
    g = 1.0 if beta is None else float(1.0 + beta * dt)
    alpha_dt = None if alpha is None else alpha * dt
    # row 0: g^e; row 1, where Y needs X's g-derivative: e g^(e-1)
    powers = np.multiply.accumulate(np.append(1.0, np.full(n, g)))
    rows = powers[None]
    if want_y and beta is not None:
        rows = np.stack([powers, np.arange(n + 1) * np.append(0.0, powers[:-1])])
    r = len(rows)
    sums = np.add.accumulate(rows, axis=1)
    # the weight of X_k, k steps on, on increment i is rows[:, k - 1 - i] =
    # back[:, n - k + i], which is 0 for i >= k
    back = np.concatenate([rows[:, n - 1 :: -1], np.zeros((r, n - 1))], axis=1)

    def after(lo: int, hi: int):
        """The targets k = lo..hi steps on: the weights on the start (T, r),
        their sums over the increments (T, r) and those on the next hi
        increments (T, r, hi)."""
        windows = sliding_window_view(back, hi, axis=1)[:, n - hi : n - lo + 1][:, ::-1]
        return rows[:, lo : hi + 1].T, sums[:, lo - 1 : hi].T, windows.transpose(1, 0, 2)

    targets = after(n, n)
    if weights is not None:
        # B_i = sum over k > i of w_k g^(k-1-i) and its g-derivative, back
        # from B_n = 0; the weight on x0 is the step to i = -1
        w = weights.tolist()
        b = np.empty((2, n + 1))
        acc = dacc = 0.0
        for i in range(n - 1, -2, -1):
            acc, dacc = w[i + 1] + g * acc, acc + g * dacc
            b[:, i + 1] = acc, dacc
        b = b[:r]
        weighted = (b[:, 0], b[:, 1:].sum(axis=1), b[:, 1:])
        targets = [np.concatenate([t, part[None]]) for t, part in zip(targets, weighted)]

    if jumps is None:  # none drawn, or a law without jumps
        jumps = np.empty(0, dtype=np.int64), np.empty(0), np.zeros(n + 1, dtype=np.int64)
    cols, sizes, bounds = jumps
    steps = np.repeat(np.arange(n), np.diff(bounds))
    size = np.broadcast_to(table.jump_size(sizes, theta), sizes.shape)
    if want_y:
        coefs = [
            (None if a_j is None else a_j * dt, c_j, None if b_j is None else b_j * dt,
             None if share is None else np.broadcast_to(share, sizes.shape))
            for a_j, c_j, b_j, share in zip(table.alpha, table.gamma, table.beta,
                                            table.jump_shares(sizes))
        ]

    def at(c: Array, s: Array, u: Array, lo: int, x: Array, y: Array | None):
        """X (T, m) and Y (T, p, m) or None at the T targets of after(),
        counted from step lo, where the state is x (m,) and y (p, m).  Each
        sum over the increments goes in step order from +0.0, as einsum
        (BLAS would move bits with the chunk width) sums two or more
        columns; it sums one column in another order, so a lone column
        goes in twice."""
        t, k = len(u), u.shape[-1]
        c, s, u = c.ravel(), s.ravel(), u.reshape(t * r, k)  # row t r + q
        inc = increments[lo : lo + k] if m > 1 else np.repeat(increments[lo : lo + k], 2, axis=1)
        d = np.einsum("qi,im->qm", u, inc)[:, :m]
        j0, j1 = bounds[lo], bounds[lo + k]

        def linear(which, start, drift, noise, jump):
            """c start + drift s + noise d, and the block's jumps weighted by
            u and jump, in their order within a column, at the rows
            `which`; a None term is left out."""
            out = c[which, None] * start
            if drift is not None:
                out += (drift * s[which])[:, None]
            if noise is not None:
                out += noise * d[which]
            if jump is not None:
                q = len(out)
                bins = (np.arange(q)[:, None] * m + cols[j0:j1]).ravel()
                jw = u[which][:, steps[j0:j1] - lo] * jump[j0:j1]
                out += np.bincount(bins, jw.ravel(), q * m).reshape(q, m)
            return out

        xs = linear(slice(None), x, alpha_dt, gamma, size)
        if not want_y:
            return xs, None
        ys = np.empty((t, model.p, m))
        for j, (a_dt, c_j, b_dt, share) in enumerate(coefs):
            ys[:, j] = linear(slice(0, None, r), y[j], a_dt, c_j, share)
            if b_dt is not None:
                ys[:, j] += b_dt * xs[1::r]
        return xs[::r], ys

    x, _, y, _, rec_x, rec_y = _start(model, theta, n, m, want_y, None, record)
    xs, ys = at(*targets, 0, x, y)
    if record:
        # rows 1..n-1 in blocks, each from its block's first row; row n is
        # the terminal
        for lo in range(0, n - 1, RECORD_STEPS):
            hi = min(lo + RECORD_STEPS, n - 1)
            rec_x[lo + 1 : hi + 1], y_rows = at(*after(1, hi - lo), lo, rec_x[lo],
                                                 None if rec_y is None else rec_y[lo])
            if want_y:
                rec_y[lo + 1 : hi + 1] = y_rows
        rec_x[n] = xs[0]
        if want_y:
            rec_y[n] = ys[0]
    ys = (None, None) if ys is None else ys
    if weights is None:
        return _result(xs[0], None, ys[0], None, rec_x, rec_y)
    return _result(xs[0], xs[1], ys[0], ys[1], rec_x, rec_y)


def _result(x, x_sum, y, y_sum, rec_x, rec_y) -> BatchResult:
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


def _recursion(model: JumpDiffusionModel, theta: Array, grid: TimeGrid, increments: Array, jumps,
               *, want_y: bool, weights: Array | None, record: bool,
               path_offset: int | None = None) -> BatchResult:
    """X, Y and their sums and paths by the recursion, through the generic
    step (module docstring).  Given a path_offset, X and Y are checked
    after every step, and SimulationBlowup names the first non-finite step
    and its path as path_offset + its column; else nothing is checked."""
    n, m = increments.shape
    x, x_sum, y, y_sum, rec_x, rec_y = _start(model, theta, n, m, want_y, weights, record)
    # the two of each pair swap each step
    x_prev = np.empty(m)
    y_prev = None if y is None else np.empty_like(y)
    y_term = None if y_sum is None else np.empty_like(y)
    # the step's scratch: a term, a partial sum, a row term, the factor g;
    # a sum goes into a buffer other than its inputs where one is free (in
    # place costs more at m = 1)
    scratch = tuple(np.empty(m) for _ in range(4))
    tmp = scratch[0]
    step = _generic_body(model, theta, grid.dt, increments, jumps, scratch)

    add, mul = np.add, np.multiply
    for k in range(n):
        x, x_prev = x_prev, x
        if y is not None:
            y, y_prev = y_prev, y
        step(k, x_prev, x, y_prev, y)

        if path_offset is not None:
            for label, state in (("X", x), ("Y", y)):
                if state is not None and not np.isfinite(state).all():
                    finite = np.isfinite(state).reshape(-1, m).all(axis=0)
                    bad = int(np.flatnonzero(~finite)[0])
                    raise SimulationBlowup(
                        k + 1, detail=f" in {label} (path index {path_offset + bad})"
                    )

        if x_sum is not None:
            add(x_sum, mul(x, weights[k + 1], tmp), x_sum)
            if y_sum is not None:
                add(y_sum, mul(y, weights[k + 1], y_term), y_sum)

        if record:
            rec_x[k + 1] = x
            if rec_y is not None:
                rec_y[k + 1] = y

    return _result(x, x_sum, y, y_sum, rec_x, rec_y)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
) -> BatchResult:
    """Advance a block of m paths over the full grid, in the product or
    the sum form for a model that takes one, else by the recursion, and
    judge the result.

    weights adds the weighted sums x_sum (and y_sum); record=True keeps
    the full paths in x_path and y_path (small blocks only).  The terminal
    X and Y are checked once; if a path's are not finite, the recursion
    runs again with a check after every step.  That run raises
    SimulationBlowup at the first non-finite step, naming the path as
    path_offset + its column, or gives the failing paths its finite values
    (where only the closed form failed).  numpy's overflow warnings are
    silenced, as that error reports them.
    """
    kw = dict(want_y=want_y, weights=weights, record=record)
    if _product_form(model, theta, want_y):
        res = _product_block(model, theta, grid, increments, **kw)
    elif model.table is not None and all(d_j is None for d_j in model.table.delta):
        res = _sum_block(model, theta, grid, increments, jumps, **kw)
    else:
        res = _recursion(model, theta, grid, increments, jumps, **kw)
    bad = _bad_paths(res)
    if bad.any():
        fix = _recursion(model, theta, grid, increments, jumps, **kw, path_offset=path_offset)
        for f in fields(BatchResult):
            value = getattr(res, f.name)
            if value is not None:
                path = (..., bad) if f.name.endswith("_path") else bad  # paths end in m
                value[path] = getattr(fix, f.name)[path]
    return res


def _bad_paths(res: BatchResult) -> Array:
    """The paths of a block whose terminal X or Y is not finite."""
    bad = ~np.isfinite(res.x_terminal)
    if res.y_terminal is not None:
        bad |= ~np.isfinite(res.y_terminal).all(axis=1)
    return bad


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


def _draw_chunk(root_key: int, grid: TimeGrid, jump: JumpSpec, first: int, increments: Array):
    """Draw the noise of paths first..first+m-1 of a root: the one map from
    a path to its block rows and its slice of the block's jumps.

    Fills increments, shape (steps, m), in place, one column per path, and
    returns the chunk's jumps as (column, time, size) arrays, ordered by
    column and by time within a column.  The only array of block size is
    one scratch block of normals, scaled into the columns it covers.
    """
    sd = np.sqrt(grid.dt)
    m = increments.shape[1]
    streams = _scratch.streams
    normals = np.empty((min(first % BLOCK_PATHS + m, BLOCK_PATHS), grid.steps))
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
    if not paths:  # a law without jumps
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    return np.concatenate(paths), np.concatenate(times), np.concatenate(sizes)


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
) -> BatchResult | list[BatchResult]:
    """Simulate n_paths seeded paths and return streaming reductions.

    Path i uses seed path_seed(root_seed, start_index + i); results are
    identical for any chunk_size.  n_paths and chunk_size are integers
    >= 1, checked before any draw.  want_y adds the sensitivity Y; weights
    (one per grid node) adds the weighted sums x_sum and y_sum; record
    keeps the full paths (small batches only); see _step_block.  theta is
    one vector, or a (k, p) stack of them, for which the result is a list
    of k BatchResults: row j's equals the BatchResult of theta[j] alone.

    The paths go in chunks of chunk_size columns; each chunk's noise is
    drawn once and stepped at every theta in turn.  With W =
    _worker_count(chunks) > 1 the columns are split into W equal
    contiguous ranges, and each range is drawn and stepped in a forked
    worker, chunk by chunk through one (steps, chunk_size) increment
    buffer; the parent joins the pieces in column order.  The error raised
    is that of the first range that raised one (a blow-up names its column
    in the batch), and no worker is left when the call returns or raises.
    """
    _check_count("n_paths", n_paths)
    _check_count("chunk_size", chunk_size)
    stacked = np.ndim(theta) == 2
    thetas = [model.require_theta(th) for th in (theta if stacked else [theta])]
    if weights is not None and np.shape(weights) != (grid.steps + 1,):
        raise ValueError(
            f"weights must have shape ({grid.steps + 1},), got {np.shape(weights)}"
        )
    path_seed(root_seed, start_index)  # rejects a bad root or start index up front
    start_index = operator.index(start_index)
    last_index = start_index + n_paths - 1
    if last_index >> 64:
        raise ValueError(f"path indices {start_index}..{last_index} run past 2**64 - 1")
    root_key = path_seed(root_seed, 0)  # block b has key root_key | b

    def run_slice(lo: int, hi: int) -> list[list[BatchResult]]:
        """The chunks of columns lo..hi-1, one after another, per theta."""
        buffer = np.empty((grid.steps, min(chunk_size, hi - lo)))
        pieces = [[] for _ in thetas]
        for done in range(lo, hi, chunk_size):
            increments = buffer[:, : min(chunk_size, hi - done)]
            jumps = _flat_jumps(
                *_draw_chunk(root_key, grid, model.jump, start_index + done, increments), grid
            )
            for piece, th in zip(pieces, thetas):
                piece.append(
                    _step_block(
                        model, th, grid, increments, jumps,
                        want_y=want_y, weights=weights, record=record, path_offset=done,
                    )
                )
        return pieces

    workers = _worker_count(-(-n_paths // chunk_size))  # at most one per chunk
    parts = in_slices(run_slice, n_paths, workers, "paths")

    def cat(pieces, name):
        vals = [getattr(p, name) for p in pieces]
        axis = -1 if name.endswith("_path") else 0  # recorded paths end in B
        return None if vals[0] is None else np.concatenate(vals, axis=axis)

    results = []
    for slices in zip(*parts):  # one theta's chunks, slice by slice
        pieces = [p for piece in slices for p in piece]
        results.append(BatchResult(**{f.name: cat(pieces, f.name) for f in fields(BatchResult)}))
    return results if stacked else results[0]
