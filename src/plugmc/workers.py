"""Work split into contiguous slices, each run in a forked worker process.

The bs study forks its replications and simulate_batch its paths through
in_slices.  Each caller computes the number of workers with worker_count,
which is 1 inside a worker, so a worker never forks workers of its own.
"""

from __future__ import annotations

import os
import pickle
import threading

_in_worker = False  # set in a forked child before it runs its slice


def worker_count(limit: int) -> int:
    """Processes to split work into: one per CPU this process may use, at
    most `limit`.  1 inside a worker, on a platform without os.fork or
    os.sched_getaffinity, and while another thread is alive, as a forked
    child would inherit the locks that thread holds."""
    if _in_worker or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), limit)


def in_slices(fn, count: int, workers: int, noun: str) -> list:
    """[fn(start, stop) for each of `workers` equal contiguous slices of
    range(count)], in slice order.

    workers == 1 calls fn(0, count) in this process.  Otherwise each slice
    runs in a forked child, which pickles its result, or the exception it
    raised, into a pipe and ends in os._exit.  The parent raises in slice
    order: the exception of the first slice that raised (its type and
    message, not its traceback), or a RuntimeError that names the first
    child that ended without a result by its slice of `noun` and its exit
    status.  Every child has been waited for when this returns or raises;
    one still running after a raise is killed first.
    """
    if workers == 1:
        return [fn(0, count)]
    bounds = [count * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe, start, stop), in slice order
    unreaped = set()
    results = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(fn, start, stop, write_fd)  # never returns
            os.close(write_fd)
            unreaped.add(pid)
            children.append((pid, os.fdopen(read_fd, "rb"), start, stop))
        for pid, pipe, start, stop in children:
            payload = pipe.read()  # to EOF: the child has written all of it, or died
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            unreaped.discard(pid)
            if code != 0 or not payload:
                ended = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(
                    f"the worker for {noun} {start}..{stop - 1} ended "
                    f"without a result ({ended})"
                )
            result, exc = pickle.loads(payload)  # bytes that our own child wrote
            if exc is not None:
                raise exc
            results.append(result)
    finally:
        for _, pipe, _, _ in children:
            pipe.close()
        if unreaped:  # only after a raise; their results are not needed
            import signal

            for pid in unreaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _run_child(fn, start: int, stop: int, write_fd: int) -> None:
    """In a forked child: write pickled (fn(start, stop), None), or (None,
    the exception it raised), to write_fd, then os._exit, 0 once the
    payload is written and 1 otherwise.  An exception that does not pickle
    is sent as RuntimeError(repr(exc))."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        try:
            result = (fn(start, stop), None)
        except BaseException as exc:  # raised again by the parent
            result = (None, exc)
        try:
            payload = pickle.dumps(result)
        except Exception as error:
            payload = pickle.dumps((None, RuntimeError(repr(result[1] or error))))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
