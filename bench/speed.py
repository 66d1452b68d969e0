"""Correction of op times for the speed of a shared host.

On a host shared with other machines, the same code runs up to 1.7 times
slower at some moments than at others, and the slow spells last from
about a second to minutes, longer than a run.  A fixed reference kernel
slows down in step with the ops: in one process alternating the two, the
median op time over 10 s windows spread by 23-27% while the median of op
time over kernel time spread by 1-5%.

So a run times the kernel every REF_PERIOD_S seconds from a SIGALRM
handler, also inside long ops, takes the handler's time out of the op
times, and rescales each op to a machine on which the kernel takes
REF_NOMINAL_S.  The kernel must never change: its time is the unit that
corrected times of different commits share.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 1.25e-3
REF_PERIOD_S = 0.25


def reference_kernel() -> int:
    """Small-array numpy arithmetic, Philox set-up and draws, and a Python
    loop: the kinds of work plugmc's ops are made of."""
    import numpy as np

    x = np.ones(512)
    y = np.zeros(512)
    for _ in range(100):
        y = y + 0.001 * x
        x = x + 0.5 * y
    for key in range(40):
        np.random.Generator(np.random.Philox(key=key)).normal(0.0, 1.0, 50)
    total = 0
    for i in range(6000):
        total += i * i
    return total


def reference_seconds(repeats: int = 5) -> float:
    """Median time of the kernel, run now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Times the reference kernel every REF_PERIOD_S seconds while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.spent = 0.0  # seconds spent in the handler so far

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        reference_kernel()  # import numpy before the first signal
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """`seconds` of work done in [start, end], at the nominal kernel speed.

        Uses the kernel samples taken in the interval, or the one nearest
        to it when the interval is shorter than the sampling period.
        """
        during = [s for t, s in self.samples if start <= t <= end]
        if not during:
            middle = (start + end) / 2
            during = [min(self.samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return seconds * REF_NOMINAL_S / statistics.median(during)
