"""Host-speed sampling, so that timings taken minutes apart compare.

On a shared host the same single-threaded work can take twice as long in
one minute as in the next, while the process is never descheduled: its CPU
time rises with its wall time. Raw wall times of whole 30 s runs then spread
by about 20% (interquartile range over median) between runs, more than any
bound a regression check could use.

``SpeedProbe`` runs a fixed calibration kernel from a timer signal every
``INTERVAL_S`` of wall time while ops run, and records how long each kernel
run took. The kernel makes the small dense numpy calls that the simplex of
plverify makes, and calls no plverify code, so no change to the program can
move it. A time span is reported *normalised*: its wall time, less the
kernel runs inside it, times the mean of ``REFERENCE_KERNEL_S`` over each
kernel time around the span, which weights the host's speed by time. A
normalised second is a second on a host where one kernel run takes
``REFERENCE_KERNEL_S``.

On the 2-core x86 host the benchmark was written on, raw totals of the same
ops spread by 0.17-0.44 between passes in busy periods; normalised, by
0.01-0.05. What normalising cannot remove is the noise of single ops (about
10% between passes for ops over 0.2 s, 20% for ops under 50 ms), which
reaches the median and tail of a run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 1.0e-3
INTERVAL_S = 0.04
WINDOW_S = 0.1  # kernel runs this close to a span also speak for it

_TABLEAU = np.random.default_rng(0).uniform(0.5, 1.5, (20, 40))
_WEIGHTS = np.random.default_rng(1).uniform(0.5, 1.5, 40)


def kernel() -> float:
    """Ratio tests and pivots on a small dense tableau, like the simplex in ``plverify.lp``."""
    a = _TABLEAU.copy()
    s = 0.0
    for k in range(24):
        col = int(np.argmin(a[k % 20, :-1]))
        rows = np.flatnonzero(a[:, col] > 0.1)
        r = int(rows[np.argmin(a[rows, -1] / a[rows, col])])
        a[r] /= a[r, col]
        a -= np.outer(a[:, col], a[r]) * 1e-3
        s += float((a @ _WEIGHTS).sum())
    return s


def kernel_seconds(repeats: int) -> float:
    """Median time of ``repeats`` back-to-back kernel runs."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        t = clock()
        kernel()
        times.append(clock() - t)
    return statistics.median(times)


def normalise(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


class SpeedProbe:
    """Samples host speed while active (``with SpeedProbe() as probe:``)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalised(self, start: float, end: float) -> float:
        """Normalised duration of the span [start, end] of ``time.perf_counter``."""
        starts = self.starts
        inside = self.durations[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
        near = self.durations[bisect.bisect_left(starts, start - WINDOW_S):bisect.bisect_left(starts, end + WINDOW_S)]
        return (end - start - sum(inside)) * statistics.fmean(REFERENCE_KERNEL_S / d for d in near or self.durations)
