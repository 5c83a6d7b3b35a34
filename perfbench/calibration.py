"""A fixed reference kernel that measures how fast the host runs right now.

A shared host drifts in speed by tens of percent over tens of seconds, which
is more than an optimisation of a few percent could ever show.  Two things
take the drift out.  Work is timed in CPU time of the calling thread, which
leaves out the time the thread or its virtual CPU waited for the host (the
package does its work in that one thread).  And the benchmark runs this
kernel between operations and scales each operation's time by how much
slower or faster the kernel ran around it.  The kernel uses
the same numpy primitives as the package's inner loops (trigonometric
columns over an n-vector, dot products, a 2x2 solve, a complex exponential
sum) driven from a Python loop, so what slows the package on a busy host
slows the kernel alike.  It is the benchmark's own code: no change to the
package can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter, thread_time

import numpy as np

N = 2048
FREQUENCIES = 0.001 + 0.0007 * np.arange(10)
# Median kernel time on the reference host (2 vCPUs of an Intel Xeon,
# Python 3.11, numpy 2.4).  Calibrated times read as seconds on that host.
REFERENCE_S = 1.4e-3

_T = np.arange(1, N + 1, dtype=float)
_Y = np.cos(0.3 * _T) + 0.5 * np.sin(0.61 * _T)


def kernel() -> float:
    """The reference computation; its result only keeps the work from being skipped."""
    acc = 0.0
    for w in FREQUENCIES:
        c = np.cos(w * _T)
        s = np.sin(w * _T)
        cs = c @ s
        m = np.array([[c @ c, cs], [cs, s @ s]])
        v = np.array([c @ _Y, s @ _Y])
        acc += float(v @ np.linalg.solve(m, v)) + abs(_Y @ np.exp(1j * w * _T))
    return acc


def block(seconds: float) -> list[float]:
    """Thread CPU times of back-to-back kernel runs filling ``seconds``, at least one run."""
    times = []
    end = perf_counter() + seconds
    while True:
        start = thread_time()
        kernel()
        times.append(thread_time() - start)
        if perf_counter() >= end:
            return times


class Calibrator:
    """Scales timed work to the reference host by the kernel runs around it.

    Each call to :meth:`scale` runs a kernel block of ``share`` times the
    work just timed.  That block closes the interval of the work just timed
    and opens the interval of the next, so every piece of work is judged by
    the kernel runs right before and right after it.
    """

    def __init__(self, share: float = 0.08):
        self.share = share
        self.kernel_times: list[float] = []
        kernel()  # the first run pays one-time costs; it is not a sample
        self.sample(0.0)

    def sample(self, seconds: float) -> list[float]:
        """Kernel runs filling ``seconds``; they close the last interval and open the next."""
        self._last = block(seconds)
        self.kernel_times += self._last
        return self._last

    def scale(self, seconds: float) -> float:
        """``seconds`` of thread CPU time just spent, as seconds on the reference host."""
        before = self._last
        after = self.sample(self.share * seconds)
        return seconds * REFERENCE_S / statistics.median(before + after)

    def host_speed(self) -> float:
        """Reference kernel time over the median kernel time so far; above 1 is faster."""
        return REFERENCE_S / statistics.median(self.kernel_times)
