"""Stage timings calibrated to a fixed host speed.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop was seen to vary by 15-45 % (quartile spread over median)
within one minute, which swamps the differences the benchmark must resolve.
While the clock runs, a SIGALRM timer interrupts the process every
``PERIOD_S`` and times a small reference kernel (pure-Python arithmetic and a
small numpy call, run once to warm caches and once timed).  The mean kernel
time over an interval, divided by ``REFERENCE_KERNEL_S``, is the host's
slowness during that interval.  A calibrated time is the interval's
wall-clock minus the time spent in the interrupts, divided by that
slowness: the seconds the work would take at the reference speed.

The kernel is independent of saferl, so a change to saferl moves calibrated
and raw times alike; what calibration removes is drift that slows the
kernel too.  It would also hide a slowdown of the whole process that the
kernel shares, such as another thread holding the interpreter lock, so the
raw wall-clock is kept in the run record.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

PERIOD_S = 0.02
# Mean timed-kernel duration on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 25e-6

_VEC = np.arange(4.0)


def _kernel() -> float:
    total = 0.0
    for i in range(150):
        total += math.hypot(i, 1.0) * 0.5
    return total + float(np.dot(_VEC, _VEC))


class HostClock:
    """Samples host speed while started; converts intervals to calibrated seconds."""

    def __init__(self):
        self.tick_start = array("d")  # perf_counter at each interrupt
        self.tick_spent = array("d")  # whole interrupt duration
        self.kernel_s = array("d")  # timed kernel duration
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.tick_start.append(start)
        self.kernel_s.append(t1 - t0)
        self.tick_spent.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowness(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean kernel time over [t0, t1) (the whole run by default) relative
        to the reference; 1.0 before any sample exists."""
        lo = 0 if t0 is None else bisect_left(self.tick_start, t0)
        hi = len(self.tick_start) if t1 is None else bisect_left(self.tick_start, t1)
        if hi <= lo:
            if not self.kernel_s:
                return 1.0
            lo, hi = 0, len(self.kernel_s)
        return sum(self.kernel_s[lo:hi]) / (hi - lo) / REFERENCE_KERNEL_S

    def calibrated(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1) would take at the reference speed."""
        lo = bisect_left(self.tick_start, t0)
        hi = bisect_left(self.tick_start, t1)
        own = (t1 - t0) - sum(self.tick_spent[lo:hi])
        return own / self.slowness(t0, t1)
