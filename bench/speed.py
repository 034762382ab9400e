"""Machine speed sampled from inside the timed region.

A shared virtual machine changes speed by up to about 2x within seconds, as
its virtual CPU moves between lightly and heavily shared host cores; wall
times then spread far more than any change to the program would move them.
While a repetition runs, a timer signal interrupts it every INTERVAL_S and
times a fixed pure-Python loop in the same thread. Each reported time is the
wall time scaled by REFERENCE_S over the mean loop time of the probes taken
during it (and just around it), raised to SENSITIVITY, so it reads as
seconds on a machine where the loop takes REFERENCE_S, as on a quiet
2-vCPU Xeon VM at 2.0 GHz. The exponent is measured: under contention the
workloads slowed by about the 1.15th power of the probe's slowdown (fit over
about 190 repetitions of the three workloads at probe slowdowns of 1.0x to
2.4x), since they touch far more memory than the probe's loop. The probes
cost about 0.25% of the wall time, which stays in the measured times.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

INTERVAL_S = 0.01
LOOP = 400
# probe loop time on a quiet 2-vCPU Xeon VM at 2.0 GHz, Python 3.11
REFERENCE_S = 20e-6
SENSITIVITY = 1.15


def _loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples speed with SIGALRM while it is open."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each probe started
        self.loops: list[float] = []  # how long its loop took

    def _probe(self, *_) -> None:
        self.times.append(time.perf_counter())
        self.loops.append(_loop())

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds in [start, end] to reference seconds,
        from the probes within two intervals of that span."""
        lo = bisect.bisect_left(self.times, start - 2 * INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + 2 * INTERVAL_S)
        if lo == hi:  # no probe nearby: take the closest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return (REFERENCE_S / statistics.mean(self.loops[lo:hi])) ** SENSITIVITY

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    probes run where a child's work runs."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
