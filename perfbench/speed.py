"""Machine-speed probe, so that times measured on a shared host compare.

On a host shared with other tenants the same single-threaded work can run
1.7x slower for stretches of seconds to minutes, which no number of repeats
inside a 20-second run averages out. While a probe is active, a timer signal
every PERIOD_S runs a fixed pure-Python kernel and records how long it took.
A measured interval is then reported twice: as wall time (with the probe's
own time taken out), and scaled to the speed at which the kernel takes
REFERENCE_S, using the kernel's mean cost around that interval.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import NamedTuple

PERIOD_S = 0.01
REFERENCE_S = 1e-4
PAD_S = 0.1
_ITERATIONS = 1100


def kernel() -> int:
    x = 0
    for i in range(_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
    return x


class Interval(NamedTuple):
    start: float
    end: float
    busy: float   # end - start, less the probe's own time inside


class SpeedProbe:
    """Context manager that samples the kernel's cost on SIGALRM."""

    def __init__(self):
        self.times = []
        self.costs = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        cost = time.perf_counter() - start
        self.times.append(start)
        self.costs.append(cost)
        self.spent += cost

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def timed(self, fn, *args, **kwargs):
        """Call fn; return (result, Interval)."""
        spent, start = self.spent, time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, Interval(start, end, end - start - (self.spent - spent))

    def scaled(self, interval: Interval) -> float:
        """The interval's busy time at the reference speed."""
        lo = bisect.bisect_left(self.times, interval.start - PAD_S)
        hi = bisect.bisect_right(self.times, interval.end + PAD_S)
        if lo == hi:  # no sample inside: take the nearest on either side
            lo, hi = max(lo - 1, 0), hi + 1
        costs = self.costs[lo:hi]
        return interval.busy * REFERENCE_S / (sum(costs) / len(costs))


class NoProbe:
    """Stands in for SpeedProbe in traced runs, whose spans must not include it."""

    spent = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    timed = SpeedProbe.timed
