"""Machine-speed normalisation for untraced runs.

The machines this benchmark runs on share their cores with other tenants:
a fixed pure-Python loop took anywhere from 47 to 95 ms within one minute,
in blocks from under a second to tens of seconds long. Raw wall times
inherit that spread. So an untraced run samples a fixed reference loop
every INTERVAL_S seconds from a SIGALRM handler, also while an operation
runs, and scales each operation's time by NOMINAL_S over the mean
reference time sampled during it (widened by WINDOW_S on both sides). The
result reads as seconds on a machine where the reference loop takes
NOMINAL_S. The loop uses only the standard library, so a change to the
package cannot move it, and time spent in the handler is taken out of
every measured interval through clock().
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.2
WINDOW_S = 0.5
NOMINAL_S = 0.003


def reference():
    """Fixed work shaped like the package's: small Fractions, tuples, dicts."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 1000):
        acc += Fraction(i % 37 - 18, i % 11 + 1)
        key = (i % 53, (i * 7) % 31)
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


class SpeedProbe:
    """Samples reference() on a wall-clock timer while started."""

    def __init__(self):
        self.starts = []        # perf_counter() at each sample's start
        self.durations = []     # seconds the sample took
        self.spent = 0.0        # seconds spent in the handler so far
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() that stands still while the handler runs."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample landed between the reads
                return now - spent

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean reference time sampled in the wall-clock
        interval [start - WINDOW_S, end + WINDOW_S]; the nearest sample
        when none falls inside."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            window = [self.durations[min(lo, len(self.durations) - 1)]]
        return NOMINAL_S * len(window) / sum(window)

    def median_reference(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2]
