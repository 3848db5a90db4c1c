"""Machine speed, measured by a fixed kernel timed between items.

The 2-vCPU cloud VM this benchmark was tuned on switches, for seconds to
minutes at a time, between speeds up to 1.8x apart; thread CPU time slows
with wall time, so neither clock hides it.  A 30-second run that lands in a
slow spell reads up to 1.8x slower than one that does not, and ten runs of
unchanged code spread past any useful bound.

So after every item, outside the timed interval, the runner times a few
repetitions of ``kernel``: a schoolbook product of two fixed 48-term lists
of Python ints, which uses nothing from arclift, so no change to the
library can move it.  Measured in 3-second windows on that VM, arclift
calls of every workload tracked the kernel's time with a slope near 1: the
ratio of a call's time to the kernel's moved by under 10 percent between
speeds, while either time alone moved by up to 1.8x.  Each item's latency
is scaled by ``REF_S / (the median kernel time within WINDOW_S of the
item)``, which gives its latency at the speed where the kernel takes
``REF_S``, about that VM's usual fast speed.  Raw wall times are reported
next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 125e-6
WINDOW_S = 0.5
MIN_SAMPLES = 5
TERMS = 48
_A = [(i * 7919) % 101 - 50 for i in range(TERMS)]
_B = [(i * 104729) % 97 - 48 for i in range(TERMS)]


def kernel():
    out = [0] * TERMS
    for i, a in enumerate(_A):
        for j in range(TERMS - i):
            out[i + j] += a * _B[j]
    return out


def time_kernel(reps):
    """Kernel times of ``reps`` back-to-back repetitions, with their end times."""
    clock = time.perf_counter
    samples = []
    for _ in range(reps):
        t0 = clock()
        kernel()
        t1 = clock()
        samples.append((t1, t1 - t0))
    return samples


def reps_after(latency):
    """Repetitions after an item: one per 20 ms of item time, 1 to 8."""
    return min(8, 1 + int(latency / 0.02))


class SpeedTrack:
    """Kernel samples of one run, in time order, and the scale they give."""

    def __init__(self):
        self.times, self.kernel_s = [], []
        self.item_times = []
        self._cache = {}

    def sample(self, latency):
        for t, dt in time_kernel(reps_after(latency)):
            self.times.append(t)
            self.kernel_s.append(dt)

    def local_kernel_s(self, t):
        """Median kernel time within WINDOW_S of t (at least MIN_SAMPLES)."""
        key = round(t, 2)
        if key not in self._cache:
            times, n = self.times, len(self.times)
            lo = bisect.bisect_left(times, t - WINDOW_S)
            hi = bisect.bisect_right(times, t + WINDOW_S)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
                lo, hi = max(0, lo - 1), min(n, hi + 1)
            self._cache[key] = statistics.median(self.kernel_s[lo:hi])
        return self._cache[key]

    def scale(self, t):
        """Factor that turns a latency measured at time t into one at REF_S."""
        return REF_S / self.local_kernel_s(t)
