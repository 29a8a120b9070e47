"""Host-speed reference for the end-to-end times.

The benchmark shares a 2-vCPU virtual machine with other tenants, and the
speed of the same pure-Python code drifts by up to half over minutes and by
a tenth from one second to the next (a fixed loop took 1.4 to 2.5 ms per
call within four minutes).  A run therefore interleaves a fixed reference
kernel, which uses no orderkit code, with its operations: a sample after
every SAMPLE_EVERY seconds of operation time, at the end of every round and
around every set-up.  ``scale_at`` takes the NEAREST samples to a moment of
the run and converts a time measured then to the time it would have taken on
a host where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference speed: about this machine's speed
# when it is least loaded (the kernel took 3.6 to 6.1 ms over its drift).
NOMINAL_S = 0.004
SAMPLE_EVERY = 0.1
NEAREST = 16


def kernel():
    """Fraction arithmetic, tuple-keyed dict updates and small integer
    matrix products: the mix orderkit's exact linear algebra runs on."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    counts = {}
    for i in range(2000):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + i * i % 97
    rows = [[(i * j) % 11 - 5 for j in range(6)] for i in range(6)]
    for _ in range(30):
        rows = [[sum(a * b for a, b in zip(r, c)) % 1009 for c in zip(*rows)]
                for r in rows]
    return acc, len(counts), rows[0][0]


class HostSpeed:
    def __init__(self):
        self.times = []      # midpoint of each kernel sample
        self.kernel = []     # its duration
        self._since = 0.0

    def sample(self, n=1):
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            kernel()
            t1 = clock()
            self.times.append((t0 + t1) / 2)
            self.kernel.append(t1 - t0)

    def after_operation(self, seconds):
        """Account for one operation's time; sample when enough has passed."""
        self._since += seconds
        if self._since >= SAMPLE_EVERY:
            self._since = 0.0
            self.sample()

    def kernel_s(self):
        return statistics.fmean(self.kernel)

    def scale_at(self, t):
        """Factor from seconds measured around time ``t`` to seconds at the
        reference speed, from the NEAREST kernel samples in time."""
        n = len(self.times)
        lo = hi = bisect.bisect(self.times, t)
        while hi - lo < min(NEAREST, n):
            if hi == n or (lo > 0 and t - self.times[lo - 1]
                           <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.fmean(self.kernel[lo:hi])
