"""Machine-speed normalisation for timings taken on a shared host.

On a small shared machine the speed of one core drifts by a third or more
over tens of seconds, and process CPU time drifts with it, so raw wall
times of identical runs spread too widely to gate a change. SpeedClock
samples the current speed while the benchmark runs: a SIGALRM handler
times a fixed block of permutation-style work (tuple composition and set
membership, the operations psolv spends its time on) every PERIOD seconds.
An interval is then converted to reference seconds: each stretch between
two samples counts as its length times REF_BLOCK_S / (the median block time
of the three samples around its end), with the sampling time itself left
out. On a machine that runs the block in REF_BLOCK_S, reference seconds
equal wall seconds.

The block is part of the benchmark, not of psolv, but it runs in psolv's
interpreter. Garbage collection is paused during the block, so a collection
that psolv's allocations are due for is charged to psolv; the memory
allocator and the CPU caches stay shared. README.md gives the measured
share of a psolv slowdown that comes through the normalisation.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

PERIOD = 0.005
BLOCK_STEPS = 40
REF_BLOCK_S = 100e-6

_DEGREE = 31
_A = tuple((7 * i + 3) % _DEGREE for i in range(_DEGREE))
_B = tuple((5 * i + 1) % _DEGREE for i in range(_DEGREE))


def time_block():
    """Run the fixed block once; returns (end time, duration)."""
    enabled = gc.isenabled()
    gc.disable()  # a pending collection runs after the block, as psolv's
    start = perf_counter()
    a, seen = _A, set()
    for _ in range(BLOCK_STEPS):
        a = tuple(_B[x] for x in a)
        if a not in seen:
            seen.add(a)
    end = perf_counter()
    if enabled:
        gc.enable()
    return end, end - start


class SpeedClock:
    """Speed samples over a `with` block, and reference-second intervals."""

    def __init__(self):
        self.ends = []
        self.costs = []
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:  # the alarm fired during an explicit sample
            return
        self._busy = True
        end, cost = time_block()
        self.ends.append(end)
        self.costs.append(cost)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, t0, t1):
        """Length of [t0, t1] in reference seconds. Needs a sample taken
        after t1; call sample() when an interval ends."""
        i = bisect.bisect_right(self.ends, t0)
        total, prev = 0.0, t0
        while self.ends[i] <= t1:
            end, cost = self.ends[i], self.costs[i]
            total += max(0.0, end - cost - prev) / self._smoothed(i)
            prev = end
            i += 1
        return (total + (t1 - prev) / self._smoothed(i)) * REF_BLOCK_S

    def _smoothed(self, i):
        # one block time alone can be thrown off by an interrupt
        near = sorted(self.costs[max(0, i - 1):i + 2])
        return near[len(near) // 2]

    def speed(self):
        """Median machine speed over the samples, relative to reference."""
        costs = sorted(self.costs)
        return REF_BLOCK_S / costs[len(costs) // 2]
