"""Reference seconds: wall time scaled by the machine's speed of the moment.

A shared 2-core VM runs the same code at speeds that differ by up to
1.7x, in episodes of seconds to minutes, and a fixed pure-Python loop
slows by about the same factor as the workloads.  While a ``RefClock`` runs,
a SIGALRM handler times that loop every ``PERIOD`` seconds.  Between two
samples the machine's speed is taken as the mean of theirs; one wall
second at speed ``REF_LOOP_S / loop time`` counts that many reference
seconds, and the handler's own time counts none.  A change to the
program moves reference seconds by the same factor as wall seconds: the
loop does not call it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.25
LOOP_ITERS = 40_000
# The loop's time at the reference speed (about its time on an idle
# 2-core Xeon of the baseline).
REF_LOOP_S = 2.5e-3


def _loop_seconds():
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP_ITERS):
        s += i * i
    return time.perf_counter() - t0


class RefClock:
    """Samples speed while running; converts perf_counter intervals after."""

    def __init__(self):
        self.samples = []   # (handler start, handler end, speed)

    def _sample(self, *_):
        start = time.perf_counter()
        speed = REF_LOOP_S / _loop_seconds()
        self.samples.append((start, time.perf_counter(), speed))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # One loop's time varies by about 10% from sample to sample, so
        # each speed is the median of five neighbouring samples (1.25 s),
        # still short beside the episodes.  Reference time is piecewise
        # linear in wall time: flat over each handler, at the mean speed
        # of its two samples in between.
        raw = [speed for _, _, speed in self.samples]
        speeds = [statistics.median(raw[max(0, i - 2):i + 3]) for i in range(len(raw))]
        walls, refs = [self.samples[0][0]], [0.0]
        for i, (start, end, _) in enumerate(self.samples):
            if i:
                mean = 0.5 * (speeds[i - 1] + speeds[i])
                refs.append(refs[-1] + (start - walls[-1]) * mean)
                walls.append(start)
            walls.append(end)
            refs.append(refs[-1])
        self._walls, self._refs = np.asarray(walls), np.asarray(refs)
        return False

    def seconds(self, t0, t1):
        """Reference seconds between two perf_counter readings taken while
        the clock ran."""
        return float(np.interp(t1, self._walls, self._refs)
                     - np.interp(t0, self._walls, self._refs))
