"""A fixed reference task that measures how fast the machine is right now.

The benchmark runs this script as a child process between hwpoly
requests, about once a second, and scales each measured interval by
``REFERENCE_S`` over the median time of the probes run within
``WINDOW_S`` of it (``Speed``), so a slow spell of a shared host, with
CPU or memory bandwidth taken by neighbours, does not read as a slower
hwpoly.  The task is the benchmark's own code, never
hwpoly's, so a change to hwpoly leaves it alone.

It does what a hwpoly request does: start an interpreter, then exact
Fraction arithmetic over objects read in an order the caches cannot
predict.  On a 2-core VM, over blocks of 24 s, the ratio of hwpoly's
time to the probes' varied about half as much as hwpoly's own time, for
start-up bound (``minpoly``), compute bound (``resolvent``, ``howe``)
and in-process (sweep) requests alike.  A single probe varies by 15 %
from the next, so it is the median of the probes around an interval
that scales it.

    python3 perfbench/probe.py
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Objects in the table and lookups per probe.
TABLE = 20_000
LOOKUPS = 4_000
# The probe's time on a calm 2-core VM (Python 3.11, the machine the
# benchmark was defined on): scaled times read as seconds on that machine.
REFERENCE_S = 0.13
# One probe per this much time between probes, at most MAX_BURST at once.
PROBE_EVERY_S = 1.0
MAX_BURST = 3
# Probes whose midpoints lie this close to an interval scale it; with
# fewer than MIN_NEAR of them, the MIN_NEAR nearest do.
WINDOW_S = 5.0
MIN_NEAR = 3


def make_table(size: int, seed: int = 1311):
    rng = random.Random(seed)
    return [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
            for _ in range(size)]


def work(table, lookups: int, seed: int = 3992) -> int:
    """Exact sums of products of table entries read in a random order."""
    rng = random.Random(seed)
    check = 0
    for _ in range(lookups):
        i = rng.randrange(len(table))
        check += (table[i] * table[i - 1] + table[i - 2]).numerator % 7
    return check


class Speed:
    """Probe runs interleaved with the measured work, and the scale that
    turns a measured interval into seconds at the reference speed."""

    def __init__(self):
        self.probes = []            # (midpoint, seconds)
        self.last = float("-inf")

    def probe(self):
        # A blocking wait: subprocess's wait with a timeout polls, in steps
        # of up to 50 ms, which would round the probe's time to them.
        argv = [sys.executable, str(Path(__file__).resolve())]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        try:
            rc = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if rc != 0:
            raise RuntimeError(f"the speed probe exited {rc}")
        self.last = time.perf_counter()
        self.probes.append(((t0 + self.last) / 2, self.last - t0))

    def tick(self):
        """One probe per PROBE_EVERY_S since the last probe ended."""
        due = (time.perf_counter() - self.last) / PROBE_EVERY_S
        for _ in range(int(min(due, MAX_BURST))):
            self.probe()

    def median_s(self):
        return statistics.median(s for _, s in self.probes)

    def scale(self, start, end):
        """REFERENCE_S over the median time of the probes around
        [start, end]."""
        near = [s for mid, s in self.probes
                if start - WINDOW_S <= mid <= end + WINDOW_S]
        if len(near) < MIN_NEAR:
            centre = (start + end) / 2
            nearest = sorted(self.probes, key=lambda p: abs(p[0] - centre))
            near = [s for _, s in nearest[:MIN_NEAR]]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start, end):
        """Seconds from start to end at the reference speed."""
        return (end - start) * self.scale(start, end)


if __name__ == "__main__":
    print(work(make_table(TABLE), LOOKUPS))
