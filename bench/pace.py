"""Machine-speed probes, so that timings survive a host whose speed drifts.

On a shared 2-CPU host the same code can run up to twice as slowly for
tens of seconds at a time, with almost no steal time and no other process
in sight: the slowdown comes from outside the machine, and it left a
run-to-run spread of 20% that hides any change worth measuring. So the run
times a short fixed probe (a Python loop, attribute reads over scattered
objects, small numpy products and a small CSV parse: the kinds of work
lmflows does) in the main thread, between operations and never while one
runs. Before an operation it takes one reading for each ``INTERVAL_S``
that has passed since the last one (at most ``CATCH_UP`` at a time), so a
long operation is followed by several readings; the run also takes
readings after the import, after each set-up and when it ends. A probe
reading therefore depends on the host alone, not on what the program under
test does. Each operation's time is multiplied by ``REFERENCE_S`` over the
mean of the readings taken within ``WINDOW_S`` of it, so reported times are
seconds at the probe's reference speed. The mean, not the median: an
operation's time adds up the cost of each moment it runs, fast and slow
spells alike. The run scales only the operations whose time follows the
probe (run.py names them). Raw times and probes are kept in the run record.
"""

import bisect
import csv
import dataclasses
import io
import random
import re
import statistics
import time

import numpy as np

REFERENCE_S = 0.0022  # the probe's time on an uncontended core of a 2-vCPU x86-64 VM
INTERVAL_S = 0.2
CATCH_UP = 10         # most readings taken at once, after a long operation
BURST = 3             # probes per reading; the reading is their median
WINDOW_S = 1.0


_QUARTER = re.compile(r"^(\d{4})\.([1-4])$")


@dataclasses.dataclass(frozen=True)
class _Row:
    person: str
    quarter: tuple
    weight: float


class _Item:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


class Pace:
    """Probe readings taken between operations, and the scale they give each operation."""

    def __init__(self):
        rng = random.Random(0)
        self._items = [_Item(rng.random()) for _ in range(5000)]
        rng.shuffle(self._items)
        self._matrix = np.full((7, 7), 1.0 / 7.0)
        self._lines = "".join(f"P{i:06d},2019.{i % 4 + 1},2019.{i % 3 + 1},EDU,TE,{15 + i % 20},F,1,"
                              f"SOUTH,{rng.random() * 1000:.2f}\n" for i in range(200))
        self.times: list[float] = []   # reading midpoints, increasing
        self.probes: list[float] = []  # reading durations

    def _probe_once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i % 7
        acc = 0.0
        for item in self._items:
            acc += item.x
        v = np.ones(7)
        for _ in range(300):
            v = self._matrix @ v
        rows = [_Row(r[0], _QUARTER.match(r[1]).groups(), float(r[-1]))
                for r in csv.reader(io.StringIO(self._lines))]
        return time.perf_counter() - t0

    def probe(self) -> None:
        """Take one reading now. Call it only while no timed operation runs."""
        t0 = time.perf_counter()
        reading = statistics.median(self._probe_once() for _ in range(BURST))
        self.times.append((t0 + time.perf_counter()) / 2)
        self.probes.append(reading)

    def between(self) -> None:
        """Take one reading for each ``INTERVAL_S`` since the last one."""
        due = CATCH_UP if not self.times else int((time.perf_counter() - self.times[-1]) / INTERVAL_S)
        for _ in range(min(due, CATCH_UP)):
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reading within ``WINDOW_S`` of [start, end].

        With no reading that close, the nearest reading before and after count.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REFERENCE_S / statistics.fmean(self.probes[lo:hi])

    def speed(self) -> float:
        """Machine speed over the run against the reference: 0.5 means twice as slow."""
        return REFERENCE_S / statistics.median(self.probes)
