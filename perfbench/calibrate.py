"""Host speed probe: a fixed kernel timed between operations.

The shared 2-core host this benchmark runs on changes speed by up to a
factor of two within minutes, far beyond any regression bound, and every
workload slows and speeds up with it.  So the runner times this kernel
between operations and scales each operation's wall time by the kernel's
speed around it: a reported time is the time the operation would have
taken on a host that runs the kernel in `NOMINAL_S` seconds.

The kernel imports nothing from charplab, so no change to the program
moves it.  It does what the engine's hot path does: dict polynomials over
F_p with packed integer exponent keys, multiplied term by term through
field tables, with a heap merge, in pure Python.
"""

from __future__ import annotations

import bisect
import heapq
from time import perf_counter

P = 31
# kernel seconds on a quiet host; only fixes the scale of reported times
NOMINAL_S = 0.003
REPS = 3
INTERVAL_S = 0.25

_MUL = [[a * b % P for b in range(P)] for a in range(P)]
_ADD = [[(a + b) % P for b in range(P)] for a in range(P)]
_F = {(i * 7919 + 13) << (i % 5): 1 + i % (P - 1) for i in range(60)}
_G = {(j * 104729 + 7) << (j % 3): 1 + (3 * j) % (P - 1) for j in range(60)}


def kernel() -> int:
    """One fixed piece of work; returns a checksum that `sample` checks."""
    mul, add = _MUL, _ADD
    out: dict = {}
    for a, ca in _F.items():
        row = mul[ca]
        for b, cb in _G.items():
            k = a + b
            c = row[cb]
            v = out.get(k)
            out[k] = c if v is None else add[v][c]
    heap = [-k for k, v in out.items() if v]
    heapq.heapify(heap)
    total = 0
    while heap:
        total = add[total][out[-heapq.heappop(heap)]]
    return total


CHECKSUM = kernel()


def sample() -> float:
    """Kernel time: the fastest of a few back-to-back runs, so a single
    interrupt does not count."""
    best = float("inf")
    for _ in range(REPS):
        t0 = perf_counter()
        if kernel() != CHECKSUM:
            raise RuntimeError("speed kernel gave a different result")
        best = min(best, perf_counter() - t0)
    return best


class Probe:
    """Kernel samples taken between operations, at most every INTERVAL_S,
    so always right before and right after an operation longer than
    that."""

    def __init__(self):
        self.times: list = []       # perf_counter at each sample
        self.kernel: list = []      # kernel seconds of each sample
        self.last = float("-inf")

    def tick(self) -> None:
        """Call between operations."""
        if perf_counter() - self.last >= INTERVAL_S:
            self._take()

    def close(self) -> None:
        """Call after the last operation."""
        self._take()

    def _take(self) -> None:
        self.times.append(perf_counter())
        self.kernel.append(sample())
        self.last = perf_counter()

    def scale(self, t0: float) -> float:
        """Factor turning the wall time of an operation that started at
        `t0` into nominal time: the nominal kernel time over the mean of
        the last sample taken before the operation and the first taken
        after it."""
        i = bisect.bisect_right(self.times, t0)
        around = self.kernel[max(i - 1, 0):i + 1]
        return NOMINAL_S / (sum(around) / len(around))
