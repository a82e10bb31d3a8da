"""A fixed reference loop that measures how fast the machine is right now.

On a shared VM the same code runs 30-60% slower in some seconds than in
others, and wall and CPU time move together, so neither longer runs nor CPU
time steady the figures. While a workload runs, a wall-clock timer runs this
loop every PERIOD_S, between bytecodes of whatever is running, so long ops
are sampled while they run. The time spent in the loop is taken out of the
op it interrupted. Each op's time is then scaled by REF_NS / (the median
loop time within half a second of the op): a figure reads as milliseconds
on a machine where the loop takes REF_NS. The loop is pure Python over the
same kinds of work as the program (JSON, dicts, strings, small objects,
heaps, sorting) and calls nothing in l2risk. It runs with the cyclic
garbage collector off, so no collection walks the program's heap inside it,
and it frees all it allocates, so it leaves the collector's counts as they
were: no change to the program's code, heap or collector settings moves it.
Never change it or REF_NS: every calibrated figure depends on them.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

# Median loop time, collector off, on the reference box (2-vCPU Intel Xeon
# VM at 2.1 GHz, Python 3.11.7) when the benchmark was defined.
REF_NS = 4_400_000
PERIOD_S = 0.04  # one loop per 40 ms of wall time, about a tenth of it
WINDOW_NS = 500_000_000  # loops this close to an op calibrate it
MIN_LOOPS = 5

_rng = random.Random(1)
_TEXT = json.dumps(
    [
        {
            "id": f"p{i}",
            "name": f"Project {i}",
            "risks": [
                {"name": f"r{j}", "value": _rng.choice("abcdef") * 5, "n": _rng.randrange(1_000)}
                for j in range(6)
            ],
        }
        for i in range(150)
    ]
)


@dataclass(frozen=True)
class _Row:
    key: tuple
    label: str
    n: int


def reference_op() -> int:
    doc = json.loads(_TEXT)
    totals: dict = {}
    rows = []
    heap: list = []
    for project in doc:
        for risk in project["risks"]:
            key = (risk["name"], risk["value"])
            totals[key] = totals.get(key, 0) + risk["n"]
            rows.append(_Row(key, f"{project['id']}:{risk['name']}={risk['value']}", risk["n"]))
            heapq.heappush(heap, (risk["n"], len(rows)))
    while heap:
        heapq.heappop(heap)
    out = json.dumps([r.label for r in sorted(rows, key=lambda r: (r.n, r.label))])
    return len(out) + len(sorted(totals.items()))


def timed_reference() -> tuple[int, int]:
    """Run reference_op once with the collector off; return (start, ns)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        reference_op()
        return t0, perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Runs the reference loop on a SIGALRM timer while ``running``."""

    def __init__(self) -> None:
        self.at: list[int] = []  # start of each loop, ascending
        self.ns: list[int] = []
        self._cum = [0]  # _cum[i]: time in the first i loops
        for _ in range(3):  # warm-up, not recorded
            timed_reference()

    def _tick(self, signum, frame) -> None:
        t0, ns = timed_reference()
        self.at.append(t0)
        self.ns.append(ns)
        self._cum.append(self._cum[-1] + ns)

    def paused_between(self, start: int, end: int) -> int:
        """Time the loop took out of the interval [start, end) of perf_counter_ns.
        A loop runs in the main thread, so it lies wholly inside or outside."""
        return self._cum[bisect_left(self.at, end)] - self._cum[bisect_left(self.at, start)]

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from this run's time to reference-machine time."""
        return REF_NS / statistics.median(self.ns)

    def scale_at(self, start: int, end: int) -> float:
        """The factor for an op that ran from start to end (perf_counter_ns):
        from the loops within WINDOW_NS of it, or the MIN_LOOPS nearest."""
        lo = bisect_left(self.at, start - WINDOW_NS)
        hi = bisect_right(self.at, end + WINDOW_NS)
        if hi - lo < MIN_LOOPS:
            lo = max(0, min((lo + hi - MIN_LOOPS) // 2, len(self.ns) - MIN_LOOPS))
            hi = lo + MIN_LOOPS
        return REF_NS / statistics.median(self.ns[lo:hi])
