"""Host-speed probe: a fixed pure-Python kernel timed around and inside
every timed sample.

The reference host (a 2-vCPU Xeon VM) runs in two speed states: the
same pure-Python code takes ~1.8x as long in the slow one.  A vCPU
stays in either for a fraction of a second to minutes, and the two
vCPUs switch independently (a probe in another process, on the other
vCPU, does not track the benchmark's thread).  CPU time tracks wall
time and steal is negligible.  Within one process, one cold-search
query took 626 ms in one pass and 1,160 ms in the next; raw metrics of
one workload spread by a quarter from run to run.

So the benchmark times a fixed kernel in the thread that drives the
workload: ``ENDPOINT_RUNS`` times just before and just after every
timed sample (a query, a write, a set-up step), outside its timing,
and once every ``TICK_S`` during the sample from a ``SIGALRM`` handler
whose own time is taken out of the sample.  It reports the sample
scaled to the reference speed::

    scaled = raw * REFERENCE_S / mean(kernel times around and inside)

Over three passes of cold-search, scaling by the readings just before
and after each query brought the per-query coefficient of variation
from 0.23 (raw) to 0.05.  The kernel imports nothing of the program
under test, so a change to the program cannot change it.  Raw times
stay in each run's report next to the scaled ones.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Tuple

#: Kernel runs before and after a sample.
ENDPOINT_RUNS = 3

#: Period of the in-sample kernel runs (~1% of the sample's time).
TICK_S = 0.05

#: A sample shorter than this is not followed by a probe: the reading
#: before it is at most that old, and back-to-back cache hits are not
#: run on caches the kernel just churned.
MIN_PROBED_S = 0.001

#: Mean kernel time on the reference host in its fast state (2-vCPU
#: Xeon, Python 3.11): the speed every scaled time is expressed at.
REFERENCE_S = 0.00031


def kernel() -> float:
    """Seconds one run of the fixed kernel takes: heap and dict work in
    the mix a branch-and-bound search loop does."""
    start = time.perf_counter()
    heap: List[tuple] = []
    seen = {}
    for i in range(500):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key, i))
        seen[key] = seen.get(key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel readings of one run, taken in the calling (main) thread.

    ``inside=False`` keeps to the readings around each sample; the
    traced run uses it so that no kernel run lands inside a layer span.
    """

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.readings: List[float] = []
        #: (start, seconds) of each in-sample handler run of the current
        #: measurement.
        self._ticks: List[Tuple[float, float]] = []
        # Installed for the life of the process: a tick raised just
        # before the timer is disarmed may still be handled after it.
        signal.signal(signal.SIGALRM, self._tick)
        self.probe()

    def probe(self) -> None:
        """Time the kernel ``ENDPOINT_RUNS`` times now."""
        self.readings.extend(kernel() for _ in range(ENDPOINT_RUNS))

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(kernel())
        self._ticks.append((start, time.perf_counter() - start))

    def start(self) -> Tuple[int, float]:
        """Start timing a sample; pass the result to :meth:`stop`.

        Main thread only: the in-sample readings come from ``SIGALRM``.
        """
        first = len(self.readings) - ENDPOINT_RUNS
        self._ticks = []
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return first, time.perf_counter()

    def stop(self, mark: Tuple[int, float]) -> Tuple[float, float]:
        """``(seconds, scale)`` of the sample started at ``mark``: its
        wall time less the in-sample handler's, and the factor that
        scales it to the reference speed."""
        end = time.perf_counter()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
        first, start = mark
        elapsed = end - start - sum(
            seconds for at, seconds in self._ticks if start <= at < end
        )
        if elapsed >= MIN_PROBED_S:
            self.probe()
        return elapsed, REFERENCE_S / statistics.fmean(self.readings[first:])
