"""Machine-speed probes that turn wall times into times at a reference speed.

On a 2-vCPU virtual machine the speed of plain Python code drifted by up to
1.7x for seconds at a time, with CPU time drifting along, so every measured
latency is scaled by how long a fixed task took around it.  The tasks share
no code with latinplex, so a change to it cannot move them.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from statistics import median
from time import perf_counter

_PROBE_ROWS = [[(i + j) % 6 + 1 for j in range(6)] for i in range(6)]
PROBE_REF_S = 0.0007  # probe time in the reference machine state (see README)
PROBE_EVERY_S = 0.02  # CPU time for the timer, wall time before a query
PROBE_WINDOW_S = 0.25  # short against the seconds a speed state lasts


def probe() -> float:
    """Time a fixed pure-Python task: the naive transversal count of the
    order-6 cyclic square.  It shares no code with latinplex."""
    t0 = perf_counter()
    count = 0
    for perm in itertools.permutations(range(6)):
        if len({_PROBE_ROWS[i][perm[i]] for i in range(6)}) == 6:
            count += 1
    return perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed from inside the measuring thread.

    A fixed task `fn` is timed before any query that starts `every` seconds
    after the last sample and, with `timer`, from a CPU-time interval timer
    whose handler runs between bytecodes of the main thread, in the middle of
    long queries too.  `scale` turns a query's wall time into seconds at the
    speed where `fn` takes `ref` seconds."""

    def __init__(self, fn=probe, ref: float = PROBE_REF_S, every: float = PROBE_EVERY_S,
                 timer: bool = True):
        self.fn, self.ref, self.every, self.timer = fn, ref, every, timer
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_) -> None:
        start = perf_counter()
        self.durations.append(self.fn())
        self.starts.append(start)

    def due(self) -> bool:
        return perf_counter() - self.starts[-1] > self.every

    def __enter__(self) -> "SpeedProbe":
        if self.timer:
            self._handler = signal.signal(signal.SIGPROF, self.sample)
            signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._handler)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(busy, scaled): the time from t0 to t1 minus the probes run inside
        it, and that time times `ref` over the median probe time within
        PROBE_WINDOW_S of the query."""
        busy = t1 - t0 - sum(self.durations[bisect.bisect_left(self.starts, t0):
                                            bisect.bisect_left(self.starts, t1)])
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        near = self.durations[lo:hi] or self.durations[max(lo - 1, 0):lo + 1]
        return busy, busy * self.ref / median(near)
