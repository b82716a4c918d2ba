"""How fast the core that runs the attempts is, sampled while they run.

On a shared host, other tenants slow a core by up to 1.8× in spells of
seconds to minutes.  The two cores of one guest slow independently, so
only a probe on the attempt's own core sees what the attempt sees.  A
thread of the benchmark process, pinned to that core, times a fixed
pure-Python loop every ``INTERVAL_S`` and costs the attempt about 0.5%
of the core.  ``slowdown`` is the mean loop time over an interval,
divided by ``REFERENCE_S``; an attempt's seconds divided by it are
seconds at the reference speed.

The probe loop is the benchmark's own code, so no change to the program
changes it.  The loop is timed in thread CPU time, which leaves out the
moments the attempt itself holds the core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Time between probe loops.
INTERVAL_S = 0.05
#: The loop's thread CPU time on a quiet core of the 2-core 2.0 GHz Xeon VM
#: the README's baselines come from.  A unit conversion only: a comparison
#: of two versions of the program on one host does not depend on it.
REFERENCE_S = 0.22e-3


def probe_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def attempt_cpu() -> int:
    """The core attempts run on: the highest this process may use."""
    return max(os.sched_getaffinity(0))


class Speedometer:
    """Probe thread pinned to ``cpu``; use as a context manager."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: (perf_counter at the end of a loop, the loop's thread CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        # In a thread, pid 0 names the calling thread only.
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            probe_loop()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def slowdown(self, start: float, end: float) -> Optional[float]:
        """Mean loop time over ``[start, end]`` (perf_counter) / ``REFERENCE_S``."""
        inside = [d for t, d in list(self.samples) if start <= t <= end]
        return statistics.fmean(inside) / REFERENCE_S if inside else None
