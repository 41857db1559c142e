"""Time at reference CPU speed.

The host's cores switch between a fast and a slow state (about 1.7x apart in
interpreted code), per core and from sub-second to minute scales, so the raw
wall time of one workload spread by 10-44% (quartile distance over median)
across ten runs on a 2-vCPU Xeon box.  A SIGALRM handler runs a fixed kernel
every ``INTERVAL_S`` and times it; the mean kernel time over a pass measures
the speed the pass ran at, and

    scaled = (raw - time spent in the kernel) * REFERENCE_S / mean kernel time

is the time the pass would have taken at the speed where one kernel takes
``REFERENCE_S``.  The kernel does not depend on the code under test, so a
change to the program moves ``scaled`` exactly as it moves raw time.  A
pure-Python kernel tracked the workloads better than one mixing in small NumPy
products: the worst quartile spread over ten runs was 0.10 against 0.16.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 4e-4  # kernel time in the slow state of a 2-vCPU Xeon box


def kernel() -> float:
    """About 0.3 ms of interpreted float arithmetic; sampling costs under 2% of the time."""
    x = 0.0
    for i in range(4000):
        x = x * 0.5 + i
    return x


class SpeedSampler:
    """Times ``kernel`` on every SIGALRM while active; main thread only."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, seconds: float, since: int) -> tuple[float, float]:
        """(scaled seconds, speed factor) for an interval that began at ``mark() == since``.

        The speed factor is mean kernel time over ``REFERENCE_S``: above 1 the
        core ran slower than the reference.  An interval too short to hold a
        sample borrows every sample taken so far.
        """
        inside = self.samples[since:]
        window = inside or self.samples
        if not window:
            return seconds, 1.0
        factor = statistics.fmean(window) / REFERENCE_S
        return (seconds - sum(inside)) / factor, factor
