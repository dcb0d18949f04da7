"""Host-speed calibration for wall-clock timings.

On a shared host the speed of a fixed piece of pure-Python code drifts
by far more than the effects the benchmark has to resolve, and process
CPU time drifts with it, so neither raw wall time nor CPU time is a
steady ruler.  Before every timed call into the system the harness runs
a fixed integer loop while the system is idle, and scales the call's
wall time by ``(nominal / observed) ** EXPONENT``, where ``observed`` is
the rolling median of the last few kernel times.  The scaled figures
read as if the host ran the kernel in exactly ``nominal`` seconds.  The
kernel runs only while the system under test is idle, so the engine's
own work never lands inside it; a change to the engine moves the scale
only through side effects such as the cache state it leaves behind.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import List

#: Loop length of the kernel: about 0.1-0.3 ms of interpreter work.
KERNEL_LOOPS = 2000

#: Kernel times the rolling median is taken over.
WINDOW = 7

#: Power the kernel's nominal/observed ratio is raised to.  It is above
#: 1 because host contention slows the engine's pointer-heavy code more
#: than the tight integer loop: on the 2-CPU host the benchmark was
#: tuned on, the engine's time moved as the kernel's to the power of
#: about 1.5.  Over ten 15 s runs per workload (seeds 301-310), the
#: spread (IQR / median) of events_per_s was 0.164/0.076/0.167 with
#: exponent 1 and 0.043/0.041/0.098 with 1.5 (network, micromobility,
#: pole-service); README.md has the full comparison.
EXPONENT = 1.5


def kernel() -> int:
    """A fixed pure-Python integer loop.

    Small ints are not tracked by the garbage collector, so the loop
    never triggers a collection that would charge unrelated work to it.
    """
    x = 0
    for i in range(KERNEL_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return x


class Calibrator:
    """Rolling kernel timings and the scale factor they imply."""

    def __init__(self, nominal_seconds: float):
        if nominal_seconds <= 0:
            raise ValueError("the nominal kernel time must be positive")
        self.nominal = nominal_seconds
        self._recent: deque = deque(maxlen=WINDOW)
        #: Every kernel time observed, for the diagnostics line.
        self.history: List[float] = []

    def observe(self, seconds: float) -> None:
        self._recent.append(seconds)
        self.history.append(seconds)

    def tick(self) -> float:
        """Time the kernel once and return the scale to apply to the
        call that follows."""
        started = time.perf_counter()
        kernel()
        self.observe(time.perf_counter() - started)
        return self.scale()

    def scale(self) -> float:
        if not self._recent:
            return 1.0
        return (self.nominal / statistics.median(self._recent)) ** EXPONENT

    def median_kernel(self) -> float:
        return statistics.median(self.history) if self.history else 0.0

    def run_scale(self) -> float:
        """The scale implied by the whole run's median kernel time."""
        median = self.median_kernel()
        return (self.nominal / median) ** EXPONENT if median else 1.0
