"""A fixed piece of Python work that gauges how fast the CPU runs just now.

On a shared host the virtual CPUs a benchmark gets run at anything from
about two thirds of their full speed to all of it, and stay at one speed
for seconds to minutes while neighbouring machines load the cores.  Every
timing moves with that speed, by far more than the bounds the benchmark
holds a change to.  So the benchmark times this reference between
operations, on the CPU the operations run on, and reports each time as it
would be on a CPU that runs the reference in ``NOMINAL_S``::

    reported = measured * NOMINAL_S / median(reference times next to it)

The reference is half an interpreter loop over small integers and half
big-integer binomials, the two kinds of work ``ncb`` does; with the loop
alone, closed-form timings still moved with the host by a third as much
as unscaled ones.  It uses only the standard library, so no change to
``ncb`` changes it.  Each run prints the median factor and records every
child's factor in ``.bench_out/``, so the raw times can be recovered.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.012  # about the reference at full speed on a 2-vCPU Xeon VM, Python 3.11
EVERY_S = 0.1  # operation time between two references


def loop_seconds() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    for n in range(3000, 3020):
        math.comb(n, n // 2)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that turns times measured next to samples into reported ones."""
    return NOMINAL_S / statistics.median(samples)


class Gauge:
    """Times the loop between operations, once per ``EVERY_S`` of them."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(loop_seconds())
        self._due = time.perf_counter() + EVERY_S

    def between(self) -> None:
        """Call between two operations."""
        if time.perf_counter() >= self._due:
            self.sample()
