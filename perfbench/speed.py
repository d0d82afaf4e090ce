"""Machine-speed probe that scales the end-to-end times.

The CPU speed of a small shared machine can swing by up to 3x within
seconds while other tenants run, and code that is bound by the interpreter,
by memory or by the allocator slows by different amounts.  Three fixed
reference loops, one of each kind, are timed with the garbage collector
off, so that they do not collect the program's objects.  The geometric mean
of their times tracks the op times in proportion; see README.md for the
fitted slopes per workload.  End-to-end times are scaled to the speed at
which that mean is REFERENCE_S.

This module imports numpy only, so the worker can probe before it imports
the program.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

REFERENCE_S = 500e-6
PROBE_INTERVAL_S = 0.05


class SpeedProbe:
    """Times the reference loops; ``times`` holds one geometric mean per probe."""

    def __init__(self):
        self._array = np.random.default_rng(0).random(500_000)  # 4 MB
        self.times: list[float] = []
        self.last = -math.inf

    def _interpreter(self):
        s, a = 0.0, np.arange(4.0)
        for i in range(300):
            s += (i * 0.5) ** 0.5
            a = a * 0.5 + 1.0

    def _memory(self):
        self._array.sum()

    def _allocator(self):
        d = {}
        for i in range(1500):
            d[i] = [float(i)] * 3

    def measure(self) -> float:
        """Append the geometric mean of the loops' best-of-two times.

        Returns the wall time the probe itself took.
        """
        start = time.perf_counter()
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            log_sum = 0.0
            for loop in (self._interpreter, self._memory, self._allocator):
                best = math.inf
                for _ in range(2):
                    t0 = time.perf_counter()
                    loop()
                    best = min(best, time.perf_counter() - t0)
                log_sum += math.log(best)
        finally:
            if gc_enabled:
                gc.enable()
        self.times.append(math.exp(log_sum / 3))
        self.last = time.perf_counter()
        return self.last - start

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_INTERVAL_S
