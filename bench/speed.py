"""Machine-speed reference: a fixed loop timed next to every measurement.

On a shared machine the CPU's speed drifts by tens of percent over tens
of seconds, and every wall time measured in that window drifts with it.
The benchmark times this loop, which never calls relgat, right before and
after each measured call, and scales the call's wall time by
REFERENCE_S / (mean of the two loop times). The result is the wall time
the call would have taken had the machine run the loop in REFERENCE_S:
a change to relgat moves it in full, a change in the machine's speed
mostly cancels. Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010  # nominal loop time; fixes the scale of every scaled metric


class MachineSpeed:
    """Times the reference loop; the mix mirrors relgat's: Python, small and large arrays."""

    reference_s = REFERENCE_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((64, 64))
        self._large = rng.standard_normal((512, 1024))
        self.samples: list[float] = []

    def sample(self) -> float:
        """Median of three timings of the loop, so one preemption does not count."""
        seconds = sorted(self._loop() for _ in range(3))[1]
        self.samples.append(seconds)
        return seconds

    def _loop(self) -> float:
        start = time.perf_counter()
        x = self._small
        total = 0
        for i in range(600):
            x = np.tanh(x[:4] @ self._small)
            total += i * i
        for i in range(12000):
            total += i * i
        for _ in range(6):
            y = self._large + 1.0
            y *= 0.5
        return time.perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that maps a wall time measured between two samples to reference speed."""
        return REFERENCE_S / ((before + after) / 2)
