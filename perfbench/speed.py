"""Machine-speed calibration for timing on a host whose CPU speed drifts.

On a shared virtual machine the same Python work can take 1.7x longer in one
ten-second window than in the next, because of what other guests run. A
short fixed loop, independent of specnorm, is timed between operations at
most every INTERVAL_S, as the median of _SAMPLES runs. Each operation's
latency is rescaled by the loop times taken just before and just after it, into reference seconds: the time the
operation would take at the speed where one loop takes REF_LOOP_S.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_LOOP_S = 1e-3
INTERVAL_S = 0.25
_ITERATIONS = 45
_SAMPLES = 3  # loops per calibration; one loop alone jitters by about 8%
_MATRIX = np.full((8, 8), 0.5 + 0.25j) + np.eye(8)


def loop_seconds() -> float:
    """Time one calibration loop: small numpy calls and Python scalar work,
    the same mix as the package's Jacobi and QR sweeps."""
    start = perf_counter()
    total = 0.0
    for _ in range(_ITERATIONS):
        g = _MATRIX.conj().T @ _MATRIX
        d = np.sqrt(np.abs(np.diag(g).real))
        for p in range(8):
            for q in range(p + 1, 8):
                total += abs(g[p, q]) / (d[p] * d[q])
    return perf_counter() - start


class SpeedLog:
    """Calibration loops timed during a run, as (end time, loop seconds)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def calibrate(self) -> None:
        loop = statistics.median(loop_seconds() for _ in range(_SAMPLES))
        self.times.append(perf_counter())
        self.loops.append(loop)

    def maybe_calibrate(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > INTERVAL_S:
            self.calibrate()

    def to_reference(self, start: float, seconds: float) -> float:
        """Rescale `seconds` of work that began at `start` to reference seconds."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, start + seconds), len(self.times) - 1)
        loop = (self.loops[before] + self.loops[after]) / 2.0
        return seconds * REF_LOOP_S / loop
