"""Speed of the box, measured by a fixed reference kernel.

On a small shared host the speed of a CPU drifts by a quarter or more over
minutes as neighbours come and go, which is longer than one run.  The
benchmark therefore samples a reference kernel between commands and reports
every time scaled to the speed at which the kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (kernel time measured around it)

The kernel mixes what the commands spend their time on: small numpy calls
dominated by interpreter overhead, a mid-sized LAPACK eigensolve, a BLAS
product and a pure-Python loop.  It never calls qoneshot, so a change to
the program cannot change it.  Raw times are reported beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on a quiet 2-core x86-64 box with one BLAS thread
NOMINAL_S = 0.005
# back-to-back kernel runs per sample: a fixed count, so how the kernel is
# sampled never depends on how fast the program under test is
SAMPLE_REPS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        small, mid = rng.normal(size=(4, 4)), rng.normal(size=(96, 96))
        self._small, self._mid = small + small.T, mid + mid.T
        self._prod = rng.normal(size=(160, 160))
        # bound now, so that a tracer installed later never sees the kernel
        self._eigh = np.linalg.eigh

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(400):
            self._eigh(self._small)
        self._eigh(self._mid)
        self._prod @ self._prod
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median kernel time over ``SAMPLE_REPS`` back-to-back runs."""
        return statistics.median(self._once() for _ in range(SAMPLE_REPS))


def scale(measured: float, kernel_s: float) -> float:
    return measured * NOMINAL_S / kernel_s
