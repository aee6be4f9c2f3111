"""Machine-speed probe for scaling measured times.

The 2-vCPU virtual machines this benchmark was built on change speed
by up to 1.8x for minutes at a time (a fixed pure-Python loop measured
there ranged over 1.8x within one minute, with the process on CPU
98% of the time), so raw times of two runs minutes apart differ by
more than any change worth detecting. The benchmark therefore runs a
fixed Fraction-arithmetic task of about a millisecond every
`INTERVAL_S` seconds between ops, and scales every measured time by
NOMINAL_MS / (the probe's time at that moment, median of the nearest
probes). Times are thus reported at the speed where the probe takes
NOMINAL_MS. The raw times are printed as well.

The probe is benchmark code, so no change to harmonica changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from random import Random

NOMINAL_MS = 1.0
INTERVAL_S = 0.1
WINDOW = 2  # probes on each side that the speed estimate uses


def probe_task() -> Fraction:
    rng = Random(7)
    acc = Fraction(0)
    for _ in range(40):
        a, b, c, d = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(4))
        acc += a * d - b * c
    return acc


def probe_ms() -> float:
    t0 = time.perf_counter_ns()
    probe_task()
    return (time.perf_counter_ns() - t0) / 1e6


class SpeedProbe:
    """Probes at most every INTERVAL_S seconds; scale(i) converts a time
    measured after probe i to the nominal speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> int:
        """Probe if the last probe is older than INTERVAL_S; return the
        index of the latest probe."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(probe_ms())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        near = self.samples[max(0, index - WINDOW) : index + WINDOW + 1]
        return NOMINAL_MS / statistics.median(near)
