"""Reference-speed time, for a machine whose speed will not hold still.

On the 2-core VM the benchmark was defined on, the same pure-Python work
takes anywhere from 1x to 2x as long from one few-second stretch to the
next, and throughput medians of two ten-run sets drifted apart by a quarter.
Wall-clock figures that move that much cannot be gated.  So the benchmark
samples a fixed pure-Python reference loop between items, at least every
CADENCE_S, and expresses each stretch of wall time in reference seconds:

    reference seconds = wall seconds * REF_NOMINAL_S / reference loop time

averaging the samples on either side of the stretch.  A reference second is
the time the machine takes for a fixed amount of interpreter work when the
reference loop takes REF_NOMINAL_S, which it does here at full speed.  A
faster quivrep shows up as fewer reference seconds; a slower machine does
not.  The loop uses no quivrep code, so no change to the library moves it.
Set-up samples, which run in child processes, are scaled by the loop run
in the child itself (run.py).  Raw wall-clock figures are still printed
beside the reference ones.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 50_000
REF_NOMINAL_S = 0.010
CADENCE_S = 0.5


def reference_loop() -> float:
    """Wall time of a fixed mix of integer arithmetic, tuple building and
    dict stores, the operations quivrep's own Python code is made of."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for k in range(REF_ITERATIONS):
        acc += k * k % 7
        table[(k & 255, k % 3)] = acc
    return time.perf_counter() - t0


class RefClock:
    """Reference-loop samples taken between timed stretches."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(reference_loop())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= CADENCE_S:
            self.sample()

    def scale(self, before: int) -> float:
        """Reference seconds per wall second for a stretch that lies between
        sample ``before`` and the one after it (or the last, if none yet)."""
        after = min(before + 1, len(self.samples) - 1)
        return 2 * REF_NOMINAL_S / (self.samples[before] + self.samples[after])
