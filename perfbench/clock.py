"""Stage times rescaled to the machine's nominal speed.

The 2-vCPU Xeon VM this benchmark was tuned on switches between two
speeds about 1.7x apart every 10 to 20 seconds; pure-Python and
memory-bound NumPy code both slow down, by somewhat different amounts. A
5 to 20 second training phase can fall in either state or straddle both,
so its raw wall time spread by up to a third across runs.

``ScaledClock`` times a fixed reference task at the start of a stage and
again whenever ``tick`` finds ``RESAMPLE_S`` gone, and counts the wall
time that follows each sample at ``NOMINAL_REFERENCE_S / sample``. The
result reads as seconds at the machine's faster speed. The reference
task's own time is left out. The correction is approximate, because the
reference task cannot slow down by exactly as much as every stage does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference task time on that VM in its faster state; its slower
# state gives about 0.00064.
NOMINAL_REFERENCE_S = 0.00039
RESAMPLE_S = 0.5
# One run of the reference task jitters by a fifth or more; the median of
# five settles it without costing more than 1% of a phase.
RUNS_PER_SAMPLE = 5

_ROW = np.arange(0, 2000, 67)
_USERS = (np.arange(256) * 37) % 2600
_GRADS = np.ones((256, 64))


def _reference_s() -> float:
    """A small mix of the work a training step does: NumPy calls on tiny
    arrays from a Python loop, then a scatter-add into a fresh buffer the
    size of a user table's gradient."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(20):
        np.searchsorted(_ROW, rng.integers(0, 2000, size=1))
    np.add.at(np.zeros((2600, 64)), _USERS, _GRADS)
    return time.perf_counter() - start


class ScaledClock:
    def __init__(self):
        self._scaled = 0.0
        self._mark = 0.0
        self._rate = 1.0
        _reference_s()  # the first run pays one-time costs

    def start(self) -> None:
        self._scaled = 0.0
        self._sample()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._mark >= RESAMPLE_S:
            self._scaled += (now - self._mark) * self._rate
            self._sample()

    def stop(self) -> float:
        """Scaled seconds since ``start``."""
        return self._scaled + (time.perf_counter() - self._mark) * self._rate

    def _sample(self) -> None:
        self._rate = NOMINAL_REFERENCE_S / statistics.median(
            _reference_s() for _ in range(RUNS_PER_SAMPLE))
        self._mark = time.perf_counter()
