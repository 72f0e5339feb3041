"""Machine-speed calibration for timings taken on a shared machine.

The CPU a benchmark gets on a shared host can run the same Python code up
to 1.7x slower for seconds or minutes at a time.  A fixed pure-Python probe
(rational and big-integer arithmetic, tuple slicing and sorting, dict
updates, a generator sum; it uses nothing from ``christoffel``) is timed
every PROBE_INTERVAL_S while a workload runs.  A timing is then reported at
the reference speed, where the probe takes REFERENCE_PROBE_S:

    reference seconds = measured seconds * REFERENCE_PROBE_S / probe seconds

with the probe time taken as the mean of the last probe before the timed
interval and the first probe after it.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PROBE_INTERVAL_S = 0.2
REFERENCE_PROBE_S = 1e-3


def _probe_job() -> int:
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * 3
    t = tuple(range(120))
    sorted((t[i:] + t[:i] for i in range(0, 120, 3)), reverse=True)
    d = {}
    for i in range(400):
        d[i * 7 % 101] = (i, str(i))
    sum(x * x % 7 for x in range(3000))
    return 3 ** 300 * 7 ** 200 // 11 ** 150 + acc.numerator + len(d)


def probe_seconds() -> float:
    """Median of three timed runs of the probe job."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_job()
        runs.append(time.perf_counter() - start)
    return sorted(runs)[1]


class SpeedLog:
    """Probe times of one process, and the reference-speed scaling they give."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def probe(self) -> None:
        self.values.append(probe_seconds())
        self.times.append(time.perf_counter())

    def probe_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def to_reference(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at the reference speed."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        near = [self.values[k] for k in (before, after) if 0 <= k < len(self.values)]
        return seconds * REFERENCE_PROBE_S * len(near) / sum(near)
