"""Latency recorders for hardware models and experiment harnesses.

Control-plane statistics tables (PARD Fig. 2) keep their windowed
per-DS-id counts as plain ints beside the tables themselves (see
:mod:`repro.cache.control_plane` and :mod:`repro.dram.control_plane`).
A telemetry :class:`repro.telemetry.registry.Histogram` is a view over
recorders: it reads their samples at snapshot time and keeps none of its
own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Optional


class LatencyRecorder:
    """Records latency samples and reports mean/percentiles/CDF.

    Used both by hardware models (memory queueing delay, Fig. 11) and by
    workloads (memcached response times, Fig. 8).

    The recorder sits on per-request hot paths, so recording a sample is
    one ``samples.append``; a hot caller may append to :attr:`samples`
    itself and skip the call (the memory controller does). The summary
    statistics are caught up lazily: the first read after new samples
    folds them into the running sum and min/max in sample order, with
    the same float additions as folding each at record time, so
    ``mean``/``min``/``max``/``total`` are bit-identical to an eager
    recorder and cost O(new samples). Percentile and CDF queries sort
    once and reuse the sorted view until the next sample arrives.
    :attr:`samples` is append-only and stays the same list object for
    the recorder's lifetime.
    """

    __slots__ = ("name", "samples", "_sum", "_min", "_max", "_folded", "_ordered_cache")

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: list[float] = []
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._folded = 0  # samples[:_folded] are in _sum/_min/_max
        self._ordered_cache: Optional[list[float]] = None

    def record(self, value: float) -> None:
        self.samples.append(float(value))

    def _catch_up(self) -> None:
        samples = self.samples
        if self._folded == len(samples):
            return
        total, low, high = self._sum, self._min, self._max
        for value in islice(samples, self._folded, None):
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self._sum, self._min, self._max = total, low, high
        self._folded = len(samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of all recorded samples, in recording order."""
        self._catch_up()
        return self._sum

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        self._catch_up()
        return self._sum / len(self.samples)

    @property
    def max(self) -> Optional[float]:
        """Largest sample, or ``None`` if nothing was recorded (a bare
        0.0 would be indistinguishable from a real zero-latency sample)."""
        if not self.samples:
            return None
        self._catch_up()
        return self._max

    @property
    def min(self) -> Optional[float]:
        """Smallest sample, or ``None`` if nothing was recorded."""
        if not self.samples:
            return None
        self._catch_up()
        return self._min

    def _ordered(self) -> list[float]:
        # Append-only samples: a sorted view as long as them is current.
        ordered = self._ordered_cache
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._ordered_cache = sorted(self.samples)
        return ordered

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high or ordered[low] == ordered[high]:
            return ordered[low]
        frac = rank - low
        return ordered[low] + (ordered[high] - ordered[low]) * frac

    def p95(self) -> float:
        return self.percentile(95.0)

    def cdf(self, points: Iterable[float]) -> list[tuple[float, float]]:
        """Empirical CDF evaluated at ``points``, as ``(point,
        cumulative_fraction)`` pairs."""
        if not self.samples:
            return []
        ordered = self._ordered()
        n = len(ordered)
        result = []
        for point in points:
            result.append((float(point), bisect_right(ordered, point) / n))
        return result

    def __repr__(self) -> str:
        return f"LatencyRecorder({self.name}: n={self.count}, mean={self.mean:.2f})"

