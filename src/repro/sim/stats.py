"""Latency recorders for hardware models and experiment harnesses.

Control-plane statistics tables (PARD Fig. 2) keep their windowed
per-DS-id counts as plain ints beside the tables themselves (see
:mod:`repro.cache.control_plane` and :mod:`repro.dram.control_plane`).
Plain counters are :class:`repro.telemetry.Counter`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Optional


class LatencyRecorder:
    """Records latency samples and reports mean/percentiles/CDF.

    Used both by hardware models (memory queueing delay, Fig. 11) and by
    workloads (memcached response times, Fig. 8).

    The recorder sits on per-request hot paths, so the summary statistics
    are maintained incrementally: ``record`` updates a running sum and
    min/max, making ``mean``/``min``/``max``/``total`` O(1) reads instead
    of full-list reductions. Percentile and CDF queries sort once and
    reuse the sorted view until the next sample arrives.
    """

    __slots__ = ("name", "samples", "_sum", "_min", "_max", "_ordered_cache")

    def __init__(self, name: str = "latency"):
        self.name = name
        self.samples: list[float] = []
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._ordered_cache: Optional[list[float]] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.samples.append(value)
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._ordered_cache = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of all recorded samples (incrementally maintained)."""
        return self._sum

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return self._sum / len(self.samples)

    @property
    def max(self) -> Optional[float]:
        """Largest sample, or ``None`` if nothing was recorded (a bare
        0.0 would be indistinguishable from a real zero-latency sample)."""
        return self._max if self.samples else None

    @property
    def min(self) -> Optional[float]:
        """Smallest sample, or ``None`` if nothing was recorded."""
        return self._min if self.samples else None

    def _ordered(self) -> list[float]:
        ordered = self._ordered_cache
        if ordered is None:
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

    def p99(self) -> float:
        return self.percentile(99.0)

    def cdf(self, points: Optional[Iterable[float]] = None) -> list[tuple[float, float]]:
        """Empirical CDF as ``(value, cumulative_fraction)`` pairs.

        With ``points`` given, evaluates the CDF at those values;
        otherwise returns one step per distinct sample.
        """
        if not self.samples:
            return []
        ordered = self._ordered()
        n = len(ordered)
        if points is None:
            result = []
            seen = 0
            previous = None
            for value in ordered:
                seen += 1
                if value != previous:
                    result.append((value, seen / n))
                    previous = value
                else:
                    result[-1] = (value, seen / n)
            return result
        result = []
        for point in points:
            result.append((float(point), bisect_right(ordered, point) / n))
        return result

    def reset(self) -> None:
        self.samples.clear()
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._ordered_cache = None

    def __repr__(self) -> str:
        return f"LatencyRecorder({self.name}: n={self.count}, mean={self.mean:.2f})"

