"""Typed metric instruments and the hierarchical metrics registry.

PARD's control planes already keep per-DS-id *statistics tables* (Fig. 2);
this module generalizes that idea to the whole simulated machine. Every
instrument is a read, at snapshot time, of state a component already
keeps: a callback :class:`Gauge` over a counter, or a :class:`Histogram`
with fixed log-spaced buckets over the component's latency recorders.
Instruments live under hierarchical dotted names such as
``llc.ds1.misses`` or ``dram.memctrl.qdelay_cycles``. The registry is
what the JSONL snapshots read; a sweep ships those labelled snapshots,
never the registry itself, so each point's values stay under its own run
label. It is not mounted in the PRM's device file tree: PRM scripts read
statistics through the CPA files under ``/sys/cpa``, whose per-DS-id
cells the firmware also registers here as callback gauges
(``llc.ds1.misses``).

Registering a name again re-points it at the new callback or recorders
(a kind mismatch raises).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import islice
from typing import Callable, Iterable, Optional

_NAME_BAD_CHARS = set("/ \t\n")


def _check_name(name: str) -> str:
    if not name or name.startswith(".") or name.endswith(".") or ".." in name:
        raise ValueError(f"bad metric name {name!r}")
    if any(c in _NAME_BAD_CHARS for c in name):
        raise ValueError(f"metric name {name!r} contains reserved characters")
    return name


class Instrument:
    """Base class: a named, typed metric."""

    kind = "instrument"
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = _check_name(name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}={self.value()})"


class Gauge(Instrument):
    """A point-in-time value read through a callback.

    Callback gauges are the near-zero-cost bridge to counters components
    already maintain (``cache.total_hits``, ``engine.executed_total``):
    nothing happens on the hot path, the value is read at snapshot time.
    """

    kind = "gauge"
    __slots__ = ("_fn",)

    def __init__(self, name: str, fn: Callable[[], float]):
        super().__init__(name)
        self._fn = fn

    def value(self) -> float:
        return self._fn()


class Histogram(Instrument):
    """A histogram view over latency recorders
    (:class:`repro.sim.stats.LatencyRecorder`).

    Bucket upper bounds are ``start * growth**i`` for ``i`` in
    ``range(count)`` plus a final +inf overflow bucket, mirroring
    Prometheus exponential buckets. The recorders are the only copy of
    the samples: every read bins the samples that arrived since the last
    one, and count/sum/min/max come from the recorders themselves, so
    nothing runs per sample on the component's hot path.
    """

    kind = "histogram"
    __slots__ = ("recorders", "bounds", "_counts", "_binned")

    def __init__(
        self,
        name: str,
        recorders: Iterable,
        start: float = 1.0,
        growth: float = 2.0,
        count: int = 24,
    ):
        super().__init__(name)
        if start <= 0 or growth <= 1.0 or count < 1:
            raise ValueError(f"{name}: need start>0, growth>1, count>=1")
        self.recorders = tuple(recorders)
        self.bounds = [start * growth ** i for i in range(count)]
        self._counts = [0] * (count + 1)  # +1 = overflow bucket (le=+inf)
        self._binned = [0] * len(self.recorders)  # samples already counted

    @property
    def counts(self) -> list[int]:
        """Samples per bucket, the last being the +inf overflow bucket."""
        bounds, counts = self.bounds, self._counts
        for i, recorder in enumerate(self.recorders):
            samples = recorder.samples
            for value in islice(samples, self._binned[i], None):
                counts[bisect_left(bounds, value)] += 1
            self._binned[i] = len(samples)
        return counts

    @property
    def count(self) -> int:
        return sum(recorder.count for recorder in self.recorders)

    @property
    def total(self) -> float:
        return sum(recorder.total for recorder in self.recorders)

    @property
    def min(self) -> Optional[float]:
        return min((r.min for r in self.recorders if r.count), default=None)

    @property
    def max(self) -> Optional[float]:
        return max((r.max for r in self.recorders if r.count), default=None)

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, Prometheus-style."""
        out = []
        cumulative = 0
        for bound, c in zip(self.bounds, self.counts):
            cumulative += c
            out.append((bound, cumulative))
        out.append((math.inf, self.count))
        return out

    def value(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [[b, c] for b, c in self.buckets() if b != math.inf],
        }


class MetricsRegistry:
    """Registry of instruments under hierarchical names."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # -- registration -------------------------------------------------------

    def _bind(self, instrument: Instrument) -> Instrument:
        """Register ``instrument``, replacing one of the same kind and name."""
        existing = self._instruments.get(instrument.name)
        if existing is not None and existing.kind != instrument.kind:
            raise TypeError(
                f"{instrument.name} already registered as {existing.kind}, "
                f"requested {instrument.kind}"
            )
        self._instruments[instrument.name] = instrument
        return instrument

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> Gauge:
        """A callback-backed gauge (re-binding an existing name re-points it)."""
        return self._bind(Gauge(name, fn))

    def histogram(
        self,
        name: str,
        recorders: Iterable,
        start: float = 1.0,
        growth: float = 2.0,
        count: int = 24,
    ) -> Histogram:
        """A histogram over ``recorders`` (re-binding a name re-points it)."""
        return self._bind(Histogram(name, recorders, start, growth, count))

    def remove(self, name: str) -> bool:
        """Remove an instrument (e.g. when its LDom is destroyed)."""
        return self._instruments.pop(name, None) is not None

    def snapshot(self) -> dict[str, object]:
        """Current value of every instrument, by name."""
        return {name: inst.value() for name, inst in sorted(self._instruments.items())}
