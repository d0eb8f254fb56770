"""Typed metric instruments and the hierarchical metrics registry.

PARD's control planes already keep per-DS-id *statistics tables* (Fig. 2);
this module generalizes that idea to the whole simulated machine. Every
component registers typed instruments -- :class:`Counter`, callback
:class:`Gauge` and :class:`Histogram` with fixed log-spaced buckets --
under hierarchical dotted names such as ``llc.ds1.misses`` or
``dram.qdelay_cycles``. The registry is what the JSONL snapshots read;
a sweep ships those labelled snapshots, never the registry itself, so
each point's values stay under its own run label. It is not mounted in
the PRM's device file tree: PRM scripts read statistics through the CPA
files under ``/sys/cpa``, whose per-DS-id cells the firmware also
registers here as callback gauges (``llc.ds1.misses``).

Registration is get-or-create: asking twice for the same name returns the
same instrument (a type mismatch raises).
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

    def value(self):
        raise NotImplementedError

    def render(self) -> str:
        """Single-line text form (used by ``repr``)."""
        return str(self.value())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}={self.render()})"


class Counter(Instrument):
    """A monotonically increasing integer counter."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str):
        super().__init__(name)
        self._value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase (got {amount})")
        self._value += amount

    def value(self) -> int:
        return self._value


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
    """A histogram over fixed log-spaced buckets.

    Bucket upper bounds are ``start * growth**i`` for ``i`` in
    ``range(count)`` plus a final +inf overflow bucket, mirroring
    Prometheus exponential buckets. Alongside the bucket counts it keeps
    the exact running count/sum/min/max (the same incremental shape as
    :class:`repro.sim.stats.LatencyRecorder`, which it absorbs for
    metrics that do not need exact percentiles).
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, name: str, start: float = 1.0, growth: float = 2.0, count: int = 24
    ):
        super().__init__(name)
        if start <= 0 or growth <= 1.0 or count < 1:
            raise ValueError(f"{name}: need start>0, growth>1, count>=1")
        self.bounds = [start * growth ** i for i in range(count)]
        self.counts = [0] * (count + 1)  # +1 = overflow bucket (le=+inf)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> Optional[float]:
        return self._min if self._count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self._count else None

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper-bound based)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self._max
        return self._max

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, Prometheus-style."""
        out = []
        cumulative = 0
        for bound, c in zip(self.bounds, self.counts):
            cumulative += c
            out.append((bound, cumulative))
        out.append((math.inf, self._count))
        return out

    def value(self) -> dict:
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "buckets": [[b, c] for b, c in self.buckets() if b != math.inf],
        }

    def render(self) -> str:
        return (
            f"count={self._count} sum={self._sum:.6g} "
            f"mean={self.mean:.6g} p95={self.quantile(0.95):.6g}"
        )


class MetricsRegistry:
    """Get-or-create registry of instruments under hierarchical names."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # -- registration -------------------------------------------------------

    def _get_or_create(self, name: str, factory, cls) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"{name} already registered as {instrument.kind}, "
                    f"requested {cls.kind}"
                )
            return instrument
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge_fn(self, name: str, fn: Callable[[], float]) -> Gauge:
        """A callback-backed gauge (re-binding an existing name re-points it)."""
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, Gauge):
                raise TypeError(f"{name} already registered as {instrument.kind}")
            instrument._fn = fn
            return instrument
        return self._get_or_create(name, lambda: Gauge(name, fn), Gauge)

    def histogram(
        self, name: str, start: float = 1.0, growth: float = 2.0, count: int = 24
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, start, growth, count), Histogram
        )

    def remove(self, name: str) -> bool:
        """Remove an instrument (e.g. when its LDom is destroyed)."""
        return self._instruments.pop(name, None) is not None

    # -- queries ------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def find(self, prefix: str) -> list[Instrument]:
        """Instruments under a hierarchical prefix (``llc`` matches
        ``llc.ds1.misses`` but not ``llcx.foo``)."""
        dotted = prefix + "."
        return [
            inst for name, inst in sorted(self._instruments.items())
            if name == prefix or name.startswith(dotted)
        ]

    def snapshot(self) -> dict[str, object]:
        """Current value of every instrument, by name."""
        return {name: inst.value() for name, inst in sorted(self._instruments.items())}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterable[Instrument]:
        return iter([self._instruments[k] for k in sorted(self._instruments)])

