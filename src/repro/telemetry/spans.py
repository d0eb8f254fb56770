"""Packet-lifecycle spans: per-hop timestamps on sampled tagged requests.

A span follows one packet through the machine -- core issue, L1/L2
lookup, DRAM enqueue/issue/complete, response -- and records a
``(hop_name, time_ps)`` pair at each stage. Spans carry the packet's
DS-id, so finished spans can be queried per DS-id to attribute
tail latency to a stage ("ds1's p99 is queue delay at the memory
controller, not LLC misses").

Sampling is deterministic and counter-based (every Nth eligible packet
starts a span); it never consults an RNG and never changes event
scheduling, so enabling spans cannot perturb the simulated timeline --
the golden determinism test stays byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class Span:
    """Per-hop timestamp trail for one sampled packet."""

    __slots__ = ("ds_id", "packet_id", "kind", "hops")

    def __init__(self, ds_id: int, packet_id: int, kind: str = "mem"):
        self.ds_id = ds_id
        self.packet_id = packet_id
        self.kind = kind
        self.hops: list[tuple[str, int]] = []

    def hop(self, name: str, t_ps: int) -> None:
        self.hops.append((name, t_ps))

    @property
    def duration_ps(self) -> int:
        if len(self.hops) < 2:
            return 0
        return self.hops[-1][1] - self.hops[0][1]

    def hop_durations(self) -> list[tuple[str, int]]:
        """``(segment_name, duration_ps)`` between consecutive hops.

        The segment ending at hop ``b`` reached from hop ``a`` is named
        ``"a->b"``.
        """
        out = []
        for (a_name, a_t), (b_name, b_t) in zip(self.hops, self.hops[1:]):
            out.append((f"{a_name}->{b_name}", b_t - a_t))
        return out

    def to_dict(self) -> dict:
        return {
            "ds_id": self.ds_id,
            "packet_id": self.packet_id,
            "kind": self.kind,
            "hops": [[name, t] for name, t in self.hops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["ds_id"], data["packet_id"], data.get("kind", "mem"))
        span.hops = [(name, t) for name, t in data["hops"]]
        return span

    def __repr__(self) -> str:
        return (
            f"Span(ds{self.ds_id} pkt={self.packet_id} "
            f"hops={len(self.hops)} dur={self.duration_ps}ps)"
        )


class SpanRecorder:
    """Starts spans on a deterministic 1-in-N sample and stores finished ones.

    Storage is bounded (ring semantics: oldest finished spans are evicted
    first) with an explicit ``dropped`` count.
    """

    __slots__ = ("sample_every", "capacity", "finished", "dropped", "_seen", "_started")

    def __init__(self, sample_every: int = 100, capacity: int = 10_000):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_every = sample_every
        self.capacity = capacity
        self.finished: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self._seen = 0      # eligible packets observed
        self._started = 0   # spans actually started

    def maybe_start(self, ds_id: int, packet_id: int, kind: str = "mem") -> Optional[Span]:
        """Return a new span for every Nth call, else None."""
        self._seen += 1
        if (self._seen - 1) % self.sample_every != 0:
            return None
        self._started += 1
        return Span(ds_id, packet_id, kind)

    def finish(self, span: Span) -> None:
        if len(self.finished) == self.capacity:
            self.dropped += 1
        self.finished.append(span)

    # -- serialization & merge (the sweep runner's transport) ---------------

    def dump(self) -> dict:
        """Picklable state: finished spans plus the sampling counters."""
        return {
            "finished": [span.to_dict() for span in self.finished],
            "seen": self._seen,
            "started": self._started,
            "dropped": self.dropped,
        }

    def absorb(self, dump: dict, id_offset: int = 0) -> int:
        """Merge one :meth:`dump`, rebasing packet ids by ``id_offset``.

        Each sweep point restarts its engine's packet ids at zero, so a
        merged recorder rebases every absorbed span by a caller-tracked
        offset to keep per-point id ranges disjoint. Returns the next
        free id (``id_offset`` advanced past this dump's highest id);
        absorbing dumps in point-index order keeps the mapping -- and
        any capacity eviction -- deterministic.
        """
        top = id_offset
        for data in dump["finished"]:
            span = Span.from_dict(data)
            span.packet_id = data["packet_id"] + id_offset
            top = max(top, span.packet_id + 1)
            self.finish(span)
        self._seen += dump["seen"]
        self._started += dump["started"]
        self.dropped += dump["dropped"]
        return top

    # -- queries ------------------------------------------------------------

    def hop_stats(self, ds_id: Optional[int] = None) -> dict[str, dict[str, float]]:
        """Aggregate per-segment durations across finished spans.

        Returns ``{segment: {count, mean_ps, max_ps}}``; restrict to one
        DS-id by passing ``ds_id``. This is the tail-latency-attribution
        query: which hop dominates for which DS-id.
        """
        agg: dict[str, list[int]] = {}
        for span in self.finished:
            if ds_id is not None and span.ds_id != ds_id:
                continue
            for segment, dur in span.hop_durations():
                agg.setdefault(segment, []).append(dur)
        return {
            segment: {
                "count": len(durs),
                "mean_ps": sum(durs) / len(durs),
                "max_ps": max(durs),
            }
            for segment, durs in sorted(agg.items())
        }

    def __len__(self) -> int:
        return len(self.finished)
