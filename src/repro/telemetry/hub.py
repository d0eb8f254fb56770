"""The Telemetry hub: one object bundling registry, spans and snapshots.

Components receive the hub, or ``None`` for no telemetry, at
construction and store it as given, so every hot-path guard is a single
``is None`` check. ``None`` is the only way to turn telemetry off; a
``snapshot_period_ms <= 0`` hub still records spans and gauges but takes
no periodic snapshots. The hub owns:

* ``registry`` -- the :class:`MetricsRegistry` all components share,
* ``spans`` -- the :class:`SpanRecorder` (deterministic 1-in-N sampling),
* periodic metric snapshots, labelled with the current run so
  multi-point sweeps like fig8 stay distinguishable. The hub is a
  sampler of :func:`repro.sim.engine.run_sampled`: it posts nothing to
  the engine, and a snapshot at ``t`` is taken between engine runs,
  after every event stamped ``t``,
* export helpers for the CLI (``--metrics-out`` / ``--trace-out``).
"""

from __future__ import annotations

from typing import Optional

from .exporters import metrics_rows, write_chrome_trace, write_jsonl
from .registry import MetricsRegistry
from .spans import SpanRecorder

DEFAULT_SPAN_SAMPLE = 100  # 1-in-100 eligible packets
DEFAULT_SPAN_CAPACITY = 10_000


class Telemetry:
    """Shared telemetry context for one simulated machine (or sweep)."""

    def __init__(
        self,
        span_sample: int = DEFAULT_SPAN_SAMPLE,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        snapshot_period_ms: float = 1.0,
    ):
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(sample_every=span_sample, capacity=span_capacity)
        self.snapshot_period_ms = snapshot_period_ms
        self.snapshots: list[dict] = []
        # The next periodic snapshot time, set when the machine starts.
        self.next_sample_ps: Optional[int] = None
        self.run_label = ""
        self._span_id_base = 0  # next free packet id for merged worker spans

    # -- run labelling -------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Label subsequent snapshots (one sweep point = one label)."""
        self.run_label = label

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, t_ps: int) -> dict:
        """Record the current value of every instrument at sim time t_ps."""
        snap = {
            "t_ps": t_ps,
            "t_ms": t_ps / 1e9,
            "run": self.run_label,
            "metrics": self.registry.snapshot(),
        }
        self.snapshots.append(snap)
        return snap

    def start_snapshots(self, t0_ps: int) -> None:
        """Snapshot every period from ``t0_ps`` on (never if the period
        is <= 0), whenever :func:`~repro.sim.engine.run_sampled` passes
        the hub its samplers."""
        period_ps = self._period_ps()
        self.next_sample_ps = t0_ps + period_ps if period_ps > 0 else None

    def sample(self, t_ps: int) -> None:
        """Take the periodic snapshot due at ``t_ps`` and set the next."""
        self.snapshot(t_ps)
        self.next_sample_ps = t_ps + self._period_ps()

    def _period_ps(self) -> int:
        return int(self.snapshot_period_ms * 1e9)

    # -- sweep worker transport ---------------------------------------------

    def fresh(self) -> "Telemetry":
        """An empty hub with this hub's sampling and snapshot settings.

        It holds no callbacks yet, so it pickles: the sweep runner sends
        it to the workers and builds one copy per point.
        """
        return Telemetry(
            span_sample=self.spans.sample_every,
            span_capacity=self.spans.capacity,
            snapshot_period_ms=self.snapshot_period_ms,
        )

    def dump_payload(self) -> dict:
        """The hub's picklable record, for shipping out of a worker.

        Contains every labelled snapshot taken so far and the span
        recorder's finished spans + sampling counters. The registry
        stays behind: each point's values already live in its own
        snapshots, and a merged registry could only mix the points.
        """
        return {
            "snapshots": list(self.snapshots),
            "spans": self.spans.dump(),
        }

    def merge_payload(self, payload: dict) -> None:
        """Merge one worker hub's :meth:`dump_payload` into this hub.

        Snapshots are concatenated and spans absorbed; this hub's
        registry is untouched. Callers MUST merge payloads in ascending
        sweep-point index order -- that order is what makes span id
        rebasing and snapshot concatenation deterministic regardless of
        how many workers ran the sweep. Span packet ids are rebased so
        each merged point keeps a disjoint id range.
        """
        self.snapshots.extend(payload["snapshots"])
        self._span_id_base = self.spans.absorb(
            payload["spans"], id_offset=self._span_id_base
        )

    # -- exports -------------------------------------------------------------

    def export_metrics_jsonl(self, path: str) -> int:
        """Write all snapshots as flat JSONL rows; returns the row count."""
        return write_jsonl(metrics_rows(self.snapshots), path)

    def export_chrome_trace(self, path: str) -> int:
        """Write finished spans as a Chrome trace; returns the event count."""
        return write_chrome_trace(self.spans.finished, path)

    def __repr__(self) -> str:
        return (
            f"Telemetry({len(self.registry)} instruments, "
            f"{len(self.spans)} spans, {len(self.snapshots)} snapshots)"
        )
