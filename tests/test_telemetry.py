"""Tests for the unified telemetry layer.

Covers the metrics registry (typed instruments, re-binding), histograms
as views over latency recorders, span lifecycle under deterministic
sampling, exporter round-trips (JSONL, Chrome trace), a hub with
periodic snapshots off, and the firmware's per-LDom gauges on a live
machine.
"""

import io
import json
import math
from bisect import bisect_left
from itertools import accumulate

import pytest

from repro.prm.monitor import StatisticsMonitor
from repro.prm.sysfs import SysfsError
from repro.sim.stats import LatencyRecorder
from repro.system import experiments
from repro.system.config import TABLE2
from repro.system.experiments import _build_colocated_server
from repro.system.server import PardServer
from repro.telemetry.exporters import (
    chrome_trace_events,
    metrics_rows,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import Span, SpanRecorder
from tests.helpers import read_jsonl
from tests.test_golden_digests import TINY


class TestRegistry:
    def test_histogram_rebinding_repoints_recorders(self):
        reg = MetricsRegistry()
        first, second = recorder_of([1.0]), recorder_of([])
        reg.histogram("dram.qdelay", (first,))
        h = reg.histogram("dram.qdelay", (second,))
        assert reg.snapshot() == {"dram.qdelay": h.value()}
        assert h.count == 0
        second.record(3.0)
        assert reg.snapshot()["dram.qdelay"]["count"] == 1
        assert h.counts[2] == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.gauge_fn("x.y", lambda: 0)
        with pytest.raises(TypeError):
            reg.histogram("x.y", ())
        reg.histogram("h.y", ())
        with pytest.raises(TypeError):
            reg.gauge_fn("h.y", lambda: 0)

    @pytest.mark.parametrize(
        "bad", ["", ".lead", "trail.", "a..b", "a/b", "a b", "a\tb"]
    )
    def test_bad_names_rejected(self, bad):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.gauge_fn(bad, lambda: 0)

    def test_gauge_direct_and_callback(self):
        reg = MetricsRegistry()
        backing = {"v": 7}
        fn = reg.gauge_fn("cb", lambda: backing["v"])
        assert fn.value() == 7
        backing["v"] = 9
        assert fn.value() == 9
        # A gauge is always read through its callback; there is no
        # direct-set form.
        with pytest.raises(TypeError):
            Gauge("direct")

    def test_gauge_fn_rebinding_repoints_callback(self):
        reg = MetricsRegistry()
        reg.gauge_fn("g", lambda: 1)
        g = reg.gauge_fn("g", lambda: 2)
        assert g.value() == 2
        assert reg.snapshot() == {"g": 2}

    def test_remove_reports_whether_present(self):
        reg = MetricsRegistry()
        reg.gauge_fn("before", lambda: 0)
        assert reg.remove("before")
        assert "before" not in reg.snapshot()
        assert not reg.remove("before")  # already gone

    def test_snapshot_maps_names_to_values(self):
        reg = MetricsRegistry()
        reg.gauge_fn("a", lambda: 2)
        reg.gauge_fn("b", lambda: 1.5)
        reg.histogram("c", (recorder_of([1.0, 3.0]),), start=1.0, growth=2.0, count=2)
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["b"] == 1.5
        assert snap["c"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
            "buckets": [[1.0, 1], [2.0, 1]],
        }


def recorder_of(samples) -> LatencyRecorder:
    recorder = LatencyRecorder()
    for value in samples:
        recorder.record(value)
    return recorder


class TestHistogram:
    """A histogram is a view: it reads the samples its recorders hold."""

    def test_bucket_boundaries_are_log_spaced_and_inclusive(self):
        rec = LatencyRecorder()
        h = Histogram("h", (rec,), start=1.0, growth=2.0, count=3)
        assert h.bounds == [1.0, 2.0, 4.0]
        # A value exactly on a bound lands in that bucket (le semantics).
        rec.record(1.0)
        rec.record(2.0)
        rec.record(4.0)
        assert h.counts == [1, 1, 1, 0]
        # Samples recorded after a read are binned at the next read.
        rec.record(1.5)   # (1, 2]
        rec.record(100.0)  # overflow
        assert h.counts == [1, 2, 1, 1]

    def test_cumulative_buckets_prometheus_style(self):
        h = Histogram("h", (recorder_of([0.5, 1.5, 3.0, 99.0]),), 1.0, 2.0, 3)
        assert h.buckets() == [(1.0, 1), (2.0, 2), (4.0, 3), (math.inf, 4)]

    def test_empty_histogram_min_max_are_none(self):
        for recorders in ((), (LatencyRecorder(),)):
            h = Histogram("h", recorders)
            assert h.min is None
            assert h.max is None
            assert h.count == 0

    def test_running_stats(self):
        h = Histogram("h", (recorder_of([1.0, 3.0, 8.0]),), 1.0, 2.0, 4)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 1.0
        assert h.max == 8.0

    def test_stats_span_every_recorder(self):
        low, high = recorder_of([5.0, 2.0]), recorder_of([0.5, 9.0, 1.0])
        h = Histogram("h", (low, high), 1.0, 2.0, 4)
        assert (h.count, h.total, h.min, h.max) == (5, 17.5, 0.5, 9.0)
        assert h.counts == [2, 1, 0, 1, 1]

    def test_bad_parameters_rejected(self):
        for kwargs in ({"start": 0}, {"growth": 1.0}, {"count": 0}):
            with pytest.raises(ValueError):
                Histogram("h", (LatencyRecorder(),), **kwargs)


class TestHistogramViews:
    """On a live machine, the registered histograms report exactly what
    their components' recorders hold, snapshot after snapshot."""

    def test_snapshots_agree_with_the_recorders(self):
        hub = Telemetry(snapshot_period_ms=0.25)
        server, memcached, ds_id = _build_colocated_server(
            TINY, "shared", 150_000, telemetry=hub
        )
        recorders = server.memory_controller.queue_delay
        take_snapshot = hub.snapshot
        counts = []

        def snapshot_and_check(t_ps):
            metrics = take_snapshot(t_ps)["metrics"]
            response = metrics[f"workload.memcached.ds{ds_id}.response_ms"]
            latencies = memcached.latencies
            assert (
                response["count"], response["sum"], response["min"], response["max"]
            ) == (latencies.count, latencies.total, latencies.min, latencies.max)
            qdelay = metrics["dram.memctrl.qdelay_cycles"]
            samples = [value for r in recorders for value in r.samples]
            assert qdelay["count"] == sum(r.count for r in recorders) == len(samples)
            mean = metrics["dram.memctrl.mean_qdelay_cycles"]
            assert qdelay["sum"] / qdelay["count"] == mean
            # The buckets, recounted from scratch over every sample.
            bounds = [bound for bound, _ in qdelay["buckets"]]
            per_bucket = [0] * (len(bounds) + 1)
            for value in samples:
                per_bucket[bisect_left(bounds, value)] += 1
            cumulative = list(accumulate(per_bucket))[:-1]
            assert [count for _, count in qdelay["buckets"]] == cumulative
            counts.append((response["count"], qdelay["count"]))

        hub.snapshot = snapshot_and_check
        server.run_ms(TINY.warmup_ms + 0.5)
        hub.snapshot(server.engine.now)
        # Periodic snapshots through warmup and measurement, then the last.
        assert len(counts) == 5
        assert counts == sorted(counts) and counts[-1][0] > 0


class TestSpans:
    def test_sampling_is_counter_based_every_nth(self):
        rec = SpanRecorder(sample_every=3)
        results = [rec.maybe_start(1, i) for i in range(7)]
        picked = [r is not None for r in results]
        assert picked == [True, False, False, True, False, False, True]
        assert (rec.dump()["seen"], rec.dump()["started"]) == (7, 3)

    def test_sample_every_one_records_everything(self):
        rec = SpanRecorder(sample_every=1)
        assert all(rec.maybe_start(0, i) is not None for i in range(5))

    def test_span_lifecycle_hops_and_durations(self):
        span = Span(ds_id=2, packet_id=7)
        span.hop("core0.issue", 1_000)
        span.hop("l1d0.miss", 1_500)
        span.hop("memctrl.complete", 9_000)
        assert [t for _, t in span.hops] == [1_000, 1_500, 9_000]
        assert span.duration_ps == 8_000
        assert span.hop_durations() == [
            ("core0.issue->l1d0.miss", 500),
            ("l1d0.miss->memctrl.complete", 7_500),
        ]

    def test_capacity_keeps_most_recent_and_counts_drops(self):
        rec = SpanRecorder(sample_every=1, capacity=2)
        for i in range(5):
            span = rec.maybe_start(0, i)
            span.hop("a", i)
            rec.finish(span)
        assert len(rec) == 2
        assert [s.packet_id for s in rec.finished] == [3, 4]
        assert rec.dropped == 3

    def test_per_dsid_query_and_hop_stats(self):
        rec = SpanRecorder(sample_every=1)
        for ds_id, delay in ((1, 100), (1, 300), (2, 50)):
            span = rec.maybe_start(ds_id, delay)
            span.hop("issue", 0)
            span.hop("done", delay)
            rec.finish(span)
        assert sum(span.ds_id == 1 for span in rec.finished) == 2
        stats = rec.hop_stats(ds_id=1)
        assert stats["issue->done"] == {
            "count": 2, "mean_ps": 200.0, "max_ps": 300,
        }


class TestExporters:
    def test_jsonl_round_trip(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        buf = io.StringIO()
        assert write_jsonl(rows, buf) == 2
        assert read_jsonl(io.StringIO(buf.getvalue())) == rows

    def test_metrics_rows_flatten_snapshots(self):
        snaps = [{"t_ps": 5, "run": "r", "metrics": {"m1": 1, "m2": 2.5}}]
        rows = list(metrics_rows(snaps))
        assert rows == [
            {"t_ps": 5, "run": "r", "metric": "m1", "value": 1},
            {"t_ps": 5, "run": "r", "metric": "m2", "value": 2.5},
        ]

    def _span(self, ds_id=1, packet_id=3):
        span = Span(ds_id, packet_id)
        span.hop("issue", 2_000_000)
        span.hop("hit", 3_000_000)
        return span

    def test_chrome_trace_events_structure(self):
        events = chrome_trace_events([self._span()])
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["args"]["name"] == "ds1"
        parent = slices[0]
        assert parent["pid"] == 1 and parent["tid"] == 3
        assert parent["ts"] == 2.0 and parent["dur"] == 1.0  # ps -> us
        assert parent["args"]["hops_ps"] == [["issue", 2_000_000], ["hit", 3_000_000]]
        segment = slices[1]
        assert segment["name"] == "issue->hit"

    def test_single_hop_spans_are_skipped(self):
        span = Span(1, 1)
        span.hop("only", 10)
        assert chrome_trace_events([span]) == []

    def test_chrome_trace_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace([self._span()], path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ns"


class TestDisabledTelemetry:
    def test_periodic_snapshots_noop_when_disabled(self):
        hub = Telemetry(snapshot_period_ms=0)
        queues = []
        for telemetry in (None, hub):
            server = PardServer(TABLE2.scaled(32), telemetry=telemetry)
            server.start()
            server.run_ms(2.0)
            queues.append(
                (server.engine.executed_total, server.engine.pending_events)
            )
        assert hub.next_sample_ps is None
        assert hub.snapshots == []
        assert queues[0] == queues[1]


class TestOneSamplingLoop:
    """Hub snapshots are taken between engine runs by the same loop as
    the firmware monitor's samples, so the two readings agree and a hub
    leaves the machine alone."""

    def test_snapshots_agree_with_the_monitor_on_fig10(self, monkeypatch):
        monitors = []

        class Recorded(StatisticsMonitor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                monitors.append(self)

        monkeypatch.setattr(experiments, "StatisticsMonitor", Recorded)
        hub = Telemetry(snapshot_period_ms=20)
        experiments.run_fig10(phase_ms=40, sample_ms=20, telemetry=hub)
        (monitor,) = monitors
        snapshots = {snap["t_ps"]: snap["metrics"] for snap in hub.snapshots}
        compared = 0
        for series in monitor.probes.values():
            ds_id = series.path.split("/ldom")[-1].split("/")[0]
            for t_ps, value in zip(series.times_ps, series.values):
                assert snapshots[t_ps][f"ide.ds{ds_id}.bytes_total"] == value
                compared += 1
        assert compared == 8

    def test_hub_leaves_the_event_count_alone(self):
        executed = []
        for hub in (None, Telemetry(snapshot_period_ms=0.05)):
            server, _memcached, _ds_id = _build_colocated_server(
                TINY, "trigger", 150_000, telemetry=hub
            )
            server.run_ms(0.3)
            executed.append(server.engine.executed_total)
        assert len(hub.snapshots) == 6
        assert executed[0] == executed[1]
        # Read between runs, the gauge is the count so far, not 0.
        assert hub.snapshots[-1]["metrics"]["engine.executed_total"] == executed[1]

    def test_snapshot_times_stay_on_the_period_grid(self):
        hub = Telemetry(snapshot_period_ms=0.25)
        server = PardServer(TABLE2.scaled(32), telemetry=hub)
        server.run_ms(0.1)  # before start(): no snapshots
        server.start()
        for _ in range(3):
            server.run_ms(0.3)
        t0 = int(0.1 * 1e9)
        step = int(0.25 * 1e9)
        assert [snap["t_ps"] for snap in hub.snapshots] == [
            t0 + step, t0 + 2 * step, t0 + 3 * step
        ]


class TestHub:
    def test_snapshots_carry_run_label_and_time(self):
        hub = Telemetry()
        hub.registry.gauge_fn("c", lambda: 3)
        hub.begin_run("pointA")
        snap = hub.snapshot(2_000_000_000)
        assert snap["run"] == "pointA"
        assert snap["t_ms"] == 2.0
        assert snap["metrics"]["c"] == 3

    def test_export_metrics_jsonl(self, tmp_path):
        hub = Telemetry()
        hub.registry.gauge_fn("g", lambda: 1.0)
        hub.snapshot(0)
        hub.snapshot(1_000_000_000)
        path = str(tmp_path / "m.jsonl")
        assert hub.export_metrics_jsonl(path) == 2
        rows = read_jsonl(path)
        assert {r["t_ms"] for r in rows} == {0.0, 1.0}


@pytest.fixture(scope="module")
def telemetered_server():
    """A small machine run with every packet sampled."""
    hub = Telemetry(span_sample=1, snapshot_period_ms=0.05)
    server = PardServer(telemetry=hub)
    ldom = server.firmware.create_ldom("ld0", (0,), 64 << 20)
    from repro.workloads.stream import Stream

    server.start()
    server.firmware.launch_ldom("ld0", {0: Stream(array_bytes=1 << 20)})
    server.run_ms(0.2)
    return server, hub, ldom


class TestLiveMachine:
    def test_spans_cover_the_memory_path(self, telemetered_server):
        server, hub, ldom = telemetered_server
        spans = [s for s in hub.spans.finished if s.ds_id == ldom.ds_id]
        assert spans, "sampled packets should finish spans"
        span = max(spans, key=lambda s: len(s.hops))
        names = [name for name, _ in span.hops]
        assert names[0] == "core0.issue"
        assert names[-1] == "core0.response"
        times = [t for _, t in span.hops]
        assert times == sorted(times), "hop timestamps must be monotonic"

    def test_periodic_snapshots_taken(self, telemetered_server):
        _server, hub, _ldom = telemetered_server
        assert len(hub.snapshots) >= 3
        # Callback gauges read live component counters at snapshot time.
        assert hub.snapshots[-1]["metrics"]["cache.llc.misses"] > 0

    def test_ldom_metrics_removed_on_destroy(self, telemetered_server):
        server, hub, ldom = telemetered_server
        prefix = f"llc.ds{ldom.ds_id}."
        assert any(name.startswith(prefix) for name in hub.registry.snapshot())
        server.firmware.destroy_ldom("ld0")
        assert not any(name.startswith(prefix) for name in hub.registry.snapshot())
        with pytest.raises(SysfsError):
            server.firmware.cat(
                f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/miss_cnt"
            )
