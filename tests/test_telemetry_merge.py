"""Telemetry merge semantics (the sweep runner's transport layer).

The contract under test: merging point payloads in point-index order
concatenates their labelled snapshots, so each point's values stay
under its own run label, and leaves the parent registry empty; merged
span recorders keep per-point packet-id ranges disjoint.
"""

import pickle

from repro.telemetry.hub import Telemetry
from repro.telemetry.spans import SpanRecorder


def _spans_with_ids(ids, ds_id=0):
    recorder = SpanRecorder(sample_every=1)
    for packet_id in ids:
        span = recorder.maybe_start(ds_id=ds_id, packet_id=packet_id)
        span.hop("a", 0)
        span.hop("b", 100)
        recorder.finish(span)
    return recorder


def test_span_absorb_rebases_packet_ids():
    merged = SpanRecorder(sample_every=1)
    offset = merged.absorb(_spans_with_ids([0, 1, 2]).dump(), id_offset=0)
    assert offset == 3
    offset = merged.absorb(_spans_with_ids([0, 1]).dump(), id_offset=offset)
    assert offset == 5
    ids = [span.packet_id for span in merged.finished]
    assert ids == [0, 1, 2, 3, 4]
    dump = merged.dump()
    assert (dump["seen"], dump["started"], dump["dropped"]) == (5, 5, 0)


def test_span_absorb_accumulates_sampling_counters():
    source = SpanRecorder(sample_every=2)
    for packet_id in range(5):
        span = source.maybe_start(ds_id=1, packet_id=packet_id)
        if span is not None:
            recorder_finish = source.finish
            span.hop("only", 0)
            recorder_finish(span)
    merged = SpanRecorder(sample_every=1)
    merged.absorb(source.dump())
    assert merged.dump()["seen"] == 5     # all eligible packets counted
    assert merged.dump()["started"] == 3  # 1-in-2 sampling started 3 of them
    assert len(merged) == 3


def _point_payload(label, span_ids, points):
    hub = Telemetry(span_sample=1)
    hub.begin_run(label)
    hub.registry.gauge_fn("pts", lambda: points)
    for packet_id in span_ids:
        span = hub.spans.maybe_start(ds_id=0, packet_id=packet_id)
        span.hop("a", 0)
        hub.spans.finish(span)
    hub.snapshot(t_ps=0)
    return hub.dump_payload()


def test_merge_payload_disjoint_ids_and_snapshot_order():
    hub = Telemetry()
    hub.merge_payload(_point_payload("p0", [0, 1], points=2))
    hub.merge_payload(_point_payload("p1", [0, 1, 2], points=3))
    # No merged registry: each run's own snapshot carries its count.
    assert hub.registry.snapshot() == {}
    assert [snap["metrics"]["pts"] for snap in hub.snapshots] == [2, 3]
    ids = [span.packet_id for span in hub.spans.finished]
    assert ids == [0, 1, 2, 3, 4]  # second point rebased past the first
    assert [snap["run"] for snap in hub.snapshots] == ["p0", "p1"]


def test_fresh_hub_keeps_settings_and_pickles():
    hub = Telemetry(span_sample=7, span_capacity=50, snapshot_period_ms=0.25)
    hub.registry.gauge_fn("live", lambda: 1.0)
    hub.begin_run("p0")
    hub.snapshot(t_ps=0)
    clone = pickle.loads(pickle.dumps(hub.fresh()))
    assert (clone.spans.sample_every, clone.spans.capacity) == (7, 50)
    assert clone.snapshot_period_ms == 0.25
    assert clone.registry.snapshot() == {} and clone.snapshots == []
    assert clone.run_label == "" and len(clone.spans) == 0
