"""Exporters: JSONL time-series and Chrome trace-event spans.

Two machine-readable views of the same telemetry:

* :func:`write_jsonl` / :func:`read_jsonl` -- generic newline-delimited
  JSON helpers, shared by metric snapshots and PRM probe-series export.
* :func:`chrome_trace_events` / :func:`write_chrome_trace` -- finished
  spans as Chrome trace-event "complete" (``ph: "X"``) records that load
  in Perfetto / ``chrome://tracing``. One process row per DS-id, one
  slice per hop segment, timestamps converted ps -> microseconds.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Union

from .spans import Span

PathOrFile = Union[str, IO[str]]


# -- JSONL ------------------------------------------------------------------

def write_jsonl(rows: Iterable[dict], dest: PathOrFile) -> int:
    """Write dict rows as newline-delimited JSON; returns the row count."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            return write_jsonl(rows, fh)
    n = 0
    for row in rows:
        dest.write(json.dumps(row, sort_keys=True))
        dest.write("\n")
        n += 1
    return n


def read_jsonl(source: PathOrFile) -> list[dict]:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_jsonl(fh)
    return [json.loads(line) for line in source if line.strip()]


def metrics_rows(snapshots: Iterable[dict]) -> Iterable[dict]:
    """Flatten snapshot dicts into one JSONL row per (snapshot, metric).

    Each input snapshot is ``{"t_ps": ..., "run": ..., "metrics": {...}}``
    (as produced by ``Telemetry.snapshot``); each output row carries the
    time, run label, metric name and value -- trivially loadable into
    pandas or jq.
    """
    for snap in snapshots:
        base = {k: v for k, v in snap.items() if k != "metrics"}
        for name, value in snap.get("metrics", {}).items():
            row = dict(base)
            row["metric"] = name
            row["value"] = value
            yield row


# -- Chrome trace-event format ---------------------------------------------

def chrome_trace_events(spans: Iterable[Span]) -> list[dict]:
    """Convert finished spans to Chrome trace-event ``ph:"X"`` records.

    pid groups slices by DS-id; tid carries the packet id so concurrent
    requests from one DS-id land on separate rows. A parent slice covers
    the whole span and child slices cover each hop segment. Timestamps
    are microseconds (trace-event convention), converted from integer
    picoseconds.
    """
    events: list[dict] = []
    seen_pids: set[int] = set()
    for span in spans:
        if len(span.hops) < 2:
            continue
        pid = span.ds_id
        tid = span.packet_id
        if pid not in seen_pids:
            seen_pids.add(pid)
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "name": "process_name",
                    "args": {"name": f"ds{pid}"},
                }
            )
        start_us = span.hops[0][1] / 1e6
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": f"{span.kind}.pkt{span.packet_id}",
                "cat": span.kind,
                "ts": start_us,
                "dur": span.duration_ps / 1e6,
                "args": {
                    "ds_id": span.ds_id,
                    "packet_id": span.packet_id,
                    "hops_ps": [[name, t] for name, t in span.hops],
                },
            }
        )
        for segment, dur in span.hop_durations():
            seg_start_us = None
            for (a_name, a_t) in span.hops:
                if segment.startswith(a_name + "->"):
                    seg_start_us = a_t / 1e6
                    break
            if seg_start_us is None:
                seg_start_us = start_us
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "name": segment,
                    "cat": span.kind,
                    "ts": seg_start_us,
                    "dur": dur / 1e6,
                    "args": {"ds_id": span.ds_id, "packet_id": span.packet_id},
                }
            )
    return events


def write_chrome_trace(spans: Iterable[Span], dest: PathOrFile) -> int:
    """Write spans as a Chrome trace JSON object; returns the event count."""
    events = chrome_trace_events(spans)
    doc = {"traceEvents": events, "displayTimeUnit": "ns"}
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, dest)
    return len(events)
