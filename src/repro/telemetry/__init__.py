"""repro.telemetry: metrics registry, packet-lifecycle spans and
exporters for the simulated PARD machine.

See DESIGN.md ("Observability") for the instrument naming scheme,
sampling rules, and the overhead budget this layer is held to.
"""

from .registry import (
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
)
from .spans import Span, SpanRecorder
from .exporters import (
    chrome_trace_events,
    metrics_rows,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .hub import Telemetry, effective

__all__ = [
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "chrome_trace_events",
    "metrics_rows",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "effective",
]
