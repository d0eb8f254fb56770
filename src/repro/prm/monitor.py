"""The firmware's statistics monitor.

§7.1.1: "To obtain these statistics data, we implemented a tool running
on the firmware to periodically read data from the two control planes."
This is that tool: it samples chosen device-file-tree paths on a fixed
period (each sample is a real ``cat``, i.e. a CPA register-protocol
read) and accumulates per-probe time series that experiments and
operators can inspect or export. The figure drivers read every plotted
statistic through it.

:meth:`StatisticsMonitor.run` advances the machine itself, one period
at a time, and samples between engine runs rather than from a posted
event: a sample at time ``t`` then sees every event stamped ``t``,
including a control-plane window that closes at ``t``, whatever order
the two were posted in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.prm.sysfs import SysfsError
from repro.sim.engine import PS_PER_MS


@dataclass
class ProbeSeries:
    """One monitored statistic's samples.

    Values are numeric: integers stay integers, fractional readings
    (average latencies, rates) are kept as floats rather than truncated.
    """

    name: str
    path: str
    times_ps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def latest(self) -> Optional[float]:
        return self.values[-1] if self.values else None


class StatisticsMonitor:
    """Periodically samples sysfs statistic files into time series."""

    def __init__(self, firmware, period_ps: int = PS_PER_MS):
        if period_ps <= 0:
            raise ValueError("period must be positive")
        self.firmware = firmware
        self.engine = firmware.engine
        self.period_ps = period_ps
        self.probes: dict[str, ProbeSeries] = {}
        self.read_errors = 0

    def add_probe(self, name: str, path: str) -> ProbeSeries:
        """Watch one statistics file (must exist and be readable)."""
        if name in self.probes:
            raise ValueError(f"probe {name!r} already exists")
        self.firmware.cat(path)  # validates the path now, not at sample time
        series = ProbeSeries(name, path)
        self.probes[name] = series
        return series

    def run(self, duration_ps: int) -> None:
        """Advance the machine by ``duration_ps``, sampling every period.

        Runs the engine one period at a time and samples after each
        full period; a remainder shorter than a period runs unsampled.
        """
        end_ps = self.engine.now + int(duration_ps)
        while self.engine.now + self.period_ps <= end_ps:
            self.engine.run_for(self.period_ps)
            self.sample_now()
        self.engine.run(until_ps=end_ps)

    def sample_now(self) -> None:
        """Take one immediate sample of every probe."""
        now = self.engine.now
        for series in self.probes.values():
            try:
                value = _parse_number(self.firmware.cat(series.path))
            except (SysfsError, ValueError):
                # The LDom may have been destroyed between samples; the
                # real tool would see ENOENT the same way.
                self.read_errors += 1
                continue
            series.times_ps.append(now)
            series.values.append(value)

    def report(self) -> str:
        """A plain-text summary of the latest value of every probe."""
        lines = []
        for name, series in sorted(self.probes.items()):
            latest = series.latest()
            rendered = "-" if latest is None else str(latest)
            lines.append(f"{name}: {rendered}  ({len(series.values)} samples)")
        return "\n".join(lines)

    def export_jsonl(self, dest) -> int:
        """Write every probe's samples as JSONL rows (one per sample).

        Shares the telemetry exporter helpers, so the PRM's probe series
        and the registry's metric snapshots load with the same tooling.
        Returns the number of rows written.
        """
        from repro.telemetry.exporters import write_jsonl

        def rows():
            for name, series in sorted(self.probes.items()):
                for t_ps, value in zip(series.times_ps, series.values):
                    yield {
                        "probe": name,
                        "path": series.path,
                        "t_ps": t_ps,
                        "t_ms": t_ps / PS_PER_MS,
                        "value": value,
                    }

        return write_jsonl(rows(), dest)


def _parse_number(text: str) -> float:
    """Parse a sysfs reading: ints stay exact, fractional values survive."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)
