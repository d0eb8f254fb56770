"""The firmware's statistics monitor.

§7.1.1: "To obtain these statistics data, we implemented a tool running
on the firmware to periodically read data from the two control planes."
This is that tool: it samples chosen device-file-tree paths on a fixed
period (each sample is a real ``cat``, i.e. a CPA register-protocol
read) and accumulates per-probe time series that experiments and
operators can inspect or export. The figure drivers read every plotted
statistic through it.

:meth:`StatisticsMonitor.run` advances the machine through
:func:`repro.sim.engine.run_sampled`, the loop that also takes the
telemetry hub's snapshots, so it samples between engine runs rather
than from a posted event: a sample at time ``t`` sees every event
stamped ``t``, including a control-plane window that closes at ``t``,
whatever order the two were posted in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.prm.sysfs import SysfsError
from repro.sim.engine import PS_PER_MS, run_sampled


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
        self.next_sample_ps: Optional[int] = None  # set by run()

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

        Samples after each full period from now; a remainder shorter
        than a period runs unsampled. The firmware's telemetry hub, if
        any, takes its own periodic snapshots on the way.
        """
        now = self.engine.now
        self.next_sample_ps = now + self.period_ps
        hub = self.firmware.telemetry
        samplers = (self,) if hub is None else (hub, self)
        run_sampled(self.engine, now + int(duration_ps), samplers)

    def sample(self, t_ps: int) -> None:
        """Take one sample of every probe at ``t_ps`` (the engine's now)."""
        for series in self.probes.values():
            try:
                value = _parse_number(self.firmware.cat(series.path))
            except (SysfsError, ValueError):
                # The LDom may have been destroyed between samples; the
                # real tool would see ENOENT the same way.
                self.read_errors += 1
                continue
            series.times_ps.append(t_ps)
            series.values.append(value)
        self.next_sample_ps = t_ps + self.period_ps


def _parse_number(text: str) -> float:
    """Parse a sysfs reading: ints stay exact, fractional values survive."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)
