"""Clock domains.

The PARD server in Table 2 mixes a 2 GHz CPU domain with a DDR3-1600
memory domain (800 MHz bus clock, tCK = 1.25 ns). A :class:`ClockDomain`
converts between cycles in its own domain and the engine's picosecond
timeline, always aligning work to its own clock edges the way a
synchronous circuit would.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Engine, EventHandle

CPU_CLOCK_PS = 500  # 2 GHz
DRAM_CLOCK_PS = 1250  # DDR3-1600: tCK = 1.25 ns
PRM_CLOCK_PS = 10_000  # the PRM's embedded core runs at 100 MHz


class ClockDomain:
    """A synchronous clock domain on top of the shared engine timeline."""

    def __init__(self, engine: Engine, period_ps: int, name: str = "clk"):
        if period_ps <= 0:
            raise ValueError(f"clock period must be positive, got {period_ps}")
        self.engine = engine
        self.period_ps = int(period_ps)
        self.name = name

    @property
    def frequency_ghz(self) -> float:
        return 1_000.0 / self.period_ps

    @property
    def now_cycles(self) -> int:
        """Completed cycles of this domain at the current engine time."""
        return self.engine.now // self.period_ps

    def cycles_to_ps(self, cycles: int) -> int:
        return int(cycles) * self.period_ps

    def ps_to_cycles(self, ps: int) -> float:
        return ps / self.period_ps

    def next_edge_ps(self) -> int:
        """Absolute time of the next clock edge (now, if on an edge)."""
        now = self.engine.now
        remainder = now % self.period_ps
        if remainder == 0:
            return now
        return now + (self.period_ps - remainder)

    def schedule_cycles(self, cycles: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``cycles`` edges after the next aligned edge."""
        target = self.next_edge_ps() + self.cycles_to_ps(cycles)
        return self.engine.schedule_at(target, callback)

    def post_cycles(self, cycles: int, callback: Callable[[], None]) -> None:
        """Uncancellable :meth:`schedule_cycles`: edge-aligned work from
        every component in this domain lands in the same engine bucket and
        is dispatched in one queue operation."""
        # next_edge_ps() + cycles_to_ps(cycles), inlined: this is on every
        # cache access that misses the synchronous hit path.
        period = self.period_ps
        now = self.engine._now
        self.engine.post_at(now + -now % period + int(cycles) * period, callback)
