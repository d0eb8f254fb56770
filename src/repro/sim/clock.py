"""Clock domains.

The PARD server in Table 2 mixes a 2 GHz CPU domain with a DDR3-1600
memory domain (800 MHz bus clock, tCK = 1.25 ns). A :class:`ClockDomain`
converts between cycles in its own domain and the engine's picosecond
timeline, always aligning work to its own clock edges the way a
synchronous circuit would.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Engine

CPU_CLOCK_PS = 500  # 2 GHz
DRAM_CLOCK_PS = 1250  # DDR3-1600: tCK = 1.25 ns


class ClockDomain:
    """A synchronous clock domain on top of the shared engine timeline."""

    def __init__(self, engine: Engine, period_ps: int, name: str = "clk"):
        if period_ps <= 0:
            raise ValueError(f"clock period must be positive, got {period_ps}")
        self.engine = engine
        self.period_ps = int(period_ps)
        self.name = name

    def post_cycles(self, cycles: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``cycles`` edges after the next aligned edge.
        Edge-aligned work from every component in this domain lands in the
        same engine bucket and is dispatched in one queue operation."""
        # The next edge is now + -now % period (now, if on an edge).
        period = self.period_ps
        now = self.engine._now
        self.engine.post_at(now + -now % period + int(cycles) * period, callback)
