"""Base class for hardware components on the intra-computer network.

A :class:`Component` owns a name, an engine reference and a clock domain.
Request/response plumbing is deliberately simple: a downstream component
exposes ``handle_request(packet, on_response)`` and invokes the callback
when the (possibly much later) response is ready. This models the ICN's
request/reply packet flows without a heavyweight port abstraction.

A core's memory port (a cache) also exposes ``access(packet,
on_response)``: it returns a hit's latency in picoseconds and never
calls back, or returns None and calls back later, which keeps hits off
the event queue.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine
from repro.sim.packet import Packet

ResponseCallback = Callable[[Packet], None]


class Component:
    """A named, clocked hardware model."""

    def __init__(self, engine: Engine, name: str, clock: Optional[ClockDomain] = None):
        self.engine = engine
        self.name = name
        self.clock = clock

    @property
    def now(self) -> int:
        return self.engine.now

    def post(self, delay_ps: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay_ps`` picoseconds from now."""
        self.engine.post(delay_ps, callback)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
