"""Base class for hardware components on the intra-computer network.

A :class:`Component` owns a name, an engine reference and a clock domain.
Request/response plumbing is deliberately simple: a downstream component
exposes ``handle_request(packet, on_response)`` and invokes the callback
when the (possibly much later) response is ready. This models the ICN's
request/reply packet flows without a heavyweight port abstraction.
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

    def post_cycles(self, cycles: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``cycles`` edges after the next edge of this domain."""
        if self.clock is None:
            raise RuntimeError(f"component {self.name} has no clock domain")
        self.clock.post_cycles(cycles, callback)

    def handle_request(self, packet: Packet, on_response: ResponseCallback) -> None:
        """Accept a request; call ``on_response`` when the reply is ready."""
        raise NotImplementedError

    def access(self, packet: Packet, on_response: ResponseCallback) -> Optional[int]:
        """Fast-path request entry.

        Components that can complete a request without waiting (e.g. a
        cache hit) may return its latency in picoseconds and skip the
        callback entirely, which keeps hits off the event queue. The
        default defers to :meth:`handle_request` and returns None, meaning
        ``on_response`` will be called later.
        """
        self.handle_request(packet, on_response)
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
