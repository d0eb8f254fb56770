"""The tagged interrupt controller.

PARD §4.1 augments the APIC by *duplicating the interrupt route table per
DS-id*: when a device raises an interrupt it attaches its DS-id, and the
APIC uses that DS-id to pick the route table, forwarding the interrupt to
the owning LDom's cores. Without this, a disk completion for LDom1 could
wake a core belonging to LDom2 -- interrupts are one of the ICN packet
types that must be virtualized for fully hardware-supported
virtualization.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.packet import InterruptPacket

InterruptHandler = Callable[[InterruptPacket], None]

DELIVERY_LATENCY_PS = 500  # one CPU cycle of delivery latency


class RouteError(KeyError):
    """No route exists for an interrupt's (DS-id, vector)."""


class Apic(Component):
    """An interrupt controller with per-DS-id route tables."""

    def __init__(
        self,
        engine: Engine,
        name: str = "apic",
        telemetry=None,
    ):
        super().__init__(engine, name)
        # route_tables[ds_id][vector] -> core_id
        self._route_tables: dict[int, dict[int, int]] = {}
        self._core_handlers: dict[int, InterruptHandler] = {}
        self.delivered = 0
        self.dropped = 0
        self.telemetry = telemetry
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge_fn(f"io.{name}.delivered", lambda: self.delivered)
            reg.gauge_fn(f"io.{name}.dropped", lambda: self.dropped)

    # -- configuration (programmed by the PRM / firmware) ------------------

    def register_core(self, core_id: int, handler: InterruptHandler) -> None:
        """Attach the per-core interrupt pin."""
        self._core_handlers[core_id] = handler

    def set_route(self, ds_id: int, vector: int, core_id: int) -> None:
        """Route ``(ds_id, vector)`` interrupts to ``core_id``."""
        if core_id not in self._core_handlers:
            raise RouteError(f"core {core_id} is not registered with {self.name}")
        self._route_tables.setdefault(ds_id, {})[vector] = core_id

    def clear_routes(self, ds_id: int) -> None:
        self._route_tables.pop(ds_id, None)

    def route_of(self, ds_id: int, vector: int) -> Optional[int]:
        table = self._route_tables.get(ds_id)
        if table is None:
            return None
        return table.get(vector)

    # -- delivery -------------------------------------------------------------

    def raise_interrupt(self, packet: InterruptPacket) -> None:
        """Deliver a tagged interrupt through the DS-id's route table.

        Interrupts with no route are dropped and counted -- the hardware
        equivalent of an unassigned vector, and a condition tests assert
        never happens for a correctly configured LDom.
        """
        core_id = self.route_of(packet.ds_id, packet.vector)
        if core_id is None:
            self.dropped += 1
            return
        handler = self._core_handlers[core_id]
        self.post(DELIVERY_LATENCY_PS, lambda: self._deliver(handler, packet))

    def _deliver(self, handler: InterruptHandler, packet: InterruptPacket) -> None:
        self.delivered += 1
        handler(packet)
