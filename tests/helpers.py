"""Shared test helpers."""

from __future__ import annotations

from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket


class FakeMemory(Component):
    """A downstream memory that records requests and replies after a delay."""

    def __init__(self, engine: Engine, latency_ps: int = 50_000, name: str = "fakemem"):
        super().__init__(engine, name)
        self.latency_ps = latency_ps
        self.requests: list[MemoryPacket] = []

    def handle_request(self, packet, on_response):
        self.requests.append(packet)
        self.post(self.latency_ps, lambda: on_response(packet))

    def requests_of(self, op=None, ds_id=None):
        result = self.requests
        if op is not None:
            result = [p for p in result if p.op is op]
        if ds_id is not None:
            result = [p for p in result if p.ds_id == ds_id]
        return result
