"""Shared test helpers, and the oracles several test files check the
runtime against."""

from __future__ import annotations

import json

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

    def access(self, packet, on_response):
        """A core's memory port: every access answers later."""
        self.handle_request(packet, on_response)
        return None

    def requests_of(self, op=None, ds_id=None):
        result = self.requests
        if op is not None:
            result = [p for p in result if p.op is op]
        if ds_id is not None:
            result = [p for p in result if p.ds_id == ds_id]
        return result


def decompose_address(addr: int, geometry) -> tuple[int, int, int]:
    """DRAM physical address -> ``(bank_index, row, column)``: the
    row-interleaved mapping ``MemoryController.handle_request`` inlines.

    Consecutive rows interleave across banks so streaming workloads
    spread over the whole channel. ``bank_index`` is flat across ranks
    (0 .. total_banks-1).
    """
    if addr < 0:
        raise ValueError(f"negative DRAM address {addr}")
    column = addr % geometry.row_bytes
    row_number = addr // geometry.row_bytes
    bank_index = row_number % geometry.total_banks
    row = row_number // geometry.total_banks
    return bank_index, row, column


def read_jsonl(source) -> list[dict]:
    """The rows of a JSONL file (a path or an open text file)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_jsonl(fh)
    return [json.loads(line) for line in source if line.strip()]
