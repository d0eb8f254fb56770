"""Per-DS-id differentiated processing engines (§8).

The paper: "if a PARD server includes an MXT engine, the engine can be
programmed to compress memory-access packets for only designated DS-id
sets" -- the same idea covers encryption and security checks. An engine
sits on the memory path, consults its own control plane per DS-id, and
transforms packets selectively: compression shrinks the transferred size
(saving DRAM bandwidth) at a latency cost; encryption adds pure latency.

Packets for DS-ids with the feature disabled pass through untouched and
undelayed -- differentiation is the point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket


class EngineControlPlane(ControlPlane):
    """Control plane shared by the differentiated engines.

    ``enabled`` switches the feature per DS-id; ``ratio_pct`` is the
    compressed size as a percentage of the original (compression only).
    """

    IDENT = "ENGINE_CP"
    TYPE_CODE = "E"
    PARAMETER_COLUMNS = (("enabled", 0), ("ratio_pct", 50))
    STATISTICS_COLUMNS = (("bytes_in", 0), ("bytes_out", 0), ("ops", 0))

    def __init__(self, engine: Engine, name: str = "cpa_engine", **kwargs):
        super().__init__(engine, name, **kwargs)
        self._window: dict[tuple[int, str], int] = {}

    def enabled(self, ds_id: int) -> bool:
        return bool(self.parameters.get_default(ds_id, "enabled", 0))

    def ratio(self, ds_id: int) -> float:
        pct = self.parameters.get_default(ds_id, "ratio_pct", 50)
        return max(1, min(pct, 100)) / 100.0

    def record(self, ds_id: int, bytes_in: int, bytes_out: int) -> None:
        for column, amount in (("bytes_in", bytes_in), ("bytes_out", bytes_out), ("ops", 1)):
            key = (ds_id, column)
            self._window[key] = self._window.get(key, 0) + amount

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            for column in ("bytes_in", "bytes_out", "ops"):
                self.statistics.add(ds_id, column, self._window.pop((ds_id, column), 0))


class _SelectiveEngine(Component):
    """Base: forward packets, transforming tagged ones."""

    def __init__(
        self,
        engine: Engine,
        downstream: Component,
        control: EngineControlPlane,
        latency_cycles: int,
        cycle_ps: int = 500,
        name: str = "engine",
    ):
        super().__init__(engine, name)
        if latency_cycles < 0:
            raise ValueError("latency must be non-negative")
        self.downstream = downstream
        self.control = control
        self.latency_ps = latency_cycles * cycle_ps
        self.transformed = 0
        self.passed_through = 0

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        ds_id = packet.effective_ds_id
        if not self.control.enabled(ds_id):
            self.passed_through += 1
            self.downstream.handle_request(packet, on_response)
            return
        self.transformed += 1
        transformed = self._transform(packet)
        self.control.record(ds_id, packet.size, transformed.size)
        # The engine pays its latency, then forwards; the response path
        # pays it again (decompress / decrypt on the way back).
        self.post(
            self.latency_ps,
            lambda: self.downstream.handle_request(
                transformed,
                lambda _resp: self.post(self.latency_ps, lambda: on_response(packet)),
            ),
        )

    def _transform(self, packet: MemoryPacket) -> MemoryPacket:
        raise NotImplementedError


class CompressionEngine(_SelectiveEngine):
    """An MXT-style memory compression engine.

    Shrinks the DRAM-side transfer size for designated DS-ids (saving
    bandwidth and row-buffer space) at a fixed compression latency each
    way.
    """

    def __init__(self, engine, downstream, control, latency_cycles: int = 12, **kwargs):
        super().__init__(engine, downstream, control, latency_cycles,
                         name=kwargs.pop("name", "mxt0"), **kwargs)

    def _transform(self, packet: MemoryPacket) -> MemoryPacket:
        ratio = self.control.ratio(packet.effective_ds_id)
        new_size = max(1, int(packet.size * ratio))
        return replace(packet, size=new_size)


class EncryptionEngine(_SelectiveEngine):
    """A memory encryption engine: latency, no size change."""

    def __init__(self, engine, downstream, control, latency_cycles: int = 20, **kwargs):
        super().__init__(engine, downstream, control, latency_cycles,
                         name=kwargs.pop("name", "aes0"), **kwargs)

    def _transform(self, packet: MemoryPacket) -> MemoryPacket:
        return replace(packet, packet_id=packet.packet_id)
