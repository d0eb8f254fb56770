"""A tagged crossbar for the intra-computer network.

Models the NoC/crossbar hop between private caches and the shared LLC
(the OpenSPARC T1, the paper's RTL substrate, uses exactly such a
crossbar). The model: a fixed traversal latency plus a shared
bandwidth-limited link that serializes flits, with an optional control
plane giving each DS-id a link-share weight -- the same DRR machinery as
the disk, because on the ICN too, "routers" can differentiate.

The crossbar is optional in the assembled server (a zero-latency,
infinite-bandwidth fabric is the default, matching the calibration used
by the experiments); it exists so ICN-level contention and
differentiation can be studied in isolation.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket


class CrossbarControlPlane(ControlPlane):
    """Per-DS-id link shares and traffic statistics for the crossbar."""

    IDENT = "XBAR_CP"
    TYPE_CODE = "X"
    PARAMETER_COLUMNS = (("share", 0),)  # weight; 0 = fair share
    STATISTICS_COLUMNS = (("flits", 0), ("bytes", 0))

    def __init__(self, engine: Engine, name: str = "cpa_xbar", **kwargs):
        super().__init__(engine, name, **kwargs)
        self._window: dict[tuple[int, str], int] = {}

    def weight(self, ds_id: int) -> float:
        share = self.parameters.get_default(ds_id, "share", 0)
        return float(share) if share > 0 else 1.0

    def record(self, ds_id: int, nbytes: int) -> None:
        for column, amount in (("flits", 1), ("bytes", nbytes)):
            key = (ds_id, column)
            self._window[key] = self._window.get(key, 0) + amount

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            for column in ("flits", "bytes"):
                self.statistics.add(ds_id, column, self._window.pop((ds_id, column), 0))


class Crossbar(Component):
    """A latency + bandwidth hop in front of a downstream component."""

    def __init__(
        self,
        engine: Engine,
        downstream: Component,
        traversal_ps: int = 2_000,            # ~4 CPU cycles
        bytes_per_ps: float = 0.064,           # 64 GB/s link
        flit_bytes: int = 16,
        control: Optional[CrossbarControlPlane] = None,
        name: str = "xbar",
        telemetry=None,
    ):
        super().__init__(engine, name)
        if traversal_ps < 0 or bytes_per_ps <= 0 or flit_bytes <= 0:
            raise ValueError("invalid crossbar parameters")
        self.downstream = downstream
        self.traversal_ps = traversal_ps
        self.bytes_per_ps = bytes_per_ps
        self.flit_bytes = flit_bytes
        self.control = control
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        if self.telemetry is not None:
            self.telemetry.registry.gauge_fn(
                f"icn.{name}.forwarded", lambda: self.forwarded
            )
        self._queues: dict[int, deque] = {}
        self._deficit: dict[int, float] = {}
        self._rotation: list[int] = []
        self._current: Optional[int] = None
        self._busy = False
        self.forwarded = 0

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        ds_id = packet.effective_ds_id
        queue = self._queues.get(ds_id)
        if queue is None:
            queue = deque()
            self._queues[ds_id] = queue
            self._deficit.setdefault(ds_id, 0.0)
            self._rotation.append(ds_id)
        queue.append((packet, on_response))
        self._pump()

    def _pump(self) -> None:
        if self._busy:
            return
        ds_id = self._select()
        if ds_id is None:
            return
        packet, on_response = self._queues[ds_id].popleft()
        size = max(packet.size, self.flit_bytes)
        self._deficit[ds_id] -= size
        self._busy = True
        serialization_ps = int(size / self.bytes_per_ps)
        total_ps = self.traversal_ps + serialization_ps
        if self.control is not None:
            self.control.record(ds_id, size)
        self.post(total_ps, lambda: self._forward(packet, on_response))

    def _select(self) -> Optional[int]:
        """Deficit round robin over DS-ids, weighted by link shares.

        A DS-id keeps the link while its deficit covers its head packet
        (same structure as the IDE controller's scheduler).
        """
        active = [d for d in self._rotation if self._queues.get(d)]
        if not active:
            self._current = None
            return None
        if self._current is not None:
            queue = self._queues.get(self._current)
            if queue and self._deficit[self._current] >= self._head_size(self._current):
                return self._current
            self._current = None
        total_weight = sum(self._weight(d) for d in active) or 1.0
        for _ in range(len(self._rotation) * 64):
            ds_id = self._rotation[0]
            self._rotation.append(self._rotation.pop(0))
            if not self._queues.get(ds_id):
                self._deficit[ds_id] = 0.0
                continue
            quantum = self._weight(ds_id) / total_weight * self.flit_bytes * len(active)
            self._deficit[ds_id] += max(1.0, quantum)
            if self._deficit[ds_id] >= self._head_size(ds_id):
                self._current = ds_id
                return ds_id
        return None

    def _weight(self, ds_id: int) -> float:
        return self.control.weight(ds_id) if self.control else 1.0

    def _head_size(self, ds_id: int) -> int:
        return max(self._queues[ds_id][0][0].size, self.flit_bytes)

    def _forward(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        self._busy = False
        self.forwarded += 1
        if packet.span is not None:
            packet.span.hop(f"{self.name}.forward", self.now)
        self.downstream.handle_request(packet, on_response)
        self._pump()
