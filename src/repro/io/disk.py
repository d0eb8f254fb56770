"""The IDE/disk controller and its control plane (Fig. 10).

Table 3 gives the IDE control plane a single ``bandwidth`` parameter (a
percentage quota per DS-id) and per-DS-id bandwidth statistics. The
controller shares the physical disk's bandwidth between LDoms with
deficit-weighted round robin over fixed-size service chunks: an LDom with
an explicit quota receives that percentage of the disk; LDoms without a
quota share the remainder equally. Reprogramming the quota through the
CPA protocol takes effect at the next chunk boundary, which is what
Fig. 10's mid-run ``echo 80 > .../bandwidth`` exercises.

Disk writes are "dd"-style synchronous block writes: the guest issues a
PIO command carrying the byte count; for each service chunk the
controller writes a DMA descriptor carrying the requester's DS-id and
the DMA engine issues one memory request of the chunk's size, tagged
with it. The response -- plus a tagged completion interrupt -- arrives
when the last chunk is on the platter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.io.dma import DmaEngine
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine, PS_PER_S
from repro.sim.packet import IoOp, IoPacket

# Time from the guest's PIO command to the transfer joining its queue.
PIO_LATENCY_PS = 2_000


class IdeControlPlane(ControlPlane):
    """Control plane for the IDE controller."""

    IDENT = "IDE_CP"
    TYPE_CODE = "I"
    PARAMETER_COLUMNS = (("bandwidth", 0),)  # percent quota; 0 = fair share
    STATISTICS_COLUMNS = (("bandwidth", 0), ("io_cnt", 0), ("bytes_total", 0))

    def __init__(self, engine: Engine, name: str = "cpa_ide", **kwargs):
        super().__init__(engine, name, **kwargs)
        self._window_bytes: dict[int, int] = {}
        self._window_ios: dict[int, int] = {}

    def on_parameter_write(self, ds_id: int, column: str, value: int) -> None:
        """Reject a quota outside 0..100 percent, or one that would push
        the explicit quotas summed over DS-ids above 100."""
        if not 0 <= value <= 100:
            raise ValueError(
                f"{self.name}: bandwidth quota {value} is not a percentage"
            )
        others = sum(
            self.parameters.get(other, "bandwidth")
            for other in self.parameters.ds_ids
            if other != ds_id
        )
        if others + value > 100:
            raise ValueError(
                f"{self.name}: bandwidth quota {value} for DS-id {ds_id} "
                f"brings the quotas to {others + value}%, over 100%"
            )

    def quota(self, ds_id: int) -> int:
        return self.parameters.get_default(ds_id, "bandwidth", 0)

    def weight(self, ds_id: int) -> float:
        """Scheduling weight: explicit quota, or an equal share of what
        the explicit quotas leave over."""
        quota = self.quota(ds_id)
        if quota > 0:
            return float(quota)
        explicit_total = sum(
            self.parameters.get(d, "bandwidth")
            for d in self.parameters.ds_ids
            if self.parameters.get(d, "bandwidth") > 0
        )
        default_count = sum(
            1 for d in self.parameters.ds_ids
            if self.parameters.get(d, "bandwidth") == 0
        ) or 1
        return max(1.0, (100.0 - explicit_total) / default_count)

    def record_io(self, ds_id: int, nbytes: int) -> None:
        self._window_bytes[ds_id] = self._window_bytes.get(ds_id, 0) + nbytes
        self._window_ios[ds_id] = self._window_ios.get(ds_id, 0) + 1

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            window_bytes = self._window_bytes.pop(ds_id, 0)
            self.statistics.set(ds_id, "bandwidth", window_bytes)
            self.statistics.add(ds_id, "bytes_total", window_bytes)
            self.statistics.add(ds_id, "io_cnt", self._window_ios.pop(ds_id, 0))


@dataclass
class _Transfer:
    ds_id: int
    total_bytes: int
    remaining_bytes: int
    to_device: bool
    on_response: ResponseCallback
    packet: IoPacket
    started_at_ps: int = 0


class IdeController(Component):
    """A bandwidth-shared disk controller with a PARD control plane."""

    def __init__(
        self,
        engine: Engine,
        control: Optional[IdeControlPlane] = None,
        memory: Optional[Component] = None,
        apic=None,
        total_bandwidth_bytes_per_s: int = 100 * 1024 * 1024,
        chunk_bytes: int = 64 * 1024,
        name: str = "ide0",
        telemetry=None,
    ):
        super().__init__(engine, name)
        if total_bandwidth_bytes_per_s <= 0 or chunk_bytes <= 0:
            raise ValueError("bandwidth and chunk size must be positive")
        self.telemetry = telemetry
        if self.telemetry is not None:
            self.telemetry.registry.gauge_fn(
                f"io.{name}.completed_transfers", lambda: self.completed_transfers
            )
        self.control = control
        self.total_bandwidth_bytes_per_s = total_bandwidth_bytes_per_s
        self.chunk_bytes = chunk_bytes
        self.dma = DmaEngine(engine, f"{name}.dma", memory, apic=apic)
        self._queues: dict[int, deque[_Transfer]] = {}
        self._deficit: dict[int, float] = {}
        self._rotation: list[int] = []
        self._current: Optional[int] = None
        self._busy = False
        self.completed_transfers = 0

    # -- PIO entry (the guest's "dd" command) -------------------------------

    def handle_request(self, packet: IoPacket, on_response: ResponseCallback) -> None:
        """Accept a block-transfer command.

        ``packet.value`` carries the byte count; PIO_WRITE writes to disk
        (memory -> device), PIO_READ reads from it.
        """
        if packet.value <= 0:
            raise ValueError(f"{self.name}: transfer size must be positive")
        transfer = _Transfer(
            ds_id=packet.ds_id,
            total_bytes=packet.value,
            remaining_bytes=packet.value,
            to_device=packet.op is IoOp.PIO_WRITE,
            on_response=on_response,
            packet=packet,
            started_at_ps=self.now,
        )
        self.post(PIO_LATENCY_PS, lambda: self._enqueue(transfer))

    def _enqueue(self, transfer: _Transfer) -> None:
        queue = self._queues.get(transfer.ds_id)
        if queue is None:
            queue = deque()
            self._queues[transfer.ds_id] = queue
            self._deficit.setdefault(transfer.ds_id, 0.0)
            self._rotation.append(transfer.ds_id)
        queue.append(transfer)
        self._pump()

    # -- deficit-weighted round robin over chunks --------------------------------

    def _pump(self) -> None:
        if self._busy:
            return
        ds_id = self._select_dsid()
        if ds_id is None:
            return
        transfer = self._queues[ds_id][0]
        chunk = min(self.chunk_bytes, transfer.remaining_bytes)
        self._deficit[ds_id] -= chunk
        self._busy = True
        service_ps = int(chunk * PS_PER_S / self.total_bandwidth_bytes_per_s)
        self.post(service_ps, lambda: self._chunk_done(transfer, chunk))

    def _select_dsid(self) -> Optional[int]:
        """Deficit round robin: each turn adds a weight-proportional
        quantum; a DS-id keeps the disk while its deficit covers chunks.
        """
        active = [d for d in self._rotation if self._queues.get(d)]
        if not active:
            self._current = None
            return None
        if self._current is not None:
            queue = self._queues.get(self._current)
            if queue and self._deficit[self._current] >= self._head_chunk(self._current):
                return self._current
            self._current = None
        for _ in range(len(self._rotation) * 64):
            ds_id = self._rotation[0]
            self._rotation.append(self._rotation.pop(0))
            if not self._queues.get(ds_id):
                self._deficit[ds_id] = 0.0  # idle queues carry no credit
                continue
            quantum = self._weight(ds_id) / 100.0 * self.chunk_bytes * len(active)
            self._deficit[ds_id] += max(quantum, 1.0)
            if self._deficit[ds_id] >= self._head_chunk(ds_id):
                self._current = ds_id
                return ds_id
        return None

    def _head_chunk(self, ds_id: int) -> int:
        """Size of the next chunk the head transfer will need."""
        transfer = self._queues[ds_id][0]
        return min(self.chunk_bytes, transfer.remaining_bytes)

    def _weight(self, ds_id: int) -> float:
        if self.control is None:
            return 1.0
        return self.control.weight(ds_id)

    def _chunk_done(self, transfer: _Transfer, chunk: int) -> None:
        transfer.remaining_bytes -= chunk
        finished = transfer.remaining_bytes <= 0
        # Each chunk is one descriptor write, latching its owner's DS-id
        # (§4.1 step 1), and one tagged memory request; only the final
        # chunk raises the completion interrupt.
        self.dma.program(transfer.ds_id)
        self.dma.transfer(chunk, to_device=transfer.to_device, raise_interrupt=finished)
        if self.control is not None:
            self.control.record_io(transfer.ds_id, chunk)
        if finished:
            queue = self._queues[transfer.ds_id]
            queue.popleft()
            self.completed_transfers += 1
            transfer.on_response(transfer.packet)
        self._busy = False
        self._pump()
