"""The multi-queue NIC virtualized into v-NICs (PARD §4.1).

For the from-device DMA direction the source of an incoming packet is
unknown, so tagging needs help: the physical NIC is split into v-NICs,
each with its own MAC address and tag register holding the owning LDom's
DS-id. The MAC demux picks the v-NIC, and that v-NIC's tag register
stamps the receive DMA and the completion interrupt. Frames for unknown
MACs are dropped (counted), exactly like a real NIC without promiscuous
mode.

Transmit is simpler -- the send request already carries the core's DS-id
-- and shares a single bandwidth-limited FIFO for the wire.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.control_plane import ControlPlane
from repro.core.tagging import TagRegister
from repro.io.dma import DmaEngine
from repro.sim.component import Component
from repro.sim.engine import Engine, PS_PER_S


class NicControlPlane(ControlPlane):
    """Control plane for the NIC: v-NIC tag registers + traffic stats."""

    IDENT = "NIC_CP"
    TYPE_CODE = "N"
    PARAMETER_COLUMNS = (("vnic_enabled", 1),)
    STATISTICS_COLUMNS = (("rx_bytes", 0), ("tx_bytes", 0), ("rx_dropped", 0))

    def __init__(self, engine: Engine, name: str = "cpa_nic", **kwargs):
        super().__init__(engine, name, **kwargs)
        self._window: dict[tuple[int, str], int] = {}

    def record_traffic(self, ds_id: int, column: str, amount: int) -> None:
        key = (ds_id, column)
        self._window[key] = self._window.get(key, 0) + amount

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            for column in ("rx_bytes", "tx_bytes", "rx_dropped"):
                self.statistics.set(
                    ds_id, column, self._window.pop((ds_id, column), 0)
                )


@dataclass
class VNic:
    """One virtual NIC: a MAC address plus a DS-id tag register."""

    mac: str
    tag: TagRegister
    rx_frames: int = 0


class MultiQueueNic(Component):
    """An Intel 82599-style multi-queue NIC with per-v-NIC tagging."""

    def __init__(
        self,
        engine: Engine,
        memory: Optional[Component] = None,
        apic=None,
        control: Optional[NicControlPlane] = None,
        wire_bandwidth_bytes_per_s: int = 10 * 1024 * 1024 * 1024 // 8,  # 10 GbE
        interrupt_vector: int = 11,
        name: str = "nic0",
        telemetry=None,
    ):
        super().__init__(engine, name)
        self.control = control
        self.wire_bandwidth_bytes_per_s = wire_bandwidth_bytes_per_s
        self.dma = DmaEngine(
            engine, f"{name}.dma", memory, apic=apic, interrupt_vector=interrupt_vector
        )
        self._vnics: dict[str, VNic] = {}
        self._tx_queue: deque[tuple[int, int, Optional[Callable[[], None]]]] = deque()
        self._tx_busy = False
        self.rx_dropped = 0
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge_fn(f"io.{name}.rx_dropped", lambda: self.rx_dropped)
            reg.gauge_fn(f"io.{name}.vnics", lambda: len(self._vnics))

    # -- v-NIC management (programmed by the firmware) -------------------------

    def add_vnic(self, mac: str, ds_id: int) -> VNic:
        if mac in self._vnics:
            raise ValueError(f"MAC {mac} already assigned")
        vnic = VNic(mac=mac, tag=TagRegister(f"{self.name}.{mac}", ds_id=ds_id))
        self._vnics[mac] = vnic
        return vnic

    def remove_vnic(self, mac: str) -> None:
        del self._vnics[mac]

    def vnic_for(self, mac: str) -> Optional[VNic]:
        return self._vnics.get(mac)

    # -- receive path (from-device DMA) --------------------------------------------

    def receive_frame(self, dest_mac: str, nbytes: int) -> bool:
        """An incoming wire frame; returns True if accepted.

        The MAC demux selects the v-NIC whose tag register stamps the
        receive DMA into the owning LDom's memory and the completion
        interrupt.
        """
        vnic = self._vnics.get(dest_mac)
        if vnic is None:
            self.rx_dropped += 1
            if self.control is not None:
                self.control.record_traffic(0, "rx_dropped", 1)
            return False
        vnic.rx_frames += 1
        if self.control is not None:
            self.control.record_traffic(vnic.tag.ds_id, "rx_bytes", nbytes)
        self.dma.transfer(nbytes, to_device=False, ds_id=vnic.tag.ds_id)
        return True

    # -- transmit path ------------------------------------------------------------------

    def send(self, ds_id: int, nbytes: int, on_sent: Optional[Callable[[], None]] = None) -> None:
        if nbytes <= 0:
            raise ValueError("frame size must be positive")
        self._tx_queue.append((ds_id, nbytes, on_sent))
        self._pump_tx()

    def _pump_tx(self) -> None:
        if self._tx_busy or not self._tx_queue:
            return
        ds_id, nbytes, on_sent = self._tx_queue.popleft()
        self._tx_busy = True
        if self.control is not None:
            self.control.record_traffic(ds_id, "tx_bytes", nbytes)
        # Fetch the payload from the LDom's memory, then hold the wire.
        self.dma.transfer(nbytes, to_device=True, raise_interrupt=False, ds_id=ds_id)
        wire_ps = int(nbytes * PS_PER_S / self.wire_bandwidth_bytes_per_s)
        self.post(max(1, wire_ps), lambda: self._tx_done(on_sent))

    def _tx_done(self, on_sent: Optional[Callable[[], None]]) -> None:
        self._tx_busy = False
        if on_sent is not None:
            on_sent()
        self._pump_tx()
