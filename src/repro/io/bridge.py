"""The I/O bridge and its control plane.

The bridge routes programmed-I/O packets from cores to devices. Its
control plane (type 'B' in the device tree) gives each DS-id a *device
access mask*: an LDom can only reach the devices the firmware assigned to
it, which is the I/O half of fully hardware-supported virtualization --
no hypervisor mediates, the bridge itself refuses cross-LDom device
access. It also keeps per-DS-id PIO statistics.
"""

from __future__ import annotations

from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import IoPacket

ALL_DEVICES_MASK = (1 << 62) - 1
# Time the bridge takes to forward a PIO packet to its device.
FORWARD_LATENCY_PS = 1_000


class IoAccessError(PermissionError):
    """An LDom touched a device outside its access mask."""


class IoBridgeControlPlane(ControlPlane):
    """Control plane for the I/O bridge."""

    IDENT = "IOBRIDGE_CP"
    TYPE_CODE = "B"
    PARAMETER_COLUMNS = (("devmask", ALL_DEVICES_MASK),)
    STATISTICS_COLUMNS = (("pio_cnt", 0), ("denied_cnt", 0))

    def __init__(self, engine: Engine, name: str = "cpa_bridge", **kwargs):
        super().__init__(engine, name, **kwargs)
        self._window_pio: dict[int, int] = {}
        self._window_denied: dict[int, int] = {}

    def devmask(self, ds_id: int) -> int:
        return self.parameters.get_default(ds_id, "devmask", ALL_DEVICES_MASK)

    def record_pio(self, ds_id: int, denied: bool) -> None:
        table = self._window_denied if denied else self._window_pio
        table[ds_id] = table.get(ds_id, 0) + 1

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            self.statistics.add(ds_id, "pio_cnt", self._window_pio.pop(ds_id, 0))
            self.statistics.add(ds_id, "denied_cnt", self._window_denied.pop(ds_id, 0))


class IoBridge(Component):
    """Routes PIO packets to registered devices, enforcing access masks."""

    def __init__(
        self,
        engine: Engine,
        control: Optional[IoBridgeControlPlane] = None,
        name: str = "iobridge",
        telemetry=None,
    ):
        super().__init__(engine, name)
        self.control = control
        self._devices: dict[str, tuple[int, Component]] = {}
        self.forwarded_pio = 0
        self.telemetry = telemetry
        if self.telemetry is not None:
            self.telemetry.registry.gauge_fn(
                f"io.{name}.forwarded_pio", lambda: self.forwarded_pio
            )

    def attach_device(self, name: str, device: Component) -> int:
        """Register a device; returns its bit index in the access masks."""
        if name in self._devices:
            raise ValueError(f"device {name!r} already attached")
        index = len(self._devices)
        self._devices[name] = (index, device)
        return index

    def handle_request(self, packet: IoPacket, on_response: ResponseCallback) -> None:
        entry = self._devices.get(packet.device)
        if entry is None:
            raise KeyError(f"{self.name}: no device {packet.device!r}")
        index, device = entry
        if self.control is not None:
            allowed = bool(self.control.devmask(packet.ds_id) & (1 << index))
            self.control.record_pio(packet.ds_id, denied=not allowed)
            if not allowed:
                raise IoAccessError(
                    f"DS-id {packet.ds_id} denied access to {packet.device}"
                )
        self.forwarded_pio += 1
        self.post(
            FORWARD_LATENCY_PS, lambda: device.handle_request(packet, on_response)
        )
