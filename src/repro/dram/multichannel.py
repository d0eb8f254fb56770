"""Multi-channel memory.

Table 2's simulated server has one DDR3 channel, but the paper's RTL
substrate (OpenSPARC T1) has four memory controllers; this router makes
the reproduction able to model that organization too. Channels
interleave on DRAM-address granularity ``interleave_bytes`` (one row by
default, so whole row buffers stay within a channel), each channel is a
full :class:`~repro.dram.controller.MemoryController`, and all channels
share one memory control plane -- one address mapping, one priority
policy, one statistics table, exactly as a single logical memory
resource should appear in the device file tree.

Address translation (LDom-physical -> DRAM) happens once, in the
router; channel controllers are constructed with
``translate_addresses=False`` and see post-translation addresses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry, DramTiming
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket


class MultiChannelMemory(Component):
    """N interleaved DDR3 channels behind one request port."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        channels: int = 4,
        timing: Optional[DramTiming] = None,
        geometry: Optional[DramGeometry] = None,
        control=None,
        interleave_bytes: int = 1024,
        name: str = "mcmem",
        telemetry=None,
        **controller_kwargs,
    ):
        super().__init__(engine, name, clock)
        if channels <= 0:
            raise ValueError("need at least one channel")
        if interleave_bytes <= 0 or interleave_bytes & (interleave_bytes - 1):
            raise ValueError("interleave must be a positive power of two")
        self.channels = channels
        self.interleave_bytes = interleave_bytes
        self.control = control
        self.controllers = [
            MemoryController(
                engine, clock,
                timing=timing, geometry=geometry, control=control,
                translate_addresses=False,
                name=f"{name}.ch{i}",
                telemetry=telemetry,
                **controller_kwargs,
            )
            for i in range(channels)
        ]

    def channel_of(self, dram_addr: int) -> int:
        return (dram_addr // self.interleave_bytes) % self.channels

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        ds_id = packet.effective_ds_id
        if self.control is not None:
            dram_addr = self.control.translate(ds_id, packet.addr)
        else:
            dram_addr = packet.addr
        channel = self.channel_of(dram_addr)
        # The channel sees a copy at the DRAM address: the request packet
        # is its sender's (a cache forwards a core's read as its fill).
        self.controllers[channel].handle_request(
            replace(packet, addr=dram_addr), on_response
        )

    # -- aggregate introspection ---------------------------------------------

    @property
    def served_requests(self) -> int:
        return sum(c.served_requests for c in self.controllers)

    @property
    def served_bytes(self) -> int:
        return sum(c.served_bytes for c in self.controllers)

    def channel_loads(self) -> list[int]:
        """Served-request counts per channel (balance inspection)."""
        return [c.served_requests for c in self.controllers]
