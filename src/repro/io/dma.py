"""Tagged DMA engines.

PARD §4.1 tags DMA in three steps, all reproduced here:

1. *Initialize the tag register*: when a driver writes the descriptor
   into the engine, the DS-id carried by that (PIO) write is latched into
   the engine's tag register.
2. *Tag data transfers*: every memory request the engine issues carries
   the latched DS-id, so DMA traffic is charged to the right LDom by the
   memory control plane.
3. *Tag interrupt signals*: the completion interrupt carries the DS-id,
   letting the APIC route it through the owning LDom's route table.

A transfer is one memory request of its full size, not one per cache
line: the device chunks its own work (the IDE writes one descriptor per
``disk_chunk_bytes`` chunk), which keeps bandwidth accounting and
memory-controller contention at a fraction of the event cost.
"""

from __future__ import annotations

from typing import Optional

from repro.core.tagging import TagRegister
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.packet import InterruptPacket, MemOp, MemoryPacket

# The vector every DMA completion interrupt raises; the firmware routes it
# to an LDom's first core.
DISK_INTERRUPT_VECTOR = 14


class DmaEngine(Component):
    """One device's DMA engine."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        memory: Optional[Component],
        apic=None,
    ):
        super().__init__(engine, name)
        self.memory = memory
        self.apic = apic
        self.tag = TagRegister(f"{name}.dma")
        self.transfers_completed = 0
        self.bytes_transferred = 0

    # -- step 1: descriptor write latches the DS-id --------------------------

    def program(self, descriptor_write_ds_id: int) -> None:
        """Latch the DS-id carried by the driver's descriptor write."""
        self.tag.write(descriptor_write_ds_id)

    # -- steps 2 and 3: tagged transfer + tagged completion interrupt ---------

    def transfer(self, nbytes: int, to_device: bool, raise_interrupt: bool = True) -> None:
        """Move ``nbytes`` between memory and the device as one memory
        request tagged with the latched DS-id.

        ``to_device`` reads from memory (e.g. a disk write); the reverse
        writes to memory (e.g. a disk read). The transfer completes when
        memory responds, or at once when the engine has no memory.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        tag = self.tag.ds_id
        if self.memory is None:
            self._complete(nbytes, tag, raise_interrupt)
            return
        packet = MemoryPacket(
            tag, 0, self.now, MemOp.READ if to_device else MemOp.WRITE, nbytes
        )
        self.memory.handle_request(
            packet, lambda _resp: self._complete(nbytes, tag, raise_interrupt)
        )

    def _complete(self, nbytes: int, tag: int, raise_interrupt: bool) -> None:
        self.transfers_completed += 1
        self.bytes_transferred += nbytes
        if raise_interrupt and self.apic is not None:
            self.apic.raise_interrupt(
                InterruptPacket(
                    ds_id=tag,
                    vector=DISK_INTERRUPT_VECTOR,
                    device=self.name,
                    birth_ps=self.now,
                )
            )
