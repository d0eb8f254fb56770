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

Memory traffic is issued in ``chunk_bytes`` units (4 KB by default)
rather than per cache line, which preserves bandwidth accounting and
memory-controller contention at 1/64th of the event cost; the chunk size
is a visible parameter for experiments that care.
"""

from __future__ import annotations

from typing import Callable, Optional

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
        chunk_bytes: int = 4096,
    ):
        super().__init__(engine, name)
        self.memory = memory
        self.apic = apic
        self.chunk_bytes = chunk_bytes
        self.tag = TagRegister(f"{name}.dma")
        self.transfers_completed = 0
        self.bytes_transferred = 0

    # -- step 1: descriptor write latches the DS-id --------------------------

    def program(self, descriptor_write_ds_id: int) -> None:
        """Latch the DS-id carried by the driver's descriptor write."""
        self.tag.write(descriptor_write_ds_id)

    # -- steps 2 and 3: tagged transfer + tagged completion interrupt ---------

    def transfer(
        self,
        nbytes: int,
        to_device: bool,
        on_complete: Optional[Callable[[], None]] = None,
        raise_interrupt: bool = True,
        ds_id: Optional[int] = None,
    ) -> None:
        """Move ``nbytes`` between memory and the device.

        ``to_device`` reads from memory (e.g. a disk write); the reverse
        writes to memory (e.g. a disk read). ``ds_id`` overrides the
        latched tag, as the IDE does with each queued transfer's owner;
        otherwise the latched register is used.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        tag = self.tag.ds_id if ds_id is None else ds_id
        remaining = nbytes
        offset = 0
        pending = {"chunks": 0, "started_all": False}

        def chunk_done(_resp=None) -> None:
            pending["chunks"] -= 1
            if pending["chunks"] == 0 and pending["started_all"]:
                self._complete(nbytes, tag, on_complete, raise_interrupt)

        while remaining > 0:
            size = min(self.chunk_bytes, remaining)
            if self.memory is not None:
                packet = MemoryPacket(
                    tag, offset, self.now,
                    MemOp.READ if to_device else MemOp.WRITE, size,
                )
                pending["chunks"] += 1
                self.memory.handle_request(packet, chunk_done)
            remaining -= size
            offset += size
        pending["started_all"] = True
        if self.memory is None or pending["chunks"] == 0:
            self._complete(nbytes, tag, on_complete, raise_interrupt)

    def _complete(
        self,
        nbytes: int,
        tag: int,
        on_complete: Optional[Callable[[], None]],
        raise_interrupt: bool,
    ) -> None:
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
        if on_complete is not None:
            on_complete()
