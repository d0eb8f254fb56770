"""Disk I/O workloads.

``DiskCopy`` models the paper's Fig. 10 experiment:
``dd if=/dev/zero of=/dev/sdb bs=32M count=16`` -- a loop of synchronous
block writes. Each iteration issues one PIO block-write command to the
IDE controller (through the I/O bridge when one is configured as the
core's I/O port) and blocks until the transfer completes, so the achieved
bandwidth is whatever the IDE control plane's quota grants the LDom.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.packet import IoOp, IoPacket
from repro.workloads.base import Workload


class DiskCopy(Workload):
    """A dd-style synchronous block writer."""

    name = "diskcopy"

    def __init__(
        self,
        block_bytes: int = 32 << 20,
        count: int = 16,
        device: str = "ide0",
        compute_cycles_between: int = 2_000,
    ):
        super().__init__()
        if block_bytes <= 0:
            raise ValueError("block size must be positive")
        if count < 0:
            raise ValueError("count must be non-negative (0 = forever)")
        self.block_bytes = block_bytes
        self.count = count
        self.device = device
        self.compute_cycles_between = compute_cycles_between
        self.blocks_written = 0

    def ops(self) -> Iterator[tuple]:
        written = 0
        while self.count == 0 or written < self.count:
            packet = IoPacket(
                device=self.device, op=IoOp.PIO_WRITE, value=self.block_bytes
            )
            yield ("io", packet)
            written += 1
            self.blocks_written = written
            if self.compute_cycles_between:
                yield ("compute", self.compute_cycles_between)
