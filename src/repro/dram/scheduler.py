"""Memory request queues: one FIFO per priority class.

PARD's memory control plane adds *priority queueing* in front of the
DRAM scheduler (Fig. 5): requests are steered into per-priority queues
by their DS-id's priority parameter. The controller's arbiter
(:meth:`~repro.dram.controller.MemoryController._pump`) serves the
highest non-empty queue first and, within a queue, strictly in FIFO
order: only the head may dispatch. With a single priority level this is
the baseline ("w/o control plane") configuration of Fig. 11.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.sim.packet import MemoryPacket


class PendingRequest:
    """A queued memory request with its decoded DRAM coordinates.

    ``ds_id`` is the DS-id used for policy and accounting (the owner's,
    for a writeback); it is derived from the packet when not given.
    """

    __slots__ = (
        "packet", "bank_index", "row", "priority", "enqueued_at_ps",
        "on_response", "issued_at_ps", "ds_id",
    )

    def __init__(
        self,
        packet: MemoryPacket,
        bank_index: int,
        row: int,
        priority: int,
        enqueued_at_ps: int,
        on_response: Callable[[MemoryPacket], None],
        ds_id: Optional[int] = None,
    ):
        self.packet = packet
        self.bank_index = bank_index
        self.row = row
        self.priority = priority
        self.enqueued_at_ps = enqueued_at_ps
        self.on_response = on_response
        self.issued_at_ps: Optional[int] = None
        self.ds_id = packet.effective_ds_id if ds_id is None else ds_id


class PriorityFrFcfsScheduler:
    """One FIFO queue per priority level (index = priority)."""

    def __init__(self, priority_levels: int = 2):
        if priority_levels <= 0:
            raise ValueError("priority_levels must be positive")
        self.priority_levels = priority_levels
        self.queues: list[deque[PendingRequest]] = [
            deque() for _ in range(priority_levels)
        ]

    @property
    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues)

    def queue_depth(self, priority: int) -> int:
        return len(self.queues[priority])

    def enqueue(self, request: PendingRequest) -> None:
        if not 0 <= request.priority < self.priority_levels:
            raise ValueError(
                f"priority {request.priority} out of range "
                f"[0, {self.priority_levels})"
            )
        self.queues[request.priority].append(request)
