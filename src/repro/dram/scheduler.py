"""Memory request queues: priority classes, plus an FR-FCFS reference policy.

PARD's memory control plane adds *priority queueing* in front of the
DRAM scheduler (Fig. 5): requests are steered into per-priority queues
by their DS-id's priority parameter. The controller's arbiter
(:meth:`~repro.dram.controller.MemoryController._pump`) serves the
highest non-empty queue first and, within a queue, strictly in FIFO
order: only the head may dispatch. With a single priority level this is
the baseline ("w/o control plane") configuration of Fig. 11.

:meth:`PriorityFrFcfsScheduler.select` is the alternative FR-FCFS
policy (first-ready = row-buffer hit first, then oldest first [Rixner
et al., ISCA'00]) within the chosen queue. The controller does not use
it; only its unit tests do.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.dram.bank import BankState
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
        self.total_enqueued = 0

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
        self.total_enqueued += 1

    def select(self, banks: list[BankState], now_ps: int) -> Optional[PendingRequest]:
        """Pick (and remove) the next request to issue, or None.

        Highest priority queue first; within a queue, FR-FCFS restricted
        to requests whose bank can accept a command now.
        """
        for priority in range(self.priority_levels - 1, -1, -1):
            queue = self.queues[priority]
            if not queue:
                continue
            chosen = self._fr_fcfs(queue, banks, now_ps)
            if chosen is not None:
                queue.remove(chosen)
                return chosen
        return None

    @staticmethod
    def _fr_fcfs(
        queue: deque[PendingRequest], banks: list[BankState], now_ps: int
    ) -> Optional[PendingRequest]:
        first_ready: Optional[PendingRequest] = None
        oldest: Optional[PendingRequest] = None
        for request in queue:
            bank = banks[request.bank_index]
            if bank.ready_at_ps > now_ps:
                continue  # the bank cannot take a command yet
            if bank.row_state(request.row) == "hit":
                if first_ready is None or request.enqueued_at_ps < first_ready.enqueued_at_ps:
                    first_ready = request
            if oldest is None or request.enqueued_at_ps < oldest.enqueued_at_ps:
                oldest = request
        return first_ready if first_ready is not None else oldest
