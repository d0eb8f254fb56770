"""Memory request queues: one FIFO per priority class.

PARD's memory control plane adds *priority queueing* in front of the
DRAM scheduler (Fig. 5): requests are steered into per-priority queues
by their DS-id's priority parameter. The controller's arbiter
(:meth:`~repro.dram.controller.MemoryController._pump`) serves the
highest non-empty queue first and, within a queue, strictly in FIFO
order: only the head may dispatch. With a single priority level this is
the baseline ("w/o control plane") configuration of Fig. 11.

The controller appends to and pops from :attr:`queues` directly; a
queued request is a plain tuple, laid out on ``_pump``.
"""

from __future__ import annotations

from collections import deque


class PriorityFrFcfsScheduler:
    """One FIFO queue per priority level (index = priority)."""

    def __init__(self, priority_levels: int = 2):
        if priority_levels <= 0:
            raise ValueError("priority_levels must be positive")
        self.priority_levels = priority_levels
        self.queues: list[deque[tuple]] = [deque() for _ in range(priority_levels)]
