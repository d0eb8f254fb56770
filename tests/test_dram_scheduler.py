"""Unit tests for the priority request queues."""

import pytest

from repro.dram.scheduler import PendingRequest, PriorityFrFcfsScheduler
from repro.sim.packet import MemoryPacket


def make_request(bank=0, row=0, priority=0, enq=0, ds_id=0):
    return PendingRequest(
        packet=MemoryPacket(ds_id=ds_id, addr=0),
        bank_index=bank,
        row=row,
        priority=priority,
        enqueued_at_ps=enq,
        on_response=lambda p: None,
    )


class TestPriorityQueues:
    def test_priority_out_of_range_rejected(self):
        sched = PriorityFrFcfsScheduler(priority_levels=2)
        with pytest.raises(ValueError):
            sched.enqueue(make_request(priority=2))

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PriorityFrFcfsScheduler(0)
