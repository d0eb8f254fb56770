"""Unit tests for the priority FR-FCFS scheduler."""

import pytest

from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityFrFcfsScheduler
from repro.dram.timing import DramTiming
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


def make_banks(n=4):
    return [BankState(i) for i in range(n)]


class TestPriorityQueues:
    def test_high_priority_first(self):
        sched = PriorityFrFcfsScheduler(priority_levels=2)
        sched.enqueue(make_request(priority=0, enq=0, ds_id=1))
        sched.enqueue(make_request(priority=1, enq=100, ds_id=2))
        banks = make_banks()
        chosen = sched.select(banks, now_ps=200)
        assert chosen.packet.ds_id == 2  # newer but higher priority

    def test_priority_out_of_range_rejected(self):
        sched = PriorityFrFcfsScheduler(priority_levels=2)
        with pytest.raises(ValueError):
            sched.enqueue(make_request(priority=2))

    def test_single_level_fifo_baseline(self):
        sched = PriorityFrFcfsScheduler(priority_levels=1)
        sched.enqueue(make_request(enq=10, ds_id=1))
        sched.enqueue(make_request(enq=5, ds_id=2))
        chosen = sched.select(make_banks(), now_ps=100)
        assert chosen.packet.ds_id == 2  # oldest first

    def test_occupancy_tracks_enqueue_and_select(self):
        sched = PriorityFrFcfsScheduler(2)
        sched.enqueue(make_request())
        sched.enqueue(make_request(priority=1))
        assert sched.occupancy == 2
        sched.select(make_banks(), 0)
        assert sched.occupancy == 1

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PriorityFrFcfsScheduler(0)


class TestFrFcfs:
    def test_row_hit_preferred_over_older_miss(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        timing = DramTiming()
        banks[0].record_access(7, 0, 0, timing, 1250, False)  # row 7 open
        sched.enqueue(make_request(bank=0, row=3, enq=0, ds_id=1))   # older, miss
        sched.enqueue(make_request(bank=0, row=7, enq=50, ds_id=2))  # newer, hit
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_oldest_hit_wins_among_hits(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        timing = DramTiming()
        banks[0].record_access(7, 0, 0, timing, 1250, False)
        sched.enqueue(make_request(bank=0, row=7, enq=50, ds_id=1))
        sched.enqueue(make_request(bank=0, row=7, enq=10, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_busy_bank_requests_skipped(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0, enq=0, ds_id=1))
        sched.enqueue(make_request(bank=1, enq=50, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

    def test_returns_none_when_no_bank_ready(self):
        sched = PriorityFrFcfsScheduler(1)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0))
        assert sched.select(banks, now_ps=100) is None
        assert sched.occupancy == 1  # not consumed

    def test_low_priority_served_when_high_bank_busy(self):
        sched = PriorityFrFcfsScheduler(2)
        banks = make_banks()
        banks[0].ready_at_ps = 1_000_000
        sched.enqueue(make_request(bank=0, priority=1, ds_id=1))
        sched.enqueue(make_request(bank=1, priority=0, ds_id=2))
        chosen = sched.select(banks, now_ps=100)
        assert chosen.packet.ds_id == 2

