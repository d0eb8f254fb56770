"""Unit tests for MSHRs.

The MSHR file is plain state that :class:`~repro.cache.cache.Cache`
manages inline, so its behaviour is tested through ``handle_request``.
"""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket
from tests.helpers import FakeMemory
from tests.test_cache_model import mshr_key


def make_cache(mshr_entries=4):
    """A 4-way, 32-set cache over a 50 ns memory."""
    engine = Engine()
    config = CacheConfig("l2", size_bytes=8192, ways=4, mshr_entries=mshr_entries)
    memory = FakeMemory(engine, latency_ps=50_000)
    cache = Cache(engine, ClockDomain(engine, CPU_CLOCK_PS), config, memory)
    return engine, cache, memory


def issue(cache, addr, ds_id=1, op=MemOp.READ, on_response=lambda p: None):
    cache.handle_request(MemoryPacket(ds_id=ds_id, addr=addr, op=op), on_response)


# Every lookup has happened, no fill has returned.
MID_MISS_PS = 10_000


class TestMshrFile:
    def test_primary_allocation(self):
        engine, cache, memory = make_cache()
        issue(cache, 0x100)
        engine.run(until_ps=MID_MISS_PS)
        mshrs = cache.mshrs
        assert list(mshrs.entries) == [mshr_key(0x100, 1)]
        assert mshrs.occupancy == 1
        assert mshrs.primary_misses == 1
        assert mshrs.secondary_misses == 0
        assert len(memory.requests) == 1
        engine.run()
        assert mshrs.occupancy == 0

    def test_secondary_miss_merges(self):
        engine, cache, memory = make_cache()
        issue(cache, 0x100)
        issue(cache, 0x120)  # same 64B line
        engine.run(until_ps=MID_MISS_PS)
        assert cache.mshrs.occupancy == 1
        assert cache.mshrs.primary_misses == 1
        assert cache.mshrs.secondary_misses == 1
        engine.run()
        assert len(memory.requests) == 1

    def test_same_line_different_dsid_gets_own_entry(self):
        # Two LDoms can miss on the same LDom-physical line; these are
        # different blocks and need different fills (PARD Fig. 4).
        engine, cache, memory = make_cache()
        issue(cache, 0x100, ds_id=1)
        issue(cache, 0x100, ds_id=2)
        engine.run(until_ps=MID_MISS_PS)
        assert sorted(cache.mshrs.entries) == [mshr_key(0x100, 1), mshr_key(0x100, 2)]
        assert cache.mshrs.primary_misses == 2
        engine.run()
        assert [(p.addr, p.ds_id) for p in memory.requests] == [(0x100, 1), (0x100, 2)]
        assert cache.occupancy_blocks(1) == cache.occupancy_blocks(2) == 1

    def test_full_raises(self):
        """A full file refuses a new primary miss: instead of raising to
        the requester, the cache holds it back until an entry retires."""
        engine, cache, memory = make_cache(mshr_entries=1)
        done = []
        issue(cache, 0x100, on_response=done.append)
        issue(cache, 0x200, ds_id=2, on_response=done.append)
        engine.run(until_ps=MID_MISS_PS)
        assert list(cache.mshrs.entries) == [mshr_key(0x100, 1)]
        assert cache.mshrs.primary_misses == 1
        assert [(p.addr, p.ds_id) for p in memory.requests] == [(0x100, 1)]
        assert done == []
        engine.run()
        assert [(p.addr, p.ds_id) for p in done] == [(0x100, 1), (0x200, 2)]
        assert [(p.addr, p.ds_id) for p in memory.requests] == [(0x100, 1), (0x200, 2)]
        assert cache.mshrs.primary_misses == 2
        assert cache.mshrs.occupancy == 0

    def test_merge_allowed_when_full(self):
        engine, cache, memory = make_cache(mshr_entries=1)
        done = []
        issue(cache, 0x100, on_response=done.append)
        issue(cache, 0x100, on_response=done.append)
        engine.run(until_ps=MID_MISS_PS)
        # The second miss merged into the full file instead of retrying.
        assert cache.mshrs.secondary_misses == 1
        assert cache.total_misses == 2
        engine.run()
        assert len(done) == 2
        assert len(memory.requests) == 1
        assert cache.total_misses == 2

    def test_complete_notifies_waiters_in_order(self):
        engine, cache, _memory = make_cache()
        woken = []
        for name in "abc":
            issue(cache, 0x100, on_response=lambda p, name=name: woken.append(name))
        engine.run()
        assert woken == ["a", "b", "c"]
        assert cache.mshrs.occupancy == 0

    def test_write_intent_is_sticky(self):
        # A read then a write to the in-flight line: the installed line
        # is dirty, so evicting it writes it back.
        engine, cache, memory = make_cache()
        issue(cache, 0x100, op=MemOp.READ)
        issue(cache, 0x100, op=MemOp.WRITE)
        engine.run()
        set_stride = cache.config.num_sets * cache.config.line_size
        for i in range(1, cache.config.ways + 1):
            issue(cache, 0x100 + i * set_stride)
            engine.run()
        assert [p.addr for p in memory.requests_of(op=MemOp.WRITEBACK)] == [0x100]

    def test_complete_unknown_raises(self):
        # A second fill of a line whose entry has already retired has
        # nothing to complete; it must not install the line again.
        engine, cache, _memory = make_cache()
        issue(cache, 0x100)
        engine.run(until_ps=MID_MISS_PS)
        fill = cache.mshrs.entries[mshr_key(0x100, 1)].fill
        engine.run()
        assert cache.mshrs.occupancy == 0
        with pytest.raises(RuntimeError, match="no reserved way"):
            fill()
        assert cache.mshrs.occupancy == 0
        assert cache.occupancy_blocks(1) == 1

    def test_retired_fill_leaves_a_new_entry_of_its_key(self):
        # A fill of a retired entry must not retire a later entry of the
        # same line and DS-id.
        engine, cache, _memory = make_cache()
        issue(cache, 0x100)
        engine.run(until_ps=MID_MISS_PS)
        stale = cache.mshrs.entries[mshr_key(0x100, 1)].fill
        engine.run()
        cache.flush_dsid(1)
        issue(cache, 0x100)
        engine.run(until_ps=engine.now + MID_MISS_PS)
        entry = cache.mshrs.entries[mshr_key(0x100, 1)]
        with pytest.raises(RuntimeError, match="no reserved way"):
            stale()
        assert cache.mshrs.entries == {mshr_key(0x100, 1): entry}
        engine.run()
        assert cache.mshrs.occupancy == 0
        assert cache.occupancy_blocks(1) == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_cache(mshr_entries=0)

