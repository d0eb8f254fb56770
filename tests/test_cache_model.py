"""Unit tests for the set-associative cache model."""

import pytest

from tests.helpers import FakeMemory
from repro.cache.cache import Cache, CacheConfig
from repro.cache.control_plane import LlcControlPlane
from repro.cache.mshr import WAY_RESERVED
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket


def make_cache(engine=None, size=8192, ways=4, line=64, hit_lat=2, control=None, mem_lat=50_000):
    engine = engine or Engine()
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=mem_lat)
    config = CacheConfig(
        name="l2", size_bytes=size, ways=ways, line_size=line, hit_latency_cycles=hit_lat
    )
    cache = Cache(engine, clock, config, memory, control=control)
    return engine, cache, memory


def access(engine, cache, addr, ds_id=0, op=MemOp.READ):
    """Issue one access and run to completion; returns (latency_ps, packet)."""
    done = []
    start = engine.now
    pkt = MemoryPacket(ds_id=ds_id, addr=addr, op=op, birth_ps=start)
    cache.handle_request(pkt, lambda p: done.append(engine.now - start))
    engine.run()
    assert done, "access never completed"
    return done[0], pkt


class TestGeometry:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", size_bytes=100, ways=4, line_size=64)
        with pytest.raises(ValueError):
            CacheConfig("bad", size_bytes=0, ways=4)
        with pytest.raises(ValueError):
            CacheConfig("bad", size_bytes=12 * 64 * 4, ways=12)  # non-pow2 ways

    def test_table2_llc_geometry(self):
        # 4MB 16-way with 64B lines -> 4096 sets.
        config = CacheConfig("llc", size_bytes=4 * 1024 * 1024, ways=16)
        assert config.num_sets == 4096

    def test_table2_l1_geometry(self):
        # 64KB 2-way -> 512 sets.
        config = CacheConfig("l1", size_bytes=64 * 1024, ways=2)
        assert config.num_sets == 512


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        engine, cache, memory = make_cache()
        miss_lat, _ = access(engine, cache, 0x1000)
        hit_lat, _ = access(engine, cache, 0x1000)
        assert cache.total_misses == 1
        assert cache.total_hits == 1
        assert miss_lat > hit_lat
        assert len(memory.requests) == 1

    def test_hit_latency_is_configured_cycles(self):
        engine, cache, _ = make_cache(hit_lat=20)
        access(engine, cache, 0x40)
        hit_lat, _ = access(engine, cache, 0x40)
        assert hit_lat == 20 * CPU_CLOCK_PS

    def test_same_line_different_offset_hits(self):
        engine, cache, memory = make_cache()
        access(engine, cache, 0x1000)
        access(engine, cache, 0x1030)  # same 64B line
        assert cache.total_hits == 1
        assert len(memory.requests) == 1

    def test_dsid_mismatch_is_a_miss(self):
        # PARD Fig. 4: a hit requires both tag match and owner-DS-id match.
        engine, cache, memory = make_cache()
        access(engine, cache, 0x1000, ds_id=1)
        access(engine, cache, 0x1000, ds_id=2)
        assert cache.total_misses == 2
        assert len(memory.requests) == 2

    def test_write_allocates_and_marks_dirty(self):
        engine, cache, memory = make_cache()
        access(engine, cache, 0x1000, op=MemOp.WRITE)
        assert cache.total_misses == 1
        # Evict the line by filling the set; a writeback must be issued.
        config = cache.config
        set_stride = config.num_sets * config.line_size
        for i in range(1, config.ways + 1):
            access(engine, cache, 0x1000 + i * set_stride)
        writebacks = memory.requests_of(op=MemOp.WRITEBACK)
        assert len(writebacks) == 1
        assert writebacks[0].addr == 0x1000

    def test_clean_eviction_has_no_writeback(self):
        engine, cache, memory = make_cache()
        config = cache.config
        set_stride = config.num_sets * config.line_size
        for i in range(config.ways + 2):
            access(engine, cache, i * set_stride)
        assert memory.requests_of(op=MemOp.WRITEBACK) == []

    def test_capacity_evictions_cycle_the_set(self):
        engine, cache, memory = make_cache(ways=2)
        stride = cache.config.num_sets * cache.config.line_size
        for i in range(4):
            access(engine, cache, i * stride)
        # Re-access the first line: must have been evicted (2-way set).
        access(engine, cache, 0)
        assert cache.total_misses == 5


def make_hierarchy(engine=None):
    """An L1 in front of an LLC with a control plane, over FakeMemory."""
    engine = engine or Engine()
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine)
    llc = Cache(
        engine, clock, CacheConfig("llc", size_bytes=16 * 4 * 64, ways=4),
        memory, control=LlcControlPlane(engine, num_ways=4),
    )
    l1 = Cache(engine, clock, CacheConfig("l1", size_bytes=4 * 2 * 64, ways=2), llc)
    return engine, l1, llc, memory


def is_dirty(cache, addr, ds_id=0):
    """The dirty bit of the valid line holding ``addr`` for ``ds_id``."""
    block = addr // cache.config.line_size
    cache_set = cache._sets[block % cache.config.num_sets]
    way = cache_set.index[(block // cache.config.num_sets) << 16 | ds_id]
    return bool(cache_set.dirty >> way & 1)


def mshr_key(line_addr, ds_id, line_size=64):
    """The MSHR file's key of ``ds_id``'s fill of the line at ``line_addr``."""
    return (line_addr // line_size) << 16 | ds_id


class TestMissForwarding:
    """A line-aligned, line-sized READ that misses is its own fill."""

    def test_aligned_read_miss_forwards_the_same_packet(self):
        engine, cache, memory = make_cache()
        _, pkt = access(engine, cache, 0x1000, ds_id=3)
        assert len(memory.requests) == 1
        assert memory.requests[0] is pkt

    def test_aligned_read_is_forwarded_through_both_levels(self):
        engine, l1, llc, memory = make_hierarchy()
        _, pkt = access(engine, l1, 0x1000)
        assert (l1.total_misses, llc.total_misses) == (1, 1)
        assert memory.requests == [pkt]
        assert memory.requests[0] is pkt

    def test_store_miss_sends_a_read_line_fill(self):
        engine, l1, llc, memory = make_hierarchy()
        _, pkt = access(engine, l1, 0x1000, op=MemOp.WRITE)
        [fill] = memory.requests
        assert fill is not pkt
        assert (fill.op, fill.addr, fill.size) == (MemOp.READ, 0x1000, 64)
        # The store dirties the line in the L1 only: the LLC holds a
        # clean copy until the L1 writes it back.
        assert is_dirty(l1, 0x1000)
        assert not is_dirty(llc, 0x1000)

    def test_unaligned_read_gets_a_fresh_fill_at_the_line_address(self):
        engine, cache, memory = make_cache()
        _, pkt = access(engine, cache, 0x1030, ds_id=2)
        [fill] = memory.requests
        assert fill is not pkt
        assert (fill.op, fill.addr, fill.size, fill.ds_id) == (MemOp.READ, 0x1000, 64, 2)
        assert pkt.addr == 0x1030


class TestStoreHitDirtiesTheLine:
    """A store that hits a clean line dirties it, on both hit paths: the
    synchronous ``access()`` an upper level calls and the event-driven
    ``_lookup`` that ``handle_request`` schedules."""

    @pytest.mark.parametrize("path", ["access", "lookup"])
    def test_store_hit_dirties_a_clean_line(self, path):
        engine, cache, memory = make_cache()
        access(engine, cache, 0x1000)  # a read miss fills a clean line
        assert not is_dirty(cache, 0x1000)
        store = MemoryPacket(addr=0x1000, op=MemOp.WRITE)
        if path == "access":
            assert cache.access(store, None) == cache._hit_latency_ps
        else:
            done = []
            cache.handle_request(store, done.append)
            engine.run()
            assert done == [store]
        assert (cache.total_hits, cache.total_misses) == (1, 1)
        assert is_dirty(cache, 0x1000)
        # Evicting the line writes it back, once.
        stride = cache.config.num_sets * cache.config.line_size
        for i in range(1, cache.config.ways + 1):
            access(engine, cache, 0x1000 + i * stride)
        writebacks = memory.requests_of(op=MemOp.WRITEBACK)
        assert [(wb.addr, wb.ds_id) for wb in writebacks] == [(0x1000, 0)]


class TestWritebackDsid:
    def test_writeback_carries_owner_dsid(self):
        # The block is dirtied by DS-id 2; DS-id 1 later causes the
        # eviction. The DRAM-bound writeback must be charged to DS-id 2.
        engine, cache, memory = make_cache(ways=2)
        stride = cache.config.num_sets * cache.config.line_size
        access(engine, cache, 0x0, ds_id=2, op=MemOp.WRITE)
        access(engine, cache, stride, ds_id=1)
        access(engine, cache, 2 * stride, ds_id=1)
        access(engine, cache, 3 * stride, ds_id=1)
        writebacks = memory.requests_of(op=MemOp.WRITEBACK)
        assert len(writebacks) == 1
        assert writebacks[0].ds_id == 2


class TestMshrBehaviour:
    def test_concurrent_misses_to_same_line_merge(self):
        engine, cache, memory = make_cache()
        done = []
        for _ in range(3):
            pkt = MemoryPacket(ds_id=1, addr=0x2000)
            cache.handle_request(pkt, lambda p: done.append(engine.now))
        engine.run()
        assert len(done) == 3
        assert len(memory.requests) == 1  # one fill serves all three

    def test_mshr_full_retries_and_completes(self):
        engine, cache, memory = make_cache()
        cache.mshrs.num_entries = 1
        done = []
        for i in range(3):
            pkt = MemoryPacket(ds_id=1, addr=0x1000 * (i + 1))
            cache.handle_request(pkt, lambda p: done.append(p.addr))
        engine.run(until_ps=10_000)
        # A full file stalls the other two misses: they retry and hold
        # no MSHR entry until the first fill retires its entry.
        assert list(cache.mshrs.entries) == [mshr_key(0x1000, 1)]
        assert cache.mshrs.primary_misses == 1
        engine.run()
        assert len(done) == 3
        assert len(memory.requests) == 3
        assert cache.mshrs.primary_misses == 3
        assert cache.mshrs.entries == {}

    def test_mshr_full_retry_reserves_no_way(self):
        """A stalled miss backs off without reserving a way; only a
        primary miss that got an MSHR holds a reservation."""
        engine, cache, memory = make_cache(ways=4, mem_lat=50_000)
        cache.mshrs.num_entries = 1
        set_stride = cache.config.num_sets * cache.config.line_size
        done = []
        for i in range(2):  # two lines of set 0
            pkt = MemoryPacket(ds_id=1, addr=i * set_stride)
            cache.handle_request(pkt, lambda p: done.append(p.addr))
        engine.run(until_ps=20_000)  # both looked up; the second retries
        assert cache.mshrs.occupancy == 1
        assert list(cache.mshrs.entries) == [mshr_key(0, 1)]
        reserved = [w for w, key in enumerate(cache._sets[0].keys) if key == WAY_RESERVED]
        assert reserved == [cache.mshrs.entries[mshr_key(0, 1)].way]
        assert len(memory.requests) == 1
        engine.run()
        assert sorted(done) == [0, set_stride]
        assert cache.mshrs.entries == {}
        assert cache.occupancy_blocks(1) == 2

    def test_fill_without_reservation_is_an_error(self):
        """Every fill callback follows a reservation of its MSHR key; a
        fill that finds none is a model bug, not a case to paper over."""
        engine, cache, memory = make_cache()
        cache.handle_request(MemoryPacket(ds_id=1, addr=0x40), lambda p: None)
        engine.run(until_ps=10_000)
        fill = cache.mshrs.entries[mshr_key(0x40, 1)].fill
        engine.run()
        assert cache.mshrs.entries == {}
        with pytest.raises(RuntimeError, match="no reserved way"):
            fill()
        # An entry for another DS-id of the same line does not count.
        cache.handle_request(MemoryPacket(ds_id=2, addr=0x40), lambda p: None)
        engine.run(until_ps=engine.now + 10_000)
        assert list(cache.mshrs.entries) == [mshr_key(0x40, 2)]
        with pytest.raises(RuntimeError, match="no reserved way"):
            fill(memory.requests[0])
        assert list(cache.mshrs.entries) == [mshr_key(0x40, 2)]
        assert cache.occupancy_blocks(1) == 1
        engine.run()
        assert cache.mshrs.entries == {}
        assert cache.occupancy_blocks(2) == 1


class TestOccupancyAccounting:
    def make_llc(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        control.allocate_ldom(2)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine)
        config = CacheConfig("llc", size_bytes=4 * 4 * 64, ways=4)  # 4 sets
        cache = Cache(engine, clock, config, memory, control=control)
        return engine, cache, control

    def test_fill_and_eviction_tracked(self):
        engine, cache, control = self.make_llc()
        for i in range(4):
            access(engine, cache, i * 4 * 64, ds_id=1)  # 4 lines, one set
        assert control.occupancy_bytes(1) == 4 * 64
        # DS-id 2 steals one way.
        access(engine, cache, 0x10000, ds_id=2)
        assert control.occupancy_bytes(2) == 64
        assert control.occupancy_bytes(1) == 3 * 64

    def test_occupancy_matches_tag_array_scan(self):
        engine, cache, control = self.make_llc()
        for i in range(10):
            access(engine, cache, i * 64, ds_id=1)
        for i in range(5):
            access(engine, cache, i * 64, ds_id=2)
        assert control.occupancy_bytes(1) == cache.occupancy_blocks(1) * 64
        assert control.occupancy_bytes(2) == cache.occupancy_blocks(2) * 64


class TestWayPartitioning:
    def make_partitioned(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1, waymask=0b0011)
        control.allocate_ldom(2, waymask=0b1100)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine)
        config = CacheConfig("llc", size_bytes=1 * 4 * 64, ways=4)  # 1 set
        cache = Cache(engine, clock, config, memory, control=control)
        return engine, cache, control

    def test_partition_prevents_cross_eviction(self):
        engine, cache, control = self.make_partitioned()
        # DS-id 1 fills its 2 ways.
        access(engine, cache, 0, ds_id=1)
        access(engine, cache, 64 * 1, ds_id=1)  # one set: stride = 64
        # DS-id 2 streams many lines; confined to its own 2 ways.
        for i in range(10):
            access(engine, cache, (i + 8) * 64, ds_id=2)
        # DS-id 1's lines must still be resident: re-access hits.
        hits_before = cache.total_hits
        access(engine, cache, 0, ds_id=1)
        access(engine, cache, 64, ds_id=1)
        assert cache.total_hits == hits_before + 2
        assert cache.occupancy_blocks(2) <= 2

    def test_unpartitioned_sharing_allows_theft(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        control.allocate_ldom(2)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine)
        config = CacheConfig("llc", size_bytes=1 * 4 * 64, ways=4)
        cache = Cache(engine, clock, config, memory, control=control)
        access(engine, cache, 0, ds_id=1)
        for i in range(8):
            access(engine, cache, (i + 8) * 64, ds_id=2)
        hits_before = cache.total_hits
        access(engine, cache, 0, ds_id=1)  # evicted by ds2's stream
        assert cache.total_hits == hits_before

    def test_mask_reprogram_takes_effect_on_new_fills(self):
        engine, cache, control = self.make_partitioned()
        control.parameters.set(2, "waymask", 0b1111)  # give ds2 everything
        for i in range(10):
            access(engine, cache, (i + 8) * 64, ds_id=2)
        assert cache.occupancy_blocks(2) == 4


class TestControlPlaneBinding:
    def test_way_count_mismatch_rejected(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=16)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine)
        config = CacheConfig("llc", size_bytes=4 * 4 * 64, ways=4)
        with pytest.raises(ValueError):
            Cache(engine, clock, config, memory, control=control)

    def test_miss_rate_published_per_window(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine)
        config = CacheConfig("llc", size_bytes=4 * 4 * 64, ways=4)
        cache = Cache(engine, clock, config, memory, control=control)
        access(engine, cache, 0, ds_id=1)      # miss
        access(engine, cache, 0, ds_id=1)      # hit
        access(engine, cache, 64, ds_id=1)     # miss
        access(engine, cache, 64, ds_id=1)     # hit
        control.roll_window()
        assert control.statistics.get(1, "miss_rate") == 5000  # 50% in bp
        assert control.statistics.get(1, "hit_cnt") == 2
        assert control.statistics.get(1, "miss_cnt") == 2
        assert control.last_window_miss_rate(1) == pytest.approx(0.5)

    def test_idle_window_keeps_previous_rate(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        config = CacheConfig("llc", size_bytes=4 * 4 * 64, ways=4)
        cache = Cache(engine, clock, config, FakeMemory(engine), control=control)
        access(engine, cache, 0, ds_id=1)
        control.roll_window()
        first = control.statistics.get(1, "miss_rate")
        control.roll_window()  # no accesses this window
        assert control.statistics.get(1, "miss_rate") == first


class TestWindowCounts:
    """The LLC counts hits and misses into the plane's open window, which
    each roll publishes and clears."""

    def make(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        config = CacheConfig("llc", size_bytes=4 * 4 * 64, ways=4)
        cache = Cache(engine, clock, config, FakeMemory(engine), control=control)
        return engine, cache, control

    def test_roll_publishes_window_counts(self):
        engine, cache, control = self.make()
        access(engine, cache, 0, ds_id=1)      # miss
        access(engine, cache, 0, ds_id=1)      # hit
        access(engine, cache, 0, ds_id=1)      # hit
        assert (control.window_hits[1], control.window_misses[1]) == (2, 1)
        control.roll_window()
        assert control.statistics.get(1, "hit_cnt") == 2
        assert control.statistics.get(1, "miss_cnt") == 1
        assert 1 not in control.window_hits and 1 not in control.window_misses

    def test_consecutive_windows_independent(self):
        engine, cache, control = self.make()
        access(engine, cache, 0, ds_id=1)      # miss
        control.roll_window()
        assert control.statistics.get(1, "miss_rate") == 10_000
        access(engine, cache, 0, ds_id=1)      # hit
        control.roll_window()
        # The second window saw only its own hit.
        assert control.statistics.get(1, "miss_rate") == 0
        assert control.statistics.get(1, "hit_cnt") == 1
        assert control.statistics.get(1, "miss_cnt") == 1

    def test_empty_window_publishes_zero(self):
        engine, cache, control = self.make()
        access(engine, cache, 0, ds_id=1)
        control.roll_window()
        control.roll_window()                  # no accesses this window
        assert control.statistics.get(1, "miss_cnt") == 1
        assert control.statistics.get(1, "hit_cnt") == 0

    def test_untracked_dsid_is_counted_but_not_published(self):
        engine, cache, control = self.make()
        access(engine, cache, 0, ds_id=9)
        control.roll_window()
        assert control.window_misses == {9: 1}
        assert not control.statistics.has(9)
