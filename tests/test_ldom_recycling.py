"""LDom destruction must flush caches and recycle memory windows."""

import pytest

from tests.helpers import FakeMemory
from repro.cache.cache import Cache, CacheConfig
from repro.cache.control_plane import LlcControlPlane
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket
from repro.system.config import TABLE2
from repro.system.server import PardServer
from repro.workloads.stream import Stream


class TestCacheFlushDsid:
    def make_cache(self):
        engine = Engine()
        control = LlcControlPlane(engine, num_ways=4)
        control.allocate_ldom(1)
        control.allocate_ldom(2)
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine, latency_ps=1000)
        config = CacheConfig("c", size_bytes=8 * 4 * 64, ways=4)
        cache = Cache(engine, clock, config, memory, control=control)
        return engine, cache, control, memory

    def fill(self, engine, cache, ds_id, lines, write=False):
        for i in range(lines):
            pkt = MemoryPacket(
                ds_id=ds_id, addr=i * 64,
                op=MemOp.WRITE if write else MemOp.READ,
            )
            cache.handle_request(pkt, lambda p: None)
            engine.run()

    def test_flush_removes_only_target_dsid(self):
        engine, cache, control, _ = self.make_cache()
        self.fill(engine, cache, 1, 8)
        self.fill(engine, cache, 2, 8)
        flushed = cache.flush_dsid(1)
        assert flushed == 8
        assert cache.occupancy_blocks(1) == 0
        assert cache.occupancy_blocks(2) == 8
        assert control.occupancy_bytes(1) == 0

    def test_flush_writes_back_dirty_lines(self):
        engine, cache, control, memory = self.make_cache()
        self.fill(engine, cache, 1, 4, write=True)
        cache.flush_dsid(1)
        writebacks = memory.requests_of(op=MemOp.WRITEBACK)
        assert len(writebacks) == 4
        assert all(p.ds_id == 1 for p in writebacks)

    def test_flush_clean_lines_no_writeback(self):
        engine, cache, control, memory = self.make_cache()
        self.fill(engine, cache, 1, 4, write=False)
        cache.flush_dsid(1)
        assert memory.requests_of(op=MemOp.WRITEBACK) == []

    def test_flushed_lines_miss_afterwards(self):
        engine, cache, _, _ = self.make_cache()
        self.fill(engine, cache, 1, 4)
        cache.flush_dsid(1)
        misses_before = cache.total_misses
        self.fill(engine, cache, 1, 4)
        assert cache.total_misses == misses_before + 4


class TestLDomRecycling:
    def test_destroy_then_create_reuses_memory_window(self):
        server = PardServer(TABLE2.scaled(32))
        fw = server.firmware
        first = fw.create_ldom("a", (0,), 4 << 20)
        first_base = first.memory.base
        fw.destroy_ldom("a")
        second = fw.create_ldom("b", (0,), 4 << 20)
        assert second.memory.base == first_base
        assert second.ds_id != first.ds_id  # DS-ids are never recycled

    def test_destroy_flushes_llc_footprint(self):
        server = PardServer(TABLE2.scaled(32))
        fw = server.firmware
        ldom = fw.create_ldom("a", (0,), 4 << 20)
        server.start()
        fw.launch_ldom("a", {0: Stream(array_bytes=32 << 10, write_fraction=0.5)})
        server.run_ms(0.5)
        assert server.llc.occupancy_blocks(ldom.ds_id) > 0
        fw.destroy_ldom("a")
        assert server.llc.occupancy_blocks(ldom.ds_id) == 0

    def test_out_of_memory_recovers_after_destroy(self):
        server = PardServer(TABLE2.scaled(32))
        fw = server.firmware
        capacity = server.config.dram_geometry.capacity_bytes
        fw.create_ldom("big", (0,), capacity // 2)
        with pytest.raises(Exception):
            fw.create_ldom("too-big", (1,), capacity)
        fw.destroy_ldom("big")
        fw.create_ldom("big2", (1,), capacity // 2)
