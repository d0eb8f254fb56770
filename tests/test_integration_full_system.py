"""Full-system integration tests.

These run short versions of the paper's scenarios end-to-end: LDoms are
created and launched through the firmware, traffic flows through tagged
cores -> L1 -> LLC -> DRAM and the bridge/IDE path, statistics are read
back through the device file tree, and triggers repartition the cache.
"""

import pytest

from repro.sim.packet import MemoryPacket
from repro.cpu.core import CoreState
from repro.prm.rules import partition_llc_action
from repro.system.config import TABLE2
from repro.system.invariants import check_invariants
from repro.system.server import PardServer
from repro.workloads.cacheflush import CacheFlush
from repro.workloads.diskio import DiskCopy
from repro.workloads.memcached import MemcachedServer
from repro.workloads.stream import Stream


def small_server():
    return PardServer(TABLE2.scaled(32))


class TestTaggedMemoryPath:
    def test_two_ldoms_same_ldom_address_do_not_alias(self):
        """LDoms both write LDom-address 0; the memory control plane maps
        them to different DRAM rows and the LLC keeps both blocks."""
        server = small_server()
        fw = server.firmware
        a = fw.create_ldom("a", (0,), 1 << 20)
        b = fw.create_ldom("b", (1,), 1 << 20)
        fw.launch_ldom("a", {0: Stream(array_bytes=64 * 64, write_fraction=0)})
        fw.launch_ldom("b", {1: Stream(array_bytes=64 * 64, write_fraction=0)})
        server.run_ms(0.2)
        assert server.llc.occupancy_blocks(a.ds_id) > 0
        assert server.llc.occupancy_blocks(b.ds_id) > 0
        # DRAM traffic was translated into disjoint windows.
        assert server.memory_control.mapping(a.ds_id).overlaps(
            server.memory_control.mapping(b.ds_id)
        ) is False
        check_invariants(server)

    def test_cacheflush_steals_unpartitioned_llc(self):
        server = small_server()
        fw = server.firmware
        victim = fw.create_ldom("victim", (0,), 1 << 20)
        flusher = fw.create_ldom("flusher", (1,), 1 << 20)
        server.start()
        # A low-intensity victim: it cannot defend its lines by re-touch.
        victim_workload = Stream(
            array_bytes=32 << 10, write_fraction=0, compute_cycles_per_batch=4000
        )
        fw.launch_ldom("victim", {0: victim_workload})
        server.run_ms(1.0)
        occupancy_before = server.llc_control.occupancy_bytes(victim.ds_id)
        fw.launch_ldom("flusher", {1: CacheFlush(flush_bytes=1 << 20)})
        server.run_ms(1.0)
        occupancy_after = server.llc_control.occupancy_bytes(victim.ds_id)
        assert occupancy_after < occupancy_before
        check_invariants(server)

    def test_waymask_echo_protects_occupancy(self):
        server = small_server()
        fw = server.firmware
        victim = fw.create_ldom("victim", (0,), 1 << 20)
        flusher = fw.create_ldom("flusher", (1,), 1 << 20)
        # Partition up front: victim gets half the ways exclusively.
        fw.sh(f"echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom{victim.ds_id}/parameters/waymask")
        fw.sh(f"echo 0x00FF > /sys/cpa/cpa0/ldoms/ldom{flusher.ds_id}/parameters/waymask")
        server.start()
        victim_workload = Stream(
            array_bytes=16 << 10, write_fraction=0, compute_cycles_per_batch=4000
        )
        fw.launch_ldom("victim", {0: victim_workload})
        server.run_ms(1.0)
        occupancy_before = server.llc_control.occupancy_bytes(victim.ds_id)
        fw.launch_ldom("flusher", {1: CacheFlush(flush_bytes=1 << 20)})
        server.run_ms(1.0)
        occupancy_after = server.llc_control.occupancy_bytes(victim.ds_id)
        assert occupancy_after >= occupancy_before * 0.9
        check_invariants(server)


class TestTriggerEndToEnd:
    @pytest.mark.slow
    def test_miss_rate_trigger_repartitions_llc(self):
        server = PardServer(TABLE2.scaled(16))
        fw = server.firmware
        mc = fw.create_ldom("mc", (0,), 1 << 20, priority=1)
        fw.register_script(
            "/t.sh", partition_llc_action(num_ways=16, share=0.5)
        )
        fw.sh(f"pardtrigger /dev/cpa0 -ldom={mc.ds_id} -action=0 -stats=miss_rate -cond=gt,10")
        fw.sh(f"echo /t.sh > /sys/cpa/cpa0/ldoms/ldom{mc.ds_id}/triggers/0")
        server.start()
        workload = MemcachedServer(
            server.engine, rps=200_000, working_set_bytes=96 << 10,
            loads_per_request=60, mlp=1, warmup_ps=0,
        )
        fw.launch_ldom("mc", {0: workload})
        for i in (1, 2):
            fw.create_ldom(f"bg{i}", (i,), 1 << 20)
            fw.launch_ldom(f"bg{i}", {i: CacheFlush(flush_bytes=512 << 10)})
        server.run_ms(5)
        mask = int(fw.cat(f"/sys/cpa/cpa0/ldoms/ldom{mc.ds_id}/parameters/waymask"))
        assert mask == 0xFF00
        assert server.llc_control.interrupts_raised >= 1
        assert workload.requests_served > 0
        check_invariants(server)

    def test_statistics_visible_through_sysfs(self):
        server = small_server()
        fw = server.firmware
        ldom = fw.create_ldom("a", (0,), 1 << 20)
        server.start()
        fw.launch_ldom("a", {0: Stream(array_bytes=256 << 10)})
        server.run_ms(2.1)
        base = f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics"
        assert int(fw.cat(f"{base}/miss_cnt")) > 0
        assert int(fw.cat(f"{base}/capacity")) > 0
        mem_bw = int(fw.cat(f"/sys/cpa/cpa1/ldoms/ldom{ldom.ds_id}/statistics/bandwidth"))
        assert mem_bw > 0
        check_invariants(server)


class TestDiskPathEndToEnd:
    def test_dd_through_bridge_ide_dma_interrupt(self):
        server = small_server()
        fw = server.firmware
        ldom = fw.create_ldom("writer", (0,), 1 << 20)
        server.start()
        dd = DiskCopy(block_bytes=256 << 10, count=2, compute_cycles_between=100)
        fw.launch_ldom("writer", {0: dd})
        server.run_ms(20)
        assert dd.blocks_written == 2
        assert server.ide.completed_transfers == 2
        # Completion interrupts were tagged and routed to the LDom's core.
        assert server.apic.delivered >= 2
        assert server.apic.dropped == 0
        # The DMA traffic hit DRAM under the LDom's DS-id.
        assert server.memory_control.statistics.get(ldom.ds_id, "serv_cnt") > 0
        check_invariants(server)

    def test_one_percent_disk_share_is_served(self):
        """A 1% share earns 1% of a chunk per DRR turn; alone on the disk
        its 1 MiB blocks still complete, at the full disk bandwidth."""
        server = small_server()
        fw = server.firmware
        fw.create_ldom("slow", (0,), 1 << 20, disk_share=1)
        server.start()
        dd = DiskCopy(block_bytes=1 << 20, count=2, compute_cycles_between=100)
        fw.launch_ldom("slow", {0: dd})
        server.run_ms(40)
        assert dd.blocks_written == 2
        assert server.ide.completed_transfers == 2
        check_invariants(server)

    def test_disk_quota_shifts_throughput(self):
        server = small_server()
        fw = server.firmware
        a = fw.create_ldom("a", (0,), 1 << 20, disk_share=80)
        b = fw.create_ldom("b", (1,), 1 << 20, disk_share=20)
        server.start()
        # Large blocks, as in the paper's dd bs=32M: the queue stays
        # backlogged so the DRR weights fully express themselves.
        dd_a = DiskCopy(block_bytes=4 << 20, count=0, compute_cycles_between=0)
        dd_b = DiskCopy(block_bytes=4 << 20, count=0, compute_cycles_between=0)
        fw.launch_ldom("a", {0: dd_a})
        fw.launch_ldom("b", {1: dd_b})
        server.run_ms(300)
        bytes_a = server.ide_control.statistics.get(a.ds_id, "bytes_total")
        bytes_b = server.ide_control.statistics.get(b.ds_id, "bytes_total")
        assert bytes_a / bytes_b == pytest.approx(4.0, rel=0.3)
        check_invariants(server)


class TestSoloVsSharedUtilization:
    def test_colocation_raises_utilization_4x(self):
        """The headline claim: co-location takes the server from 25% to
        100% CPU utilization (4x)."""
        server = PardServer(TABLE2.scaled(16))
        fw = server.firmware
        fw.create_ldom("mc", (0,), 1 << 20)
        mc = MemcachedServer(server.engine, rps=100_000, working_set_bytes=64 << 10,
                             loads_per_request=20, warmup_ps=0)
        server.start()
        fw.launch_ldom("mc", {0: mc})
        server.run_ms(0.5)
        solo_util = server.cpu_utilization()
        for i in (1, 2, 3):
            fw.create_ldom(f"bg{i}", (i,), 1 << 20)
            fw.launch_ldom(f"bg{i}", {i: Stream(array_bytes=256 << 10)})
        server.run_ms(0.5)
        shared_util = server.cpu_utilization()
        assert shared_util == pytest.approx(4 * solo_util)
        assert shared_util == 1.0
        check_invariants(server)


class TestRuntimeInvariants:
    def drained_server(self, ldoms=("a",)):
        """Finite flushes with no statistics windows: the run drains."""
        server = small_server()
        for core_id, name in enumerate(ldoms):
            server.firmware.create_ldom(name, (core_id,), 1 << 20)
            server.firmware.launch_ldom(
                name, {core_id: CacheFlush(flush_bytes=64 << 10, passes=1)}
            )
        server.engine.run()
        assert server.engine.pending_events == 0
        return server

    def published_server(self, ldoms=("a",)):
        """A drained server whose LLC and memory windows were published."""
        server = self.drained_server(ldoms)
        server.llc_control.roll_window()
        server.memory_control.roll_window()
        return server

    def test_drained_server_holds_every_invariant(self):
        server = self.drained_server()
        assert server.llc.mshrs.primary_misses > 0
        check_invariants(server)

    def test_corrupted_free_bit_raises(self):
        server = self.drained_server()
        cache_set = next(iter(server.llc._sets.values()))
        cache_set.free ^= 1
        with pytest.raises(RuntimeError, match="free mask"):
            check_invariants(server)

    def test_corrupted_set_index_raises(self):
        server = self.drained_server()
        cache_set = next(s for s in server.llc._sets.values() if s.index)
        cache_set.index.popitem()
        with pytest.raises(RuntimeError, match="index disagrees"):
            check_invariants(server)

    def test_mshr_over_occupancy_raises(self):
        server = self.drained_server()
        mshrs = server.l1s[0].mshrs
        for key in range(mshrs.num_entries + 1):
            mshrs.entries[(-1, key)] = None
        with pytest.raises(RuntimeError, match="more MSHR entries"):
            check_invariants(server)

    def test_llc_occupancy_off_the_tag_array_raises(self):
        server = self.drained_server()
        ds_id = server.firmware.ldoms["a"].ds_id
        stats = server.llc_control.statistics
        stats.set(ds_id, "capacity", stats.get(ds_id, "capacity") + 64)
        with pytest.raises(RuntimeError, match="occupancy disagrees"):
            check_invariants(server)

    def test_mshr_left_at_drain_raises(self):
        server = self.drained_server()
        server.llc.mshrs.entries[(0, 0)] = None
        with pytest.raises(RuntimeError, match="MSHR entries left after drain"):
            check_invariants(server)

    def test_dram_in_flight_at_drain_raises(self):
        server = self.drained_server()
        server.memory_controller._inflight = 1
        with pytest.raises(RuntimeError, match="in flight after drain"):
            check_invariants(server)

    def running_server(self):
        """The drained server's run, stopped with DRAM requests in
        service; invariants hold at every stop on the way."""
        server = small_server()
        server.firmware.create_ldom("a", (0,), 1 << 20)
        server.firmware.launch_ldom(
            "a", {0: CacheFlush(flush_bytes=64 << 10, passes=1)}
        )
        controller = server.memory_controller
        while not controller._inflight:
            server.engine.run(until_ps=server.engine.now + 10_000)
            assert server.engine.pending_events
            check_invariants(server)
        return server

    def test_bank_fifos_off_inflight_raises(self):
        server = self.running_server()
        fifo = next(f for f in server.memory_controller._in_service if f)
        fifo.pop()
        with pytest.raises(RuntimeError, match="bank FIFOs hold"):
            check_invariants(server)

    def test_lookup_left_at_drain_raises(self):
        server = self.drained_server()
        packet = MemoryPacket(1, 0x40)
        server.l1s[0]._lookups.append((packet, lambda p: None))
        with pytest.raises(RuntimeError, match="lookups queued after drain"):
            check_invariants(server)

    def test_bank_fifo_left_at_drain_raises(self):
        server = self.drained_server()
        fifo = server.memory_controller._in_service[0]
        fifo.append(((MemoryPacket(1, 0x40), 0, 0, 0, 0, None, 1), 0.0))
        with pytest.raises(RuntimeError, match="left in bank FIFOs after drain"):
            check_invariants(server)

    def test_published_sums_match_totals(self):
        server = self.published_server()
        ds_id = server.firmware.ldoms["a"].ds_id
        llc_stats = server.llc_control.statistics
        assert llc_stats.get(ds_id, "miss_cnt") > 0
        assert server.memory_control.statistics.get(ds_id, "serv_cnt") > 0
        check_invariants(server)

    def test_uncounted_llc_hit_raises(self):
        server = self.published_server()
        server.llc.total_hits += 1
        with pytest.raises(RuntimeError, match="llc hits"):
            check_invariants(server)

    def test_overcounted_llc_miss_raises(self):
        server = self.drained_server()
        ds_id = server.firmware.ldoms["a"].ds_id
        server.llc_control.window_misses[ds_id] += 1
        with pytest.raises(RuntimeError, match="llc misses"):
            check_invariants(server)

    def test_uncounted_dram_request_raises(self):
        server = self.published_server()
        server.memory_controller.served_requests += 1
        with pytest.raises(RuntimeError, match="dram requests"):
            check_invariants(server)

    def test_destroyed_ldom_takes_its_counts_with_it(self):
        """A freed row's published counts are gone, so the sums fall
        short of the totals; they still may never exceed them."""
        server = self.published_server(ldoms=("a", "b"))
        server.firmware.destroy_ldom("a")
        llc_stats = server.llc_control.statistics
        published = sum(llc_stats.get(d, "miss_cnt") for d in llc_stats.ds_ids)
        assert published + sum(server.llc_control.window_misses.values()) < (
            server.llc.total_misses
        )
        check_invariants(server)
        ds_id = server.firmware.ldoms["b"].ds_id
        server.memory_control.window_service[ds_id] = [64, 0.0, 10**6]
        with pytest.raises(RuntimeError, match="dram requests"):
            check_invariants(server)

    def test_core_waiting_on_memory_at_drain_raises(self):
        server = self.drained_server()
        core = server.cores[0]
        core.state = CoreState.WAITING_MEM
        core._outstanding = 1
        with pytest.raises(RuntimeError, match="waiting on 1 memory"):
            check_invariants(server)
