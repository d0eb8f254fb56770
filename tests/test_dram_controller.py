"""Unit and integration tests for the memory controller."""

import pytest

from repro.core.address import AddressTranslationError
from repro.dram.control_plane import LATENCY_SCALE, MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry, DramTiming, decompose_address
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket


def make_controller(control=None, **kwargs):
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    controller = MemoryController(engine, clock, control=control, **kwargs)
    return engine, controller


def read(engine, controller, addr, ds_id=0, op=MemOp.READ):
    done = []
    start = engine.now
    pkt = MemoryPacket(ds_id=ds_id, addr=addr, op=op, birth_ps=start)
    controller.handle_request(pkt, lambda p: done.append(engine.now - start))
    engine.run()
    assert done
    return done[0]


class TestBasicService:
    def test_closed_bank_latency(self):
        engine, controller = make_controller()
        latency = read(engine, controller, 0x0)
        timing = controller.timing
        assert latency == timing.row_closed_latency * DRAM_CLOCK_PS

    def test_row_hit_faster_than_first_access(self):
        engine, controller = make_controller()
        first = read(engine, controller, 0x0)
        second = read(engine, controller, 0x40)  # same 1KB row
        assert second == controller.timing.row_hit_latency * DRAM_CLOCK_PS
        assert second < first

    def test_row_conflict_slowest(self):
        engine, controller = make_controller()
        read(engine, controller, 0x0)
        # Same bank, different row: bank stride is total_banks * row_bytes.
        geometry = controller.geometry
        conflict_addr = geometry.total_banks * geometry.row_bytes
        latency = read(engine, controller, conflict_addr)
        assert latency >= controller.timing.row_conflict_latency * DRAM_CLOCK_PS

    def test_served_counters(self):
        engine, controller = make_controller()
        for i in range(5):
            read(engine, controller, i * 64)
        assert controller.served_requests == 5
        assert controller.served_bytes == 5 * 64

    def test_writeback_served(self):
        engine, controller = make_controller()
        latency = read(engine, controller, 0x0, op=MemOp.WRITEBACK)
        assert latency > 0

    def test_queue_delay_zero_when_idle(self):
        engine, controller = make_controller()
        read(engine, controller, 0x0)
        assert controller.queue_delay[0].samples == [0.0]

    def test_bank_retires_in_dispatch_order(self):
        """A request that reaches a bank at its done time, ahead of the
        bank's completion event, dispatches at once. The completion
        still retires the earlier access, and the later one ends later."""
        engine, controller = make_controller()
        done = []
        first = MemoryPacket(ds_id=0, addr=0x0)
        second = MemoryPacket(ds_id=0, addr=0x40)  # same bank and row
        controller.handle_request(first, lambda p: done.append((p, engine.now)))
        done_at = max(bank.ready_at_ps for bank in controller.banks)
        in_service = []

        def arrive():
            controller.handle_request(second, lambda p: done.append((p, engine.now)))
            in_service.extend(len(fifo) for fifo in controller._in_service if fifo)

        engine.post_first_at(done_at, arrive)
        engine.run()
        assert in_service == [2]
        assert controller.queue_delay[0].samples == [0.0, 0.0]
        assert done[0] == (first, done_at)
        assert done[1][0] is second and done[1][1] > done_at

    def test_queue_delay_grows_under_load(self):
        engine, controller = make_controller()
        done = []
        # Same bank, alternating rows: serialized conflicts.
        stride = controller.geometry.total_banks * controller.geometry.row_bytes
        for i in range(8):
            pkt = MemoryPacket(addr=(i % 2) * stride + (i // 2) * 64)
            controller.handle_request(pkt, lambda p: done.append(p))
        engine.run()
        assert len(done) == 8
        assert controller.mean_queue_delay_cycles > 0


class TestBaselineVsControlPlane:
    def test_without_control_plane_single_queue(self):
        _, controller = make_controller()
        assert len(controller.queues) == 1
        assert not controller.hp_row_buffer

    def test_with_control_plane_two_queues(self):
        engine = Engine()
        clock = ClockDomain(engine, DRAM_CLOCK_PS)
        control = MemoryControlPlane(engine)
        controller = MemoryController(engine, clock, control=control)
        assert len(controller.queues) == 2

    def test_priority_requests_overtake(self):
        engine = Engine()
        clock = ClockDomain(engine, DRAM_CLOCK_PS)
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, priority=0)
        control.allocate_ldom(2, priority=1)
        controller = MemoryController(engine, clock, control=control)
        order = []
        stride = controller.geometry.total_banks * controller.geometry.row_bytes
        # Saturate with low-priority conflicts, then inject one high-priority.
        for i in range(6):
            pkt = MemoryPacket(ds_id=1, addr=(i % 3) * stride)
            controller.handle_request(pkt, lambda p: order.append(p.ds_id))
        hp = MemoryPacket(ds_id=2, addr=64)
        engine.post(10_000, lambda: controller.handle_request(hp, lambda p: order.append(p.ds_id)))
        engine.run()
        assert order[-1] != 2, "high priority request finished last despite priority"
        assert 2 in order

    def test_high_priority_lower_mean_delay(self):
        engine = Engine()
        clock = ClockDomain(engine, DRAM_CLOCK_PS)
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, priority=0)
        control.allocate_ldom(2, priority=1)
        controller = MemoryController(engine, clock, control=control)
        stride = controller.geometry.total_banks * controller.geometry.row_bytes
        interval = DRAM_CLOCK_PS * 10
        for i in range(60):
            low = MemoryPacket(ds_id=1, addr=(i % 4) * stride + (i % 16) * 64)
            high = MemoryPacket(ds_id=2, addr=(i % 4) * stride + 512 + (i % 16) * 64)
            engine.post(i * interval, lambda p=low: controller.handle_request(p, lambda _: None))
            engine.post(i * interval + 1, lambda p=high: controller.handle_request(p, lambda _: None))
        engine.run()
        low_delay = controller.queue_delay[0].mean
        high_delay = controller.queue_delay[1].mean
        assert high_delay < low_delay


class TestAddressTranslation:
    def make_mapped(self):
        engine = Engine()
        clock = ClockDomain(engine, DRAM_CLOCK_PS)
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, addr_base=1 << 20, addr_size=1 << 20)
        control.allocate_ldom(2, addr_base=2 << 20, addr_size=1 << 20)
        controller = MemoryController(engine, clock, control=control)
        return engine, controller, control

    def test_ldom_zero_addresses_map_to_windows(self):
        engine, controller, control = self.make_mapped()
        assert control.translate(1, 0) == 1 << 20
        assert control.translate(2, 0) == 2 << 20

    def test_same_ldom_address_different_banks_possible(self):
        # Two LDoms issue address 0; after translation they land in
        # different rows, so both can be row hits concurrently. The row
        # each one opens shows the controller added its window base.
        engine, controller, control = self.make_mapped()
        untranslated = decompose_address(0, controller.geometry)[:2]
        for ds_id in (1, 2):
            packet = MemoryPacket(ds_id=ds_id, addr=0)
            controller.handle_request(packet, lambda p: None)
            engine.run()
            bank, row, _ = decompose_address(
                control.translate(ds_id, 0), controller.geometry
            )
            assert (bank, row) != untranslated
            assert controller.banks[bank].open_row == row
            # The controller did not build the packet, so it must not
            # rewrite it: the DRAM address stays internal.
            assert packet.addr == 0
        assert controller.served_requests == 2

    def test_out_of_window_access_raises(self):
        _, controller, control = self.make_mapped()
        with pytest.raises(AddressTranslationError):
            control.translate(1, 1 << 20)
        # The controller's inlined translation raises the same error.
        packet = MemoryPacket(ds_id=1, addr=1 << 20)
        with pytest.raises(AddressTranslationError):
            controller.handle_request(packet, lambda p: None)
        assert controller.served_requests == 0

    def test_unmapped_dsid_is_identity(self):
        _, _, control = self.make_mapped()
        assert control.translate(99, 0x1234) == 0x1234

    def test_overlapping_windows_rejected_via_protocol(self):
        engine = Engine()
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, addr_base=0, addr_size=1 << 20)
        control.allocate_ldom(2)
        base_offset = control.parameters.schema.offset_of("addr_base")
        size_offset = control.parameters.schema.offset_of("addr_size")
        from repro.core.programming import TABLE_PARAMETER
        control.register_file.write_cell(2, base_offset, TABLE_PARAMETER, 1 << 19)
        with pytest.raises(AddressTranslationError):
            control.register_file.write_cell(2, size_offset, TABLE_PARAMETER, 1 << 20)
        assert control.register_file.read_cell(2, size_offset, TABLE_PARAMETER) == 0


class TestMemoryControlPlaneStats:
    def test_bandwidth_and_latency_published(self):
        engine = Engine()
        clock = ClockDomain(engine, DRAM_CLOCK_PS)
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1)
        controller = MemoryController(engine, clock, control=control)
        for i in range(4):
            read(engine, controller, i * 64, ds_id=1)
        control.roll_window()
        assert control.statistics.get(1, "bandwidth") == 4 * 64
        assert control.statistics.get(1, "serv_cnt") == 4
        # Next window with no traffic: bandwidth drops to zero.
        control.roll_window()
        assert control.statistics.get(1, "bandwidth") == 0

    def test_avg_qlat_scaling(self):
        engine = Engine()
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1)
        # One served request with 2.7 cycles of queueing delay, counted
        # where the controller counts it: [bytes, delay sum, requests].
        control.window_service[1] = [64, 2.7, 1]
        control.roll_window()
        assert control.statistics.get(1, "avg_qlat") == 270
        assert control.statistics.get(1, "avg_qlat") / LATENCY_SCALE == pytest.approx(2.7)
