"""Unit tests for the IDE controller and the I/O bridge."""

import pytest

from tests.helpers import FakeMemory
from repro.cpu.core import CpuCore
from repro.io.apic import Apic
from repro.io.bridge import ALL_DEVICES_MASK, IoAccessError, IoBridge, IoBridgeControlPlane
from repro.io.disk import IdeControlPlane, IdeController
from repro.io.dma import DISK_INTERRUPT_VECTOR
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine, PS_PER_S
from repro.sim.packet import IoOp, IoPacket, MemOp
from repro.workloads.diskio import DiskCopy


def make_ide(engine=None, control=True, bw=100 * 1024 * 1024, chunk=64 * 1024):
    engine = engine or Engine()
    plane = IdeControlPlane(engine) if control else None
    ide = IdeController(
        engine, control=plane, total_bandwidth_bytes_per_s=bw, chunk_bytes=chunk
    )
    return engine, ide, plane


def write_blocks(engine, ide, ds_id, nbytes, count=1):
    done = []
    def issue(_=None):
        if len(done) < count:
            pkt = IoPacket(ds_id=ds_id, device="ide0", op=IoOp.PIO_WRITE, value=nbytes)
            ide.handle_request(pkt, lambda p: (done.append(engine.now), issue()))
    issue()
    return done


class TestIdeController:
    def test_single_transfer_takes_bandwidth_time(self):
        engine, ide, _ = make_ide(bw=100 * 1024 * 1024)
        done = write_blocks(engine, ide, ds_id=1, nbytes=10 * 1024 * 1024)
        engine.run()
        assert len(done) == 1
        expected_ps = 10 * 1024 * 1024 * PS_PER_S / (100 * 1024 * 1024)
        assert done[0] == pytest.approx(expected_ps, rel=0.01)

    def test_equal_share_without_quota(self):
        engine, ide, plane = make_ide()
        plane.allocate_ldom(1)
        plane.allocate_ldom(2)
        write_blocks(engine, ide, 1, 4 << 20, count=50)
        write_blocks(engine, ide, 2, 4 << 20, count=50)
        engine.run(until_ps=PS_PER_S // 2)
        plane.roll_window()
        bw1 = plane.statistics.get(1, "bandwidth")
        bw2 = plane.statistics.get(2, "bandwidth")
        assert bw1 > 0 and bw2 > 0
        assert bw1 / bw2 == pytest.approx(1.0, rel=0.15)

    def test_quota_shifts_share_to_80_20(self):
        # Fig. 10: echo 80 > .../ldom0/parameters/bandwidth
        engine, ide, plane = make_ide()
        plane.allocate_ldom(1, bandwidth=80)
        plane.allocate_ldom(2, bandwidth=20)
        write_blocks(engine, ide, 1, 4 << 20, count=100)
        write_blocks(engine, ide, 2, 4 << 20, count=100)
        engine.run(until_ps=PS_PER_S // 2)
        plane.roll_window()
        bw1 = plane.statistics.get(1, "bandwidth")
        bw2 = plane.statistics.get(2, "bandwidth")
        assert bw1 / bw2 == pytest.approx(4.0, rel=0.25)

    def test_explicit_quota_vs_default_share(self):
        engine, ide, plane = make_ide()
        plane.allocate_ldom(1, bandwidth=80)
        plane.allocate_ldom(2)  # default: gets the remaining 20
        assert plane.weight(1) == 80
        assert plane.weight(2) == pytest.approx(20.0)

    def test_idle_ldom_leaves_bandwidth_to_active(self):
        engine, ide, plane = make_ide()
        plane.allocate_ldom(1, bandwidth=20)
        plane.allocate_ldom(2, bandwidth=80)
        # Only LDom1 is writing; it should get the whole disk.
        done = write_blocks(engine, ide, 1, 8 << 20, count=1)
        engine.run()
        expected_ps = (8 << 20) * PS_PER_S / (100 * 1024 * 1024)
        assert done[0] == pytest.approx(expected_ps, rel=0.05)

    def test_idle_queue_drops_its_credit(self):
        """A DS-id whose queue drains keeps no deficit: however much
        credit its earlier transfers left, it re-enters at its quota."""

        def order_of_a_refill(earlier_transfers):
            engine, ide, plane = make_ide()
            plane.allocate_ldom(1, bandwidth=70)
            plane.allocate_ldom(2, bandwidth=30)
            served = []
            record_io = plane.record_io

            def record(ds_id, nbytes):
                served.append((ds_id, nbytes))
                record_io(ds_id, nbytes)

            plane.record_io = record
            chunk = ide.chunk_bytes
            write_blocks(engine, ide, 2, 64 * chunk, count=2)  # stays busy
            # Each sub-chunk write leaves most of DS-id 1's quantum unused.
            write_blocks(engine, ide, 1, 512, count=earlier_transfers)
            refill = IoPacket(ds_id=1, device="ide0", op=IoOp.PIO_WRITE, value=8 * chunk)
            chunk_ps = chunk * PS_PER_S // ide.total_bandwidth_bytes_per_s
            engine.post(40 * chunk_ps, lambda: ide.handle_request(refill, lambda p: None))
            engine.run(until_ps=80 * chunk_ps)
            full = [i for i, entry in enumerate(served) if entry == (1, chunk)]
            assert len(full) == 8
            return [ds_id for ds_id, _ in served[full[0]:full[-1] + 1]]

        order = order_of_a_refill(1)
        assert 2 in order  # the busy DS-id keeps its share during the refill
        assert order_of_a_refill(5) == order

    def test_dma_memory_traffic_tagged(self):
        engine = Engine()
        memory = FakeMemory(engine, latency_ps=100)
        plane = IdeControlPlane(engine)
        plane.allocate_ldom(3)
        ide = IdeController(engine, control=plane, memory=memory, chunk_bytes=64 * 1024)
        write_blocks(engine, ide, 3, 128 * 1024)
        engine.run()
        assert memory.requests
        assert all(p.ds_id == 3 for p in memory.requests)

    def test_interleaved_owners_tag_each_chunk(self):
        """Two LDoms' DiskCopy loops share the disk under DRR: every DMA
        memory request is one IDE chunk, tagged with its transfer's
        owner, and each owner's completion interrupts carry its DS-id."""
        engine = Engine()
        memory = FakeMemory(engine, latency_ps=100)
        apic = Apic(engine)
        interrupts = []
        apic.register_core(0, interrupts.append)
        plane = IdeControlPlane(engine)
        chunk = 4096
        ide = IdeController(
            engine, control=plane, memory=memory, apic=apic, chunk_bytes=chunk
        )
        served = []
        record_io = plane.record_io

        def record(ds_id, nbytes):
            served.append((ds_id, nbytes))
            record_io(ds_id, nbytes)

        plane.record_io = record
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        for core_id, ds_id in enumerate((1, 2)):
            plane.allocate_ldom(ds_id)
            apic.set_route(ds_id, DISK_INTERRUPT_VECTOR, 0)
            core = CpuCore(engine, clock, core_id, FakeMemory(engine), io_port=ide)
            core.tag.write(ds_id)
            core.assign(DiskCopy(block_bytes=3 * chunk + 1000, count=2))
        engine.run()

        assert [(p.ds_id, p.size) for p in memory.requests] == served
        assert all(p.op is MemOp.READ for p in memory.requests)
        assert sorted(set(served)) == [(1, 1000), (1, chunk), (2, 1000), (2, chunk)]
        owners = [ds_id for ds_id, _ in served]
        switches = sum(a != b for a, b in zip(owners, owners[1:]))
        assert switches > 2  # the owners interleave chunk by chunk
        assert sorted(i.ds_id for i in interrupts) == [1, 1, 2, 2]

    def test_pio_read_writes_memory(self):
        engine = Engine()
        memory = FakeMemory(engine, latency_ps=100)
        ide = IdeController(
            engine, control=IdeControlPlane(engine), memory=memory, chunk_bytes=64 * 1024
        )
        done = []
        pkt = IoPacket(ds_id=4, device="ide0", op=IoOp.PIO_READ, value=100 * 1024)
        ide.handle_request(pkt, done.append)
        engine.run()
        assert done == [pkt]
        assert [(p.ds_id, p.op, p.size) for p in memory.requests] == [
            (4, MemOp.WRITE, 64 * 1024), (4, MemOp.WRITE, 36 * 1024)
        ]

    def test_invalid_transfer_size(self):
        engine, ide, _ = make_ide()
        with pytest.raises(ValueError):
            ide.handle_request(IoPacket(device="ide0", value=0), lambda p: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdeController(Engine(), total_bandwidth_bytes_per_s=0)


class TestIoBridge:
    def make_bridge(self):
        engine = Engine()
        plane = IoBridgeControlPlane(engine)
        bridge = IoBridge(engine, control=plane)
        _, ide, _ = make_ide(engine)
        index = bridge.attach_device("ide0", ide)
        return engine, bridge, plane, index

    def test_routes_to_device(self):
        engine, bridge, plane, _ = self.make_bridge()
        done = []
        pkt = IoPacket(ds_id=0, device="ide0", op=IoOp.PIO_WRITE, value=64 * 1024)
        bridge.handle_request(pkt, lambda p: done.append(p))
        engine.run()
        assert done

    def test_access_mask_denies(self):
        engine, bridge, plane, index = self.make_bridge()
        plane.allocate_ldom(5, devmask=0)  # no devices
        pkt = IoPacket(ds_id=5, device="ide0", op=IoOp.PIO_WRITE, value=1024)
        with pytest.raises(IoAccessError):
            bridge.handle_request(pkt, lambda p: None)
        plane.roll_window()
        assert plane.statistics.get(5, "denied_cnt") == 1

    def test_mask_grants_specific_device(self):
        engine, bridge, plane, index = self.make_bridge()
        plane.allocate_ldom(5, devmask=1 << index)
        pkt = IoPacket(ds_id=5, device="ide0", op=IoOp.PIO_WRITE, value=1024)
        bridge.handle_request(pkt, lambda p: None)  # no exception
        plane.roll_window()
        assert plane.statistics.get(5, "pio_cnt") == 1

    def test_unknown_device(self):
        engine, bridge, _, _ = self.make_bridge()
        with pytest.raises(KeyError):
            bridge.handle_request(IoPacket(device="nope"), lambda p: None)

    def test_duplicate_device_rejected(self):
        engine, bridge, _, _ = self.make_bridge()
        with pytest.raises(ValueError):
            bridge.attach_device("ide0", object())

    def test_default_mask_allows_everything(self):
        engine, bridge, plane, _ = self.make_bridge()
        assert plane.devmask(42) == ALL_DEVICES_MASK

