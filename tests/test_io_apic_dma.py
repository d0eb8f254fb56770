"""Unit tests for the tagged APIC and DMA engines."""

import pytest

from tests.helpers import FakeMemory
from repro.io.apic import Apic, RouteError
from repro.io.dma import DISK_INTERRUPT_VECTOR, DmaEngine
from repro.sim.engine import Engine
from repro.sim.packet import InterruptPacket, MemOp


class TestApic:
    def make_apic(self):
        engine = Engine()
        apic = Apic(engine)
        received = {0: [], 1: []}
        apic.register_core(0, lambda pkt: received[0].append(pkt))
        apic.register_core(1, lambda pkt: received[1].append(pkt))
        return engine, apic, received

    def test_route_per_dsid(self):
        # The same vector goes to different cores depending on DS-id --
        # the duplicated route tables of PARD §4.1.
        engine, apic, received = self.make_apic()
        apic.set_route(ds_id=1, vector=14, core_id=0)
        apic.set_route(ds_id=2, vector=14, core_id=1)
        apic.raise_interrupt(InterruptPacket(ds_id=1, vector=14))
        apic.raise_interrupt(InterruptPacket(ds_id=2, vector=14))
        engine.run()
        assert len(received[0]) == 1 and received[0][0].ds_id == 1
        assert len(received[1]) == 1 and received[1][0].ds_id == 2

    def test_unrouted_interrupt_dropped(self):
        engine, apic, received = self.make_apic()
        apic.raise_interrupt(InterruptPacket(ds_id=9, vector=14))
        engine.run()
        assert apic.dropped == 1
        assert not received[0] and not received[1]

    def test_route_to_unregistered_core_rejected(self):
        _, apic, _ = self.make_apic()
        with pytest.raises(RouteError):
            apic.set_route(1, 14, core_id=7)

    def test_clear_routes(self):
        engine, apic, received = self.make_apic()
        apic.set_route(1, 14, 0)
        apic.clear_routes(1)
        apic.raise_interrupt(InterruptPacket(ds_id=1, vector=14))
        engine.run()
        assert apic.dropped == 1

    def test_delivery_is_asynchronous(self):
        engine, apic, received = self.make_apic()
        apic.set_route(1, 14, 0)
        apic.raise_interrupt(InterruptPacket(ds_id=1, vector=14))
        assert received[0] == []  # not yet delivered
        engine.run()
        assert len(received[0]) == 1


class TestDmaEngine:
    def make_dma(self):
        engine = Engine()
        memory = FakeMemory(engine, latency_ps=1000)
        apic = Apic(engine)
        delivered = []
        apic.register_core(0, delivered.append)
        dma = DmaEngine(engine, "disk.dma", memory, apic=apic)
        return engine, memory, apic, dma, delivered

    def test_descriptor_write_latches_dsid(self):
        _, _, _, dma, _ = self.make_dma()
        dma.program(descriptor_write_ds_id=3)
        assert dma.tag.ds_id == 3

    def test_transfers_carry_latched_dsid(self):
        engine, memory, apic, dma, _ = self.make_dma()
        dma.program(5)
        dma.transfer(8192, to_device=True, raise_interrupt=False)
        engine.run()
        assert len(memory.requests) == 1
        assert memory.requests[0].ds_id == 5
        assert memory.requests[0].size == 8192
        assert memory.requests[0].op is MemOp.READ

    def test_from_device_issues_memory_writes(self):
        engine, memory, _, dma, _ = self.make_dma()
        dma.program(2)
        dma.transfer(4096, to_device=False, raise_interrupt=False)
        engine.run()
        assert memory.requests[0].op is MemOp.WRITE

    def test_each_transfer_carries_the_latest_latch(self):
        engine, memory, _, dma, _ = self.make_dma()
        dma.program(1)
        dma.transfer(4096, to_device=True, raise_interrupt=False)
        dma.program(7)
        dma.transfer(4096, to_device=True, raise_interrupt=False)
        engine.run()
        assert [p.ds_id for p in memory.requests] == [1, 7]

    def test_completion_interrupt_tagged(self):
        engine, memory, apic, dma, delivered = self.make_dma()
        apic.set_route(4, DISK_INTERRUPT_VECTOR, 0)
        dma.program(4)
        dma.transfer(4096, to_device=True)
        engine.run()
        assert len(delivered) == 1
        assert delivered[0].ds_id == 4

    def test_completion_waits_for_memory(self):
        engine, memory, apic, dma, delivered = self.make_dma()
        apic.set_route(0, DISK_INTERRUPT_VECTOR, 0)
        dma.transfer(4096, to_device=True)
        assert dma.transfers_completed == 0
        engine.run()
        assert dma.transfers_completed == 1
        assert delivered and delivered[0].birth_ps == 1000  # memory latency

    def test_invalid_size(self):
        _, _, _, dma, _ = self.make_dma()
        with pytest.raises(ValueError):
            dma.transfer(0, to_device=True)

    def test_byte_accounting(self):
        engine, _, _, dma, _ = self.make_dma()
        dma.transfer(10_000, to_device=True, raise_interrupt=False)
        engine.run()
        assert dma.bytes_transferred == 10_000
        assert dma.transfers_completed == 1
