"""Unit tests for ICN packet types and DS-id tagging semantics."""

import pytest

from repro.sim.packet import (
    DEFAULT_DSID,
    DmaPacket,
    InterruptPacket,
    IoPacket,
    IoOp,
    MemOp,
    MemoryPacket,
    Packet,
)


def test_default_dsid_is_zero():
    assert Packet().ds_id == DEFAULT_DSID


def test_dsid_range_is_16_bit():
    Packet(ds_id=0xFFFF)  # max value accepted
    with pytest.raises(ValueError):
        Packet(ds_id=0x1_0000)
    with pytest.raises(ValueError):
        Packet(ds_id=-1)


def test_packet_ids_are_unique():
    ids = {Packet().packet_id for _ in range(100)}
    assert len(ids) == 100


def test_memory_packet_defaults():
    pkt = MemoryPacket(addr=0x1000)
    assert pkt.op is MemOp.READ
    assert not pkt.is_write
    assert pkt.size == 64


def test_write_and_writeback_are_writes():
    assert MemoryPacket(op=MemOp.WRITE).is_write
    assert MemoryPacket(op=MemOp.WRITEBACK).is_write


def test_line_addr_alignment():
    pkt = MemoryPacket(addr=0x1234)
    assert pkt.line_addr(64) == 0x1200
    assert pkt.line_addr(128) == 0x1200
    aligned = MemoryPacket(addr=0x1240)
    assert aligned.line_addr(64) == 0x1240


def test_writeback_charges_owner_dsid():
    # PARD §4.1: the writeback must use the evicted block's owner DS-id,
    # not the DS-id of the request that caused the eviction.
    pkt = MemoryPacket(ds_id=1, op=MemOp.WRITEBACK, owner_ds_id=2)
    assert pkt.effective_ds_id == 2


def test_non_writeback_uses_request_dsid():
    pkt = MemoryPacket(ds_id=1, op=MemOp.READ, owner_ds_id=2)
    assert pkt.effective_ds_id == 1


def test_writeback_without_owner_falls_back_to_request_dsid():
    pkt = MemoryPacket(ds_id=3, op=MemOp.WRITEBACK)
    assert pkt.effective_ds_id == 3


def test_io_packet_fields():
    pkt = IoPacket(ds_id=2, device="ide0", offset=8, op=IoOp.PIO_WRITE, value=0x80)
    assert pkt.device == "ide0"
    assert pkt.op is IoOp.PIO_WRITE


def test_dma_packet_direction():
    pkt = DmaPacket(ds_id=1, addr=0x2000, size=4096, to_device=True, device="ide0")
    assert pkt.to_device
    assert pkt.size == 4096


def test_interrupt_packet_carries_dsid():
    pkt = InterruptPacket(ds_id=5, vector=14, device="ide0")
    assert pkt.ds_id == 5
    assert pkt.vector == 14
