"""Unit tests for ICN packet types and DS-id tagging semantics."""

import pytest

from tests.test_cache_model import line_at, make_cache
from repro.dram.control_plane import MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import (
    DEFAULT_DSID,
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
    assert pkt.size == 64


def test_memory_packet_positional_order():
    # The per-access sites build packets positionally in this order.
    span = object()
    pkt = MemoryPacket(3, 0x40, 1250, MemOp.WRITEBACK, 32, span, 7)
    assert (pkt.ds_id, pkt.addr, pkt.birth_ps, pkt.op, pkt.size) == (
        3, 0x40, 1250, MemOp.WRITEBACK, 32
    )
    assert pkt.span is span and pkt.packet_id == 7
    assert pkt == MemoryPacket(
        ds_id=3, addr=0x40, birth_ps=1250, op=MemOp.WRITEBACK, size=32,
        span=span, packet_id=7,
    )


def test_write_and_writeback_are_writes():
    # Both ops dirty the resident line they hit: a store, and an upper
    # level's writeback of its dirty copy.
    for op in (MemOp.WRITE, MemOp.WRITEBACK):
        engine, cache, _memory = make_cache()
        _run(engine, cache.handle_request, MemoryPacket(addr=0x1000))
        _run(engine, cache.handle_request, MemoryPacket(addr=0x1000, op=op))
        assert cache.total_hits == 1
        assert line_at(cache, 0x1000).dirty


def _charged_dsids(packet: MemoryPacket) -> list[int]:
    """The DS-ids whose memory service window one request lands in."""
    engine = Engine()
    control = MemoryControlPlane(engine)
    for ds_id in (1, 2):
        control.allocate_ldom(ds_id)
    controller = MemoryController(
        engine, ClockDomain(engine, DRAM_CLOCK_PS), control=control
    )
    _run(engine, controller.handle_request, packet)
    return sorted(control.window_service)


def test_writeback_charges_owner_dsid():
    # PARD §4.1: the writeback must use the evicted block's owner DS-id,
    # not the DS-id of the request that caused the eviction. The cache
    # tags a writeback with its owner, so the memory level charges the
    # packet's own DS-id.
    assert _charged_dsids(MemoryPacket(ds_id=2, op=MemOp.WRITEBACK)) == [2]


def test_non_writeback_uses_request_dsid():
    assert _charged_dsids(MemoryPacket(ds_id=1, op=MemOp.READ)) == [1]


def _run(engine, handle_request, packet):
    done = []
    handle_request(packet, done.append)
    engine.run()
    assert done == [packet]


def test_io_packet_fields():
    pkt = IoPacket(ds_id=2, device="ide0", offset=8, op=IoOp.PIO_WRITE, value=0x80)
    assert pkt.device == "ide0"
    assert pkt.op is IoOp.PIO_WRITE


def test_interrupt_packet_carries_dsid():
    pkt = InterruptPacket(ds_id=5, vector=14, device="ide0")
    assert pkt.ds_id == 5
    assert pkt.vector == 14
