"""Intra-computer-network (ICN) packets.

PARD's founding observation is that a computer is inherently a network:
cores, caches, memory controllers and devices exchange packets over the
NoC/crossbar and PCIe. Every packet here carries a DS-id tag (16 bits in
the CPA protocol) that identifies the high-level entity -- an LDom in the
data-center configuration -- that originated it. The tag is attached at
the source and travels with the request for its whole lifetime (PARD §3
mechanism 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

DEFAULT_DSID = 0
MAX_DSID = 0xFFFF

_packet_ids = itertools.count()


def reset_packet_ids(start: int = 0) -> None:
    """Restart the global packet-id counter (ids are telemetry-only).

    The sweep runner calls this at the start of every point so a point's
    span payload -- which embeds packet ids -- is a pure function of the
    point's spec, not of what ran earlier in the process. Packet ids
    never influence event scheduling, only span/trace identification.
    """
    global _packet_ids
    _packet_ids = itertools.count(start)


class MemOp(Enum):
    """Memory operation kinds seen by caches and the memory controller."""

    READ = "read"
    WRITE = "write"
    WRITEBACK = "writeback"


class IoOp(Enum):
    """I/O operations on the programmed-I/O path."""

    PIO_READ = "pio_read"
    PIO_WRITE = "pio_write"


@dataclass(slots=True)
class Packet:
    """Base class for all ICN packets.

    ``ds_id`` is the DiffServ identity tag; ``birth_ps`` records when the
    packet entered the network.

    Packets are the single most-allocated object in a run (one per core
    access, plus the fills, writebacks and DMA transfers below it), so
    every subclass is a ``slots=True`` dataclass: no per-instance
    ``__dict__``, smaller footprint, faster attribute access.
    """

    ds_id: int = DEFAULT_DSID
    birth_ps: int = 0
    # Drawn from the global counter by __post_init__ (MemoryPacket: by its
    # __init__) unless given, so it is an int after construction.
    packet_id: Optional[int] = None
    # Optional telemetry span (repro.telemetry.spans.Span). None for the
    # vast majority of packets; only a sampled fraction carries one, and every
    # hop site guards with a single `is not None` check.
    span: Optional[object] = None

    def __post_init__(self) -> None:
        if self.packet_id is None:
            self.packet_id = next(_packet_ids)
        if not 0 <= self.ds_id <= MAX_DSID:
            raise ValueError(f"DS-id {self.ds_id} outside 16-bit tag space")


@dataclass(slots=True, init=False)
class MemoryPacket(Packet):
    """A cache/memory access request.

    ``addr`` is an *LDom-physical* address: LDoms all see an address space
    starting at 0 and the memory control plane translates to DRAM physical
    addresses (PARD §4.2). A writeback's ``ds_id`` is the evicted block's
    owner, not the requester that caused the eviction, so the owner is
    charged (PARD §4.1).

    One packet serves a request for its whole trip down the hierarchy
    where it can: a cache miss that is a line-aligned, line-sized READ
    forwards the packet itself as its fill (L1 -> LLC -> DRAM). So packet
    ids number the requests sources issue (core accesses, injected
    Fig. 11 requests, DMA chunks) plus the packets caches build: the
    READ fill of a store miss or an unaligned access, and writebacks. A
    forwarded fill keeps the issuing core's ``birth_ps``, which nothing
    reads. A component must not rewrite a packet it did not build.

    The constructor is written out rather than generated: it is the
    generated one with :meth:`Packet.__post_init__` folded in, which
    saves a call on every memory access. Its parameters come in the
    order the per-access sites fill them, ``(ds_id, addr, birth_ps, op,
    size, span, packet_id)``, so those sites pass them positionally: a
    keyword call makes ``type.__call__`` build a kwargs dict for
    ``__init__`` on every packet. The dataclass field order (and so
    ``repr`` and equality) is unchanged.
    """

    addr: int = 0
    size: int = 64
    op: MemOp = MemOp.READ

    def __init__(
        self,
        ds_id: int = DEFAULT_DSID,
        addr: int = 0,
        birth_ps: int = 0,
        op: MemOp = MemOp.READ,
        size: int = 64,
        span: Optional[object] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        self.ds_id = ds_id
        self.birth_ps = birth_ps
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.span = span
        self.addr = addr
        self.size = size
        self.op = op
        if not 0 <= ds_id <= MAX_DSID:
            raise ValueError(f"DS-id {ds_id} outside 16-bit tag space")


@dataclass(slots=True)
class IoPacket(Packet):
    """A programmed-I/O request issued by a CPU core to a device register."""

    device: str = ""
    offset: int = 0
    op: IoOp = IoOp.PIO_READ
    value: int = 0


@dataclass(slots=True)
class InterruptPacket(Packet):
    """An interrupt raised by a device, routed by the APIC per DS-id."""

    vector: int = 0
    device: str = ""
