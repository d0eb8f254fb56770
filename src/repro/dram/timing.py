"""DDR3 timing and geometry (Table 2 of the paper).

The simulated channel is DDR3-1600 11-11-11 with Micron MT41J512M8-class
4 Gbit chips: one channel, two ranks, eight banks per rank, 1 KB row
buffers, burst length 8. All timing constants are expressed in memory
bus cycles (tCK = 1.25 ns); each controller converts them to
picoseconds once, with its clock domain's cycle time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class DramTiming:
    """DDR3 timing constraints in memory cycles.

    The derived latencies are cached on first read (the dataclass is
    frozen, so they cannot go stale): each controller built from a
    configuration reads them once, when it builds its banks.

    Table 2 gives nanosecond values at tCK = 1.25 ns:
    tRCD = tCL = tRP = 13.75 ns = 11 cycles, tRAS = 35 ns = 28 cycles,
    burst of 8 transfers = 4 cycles (DDR).
    """

    t_rcd: int = 11  # row-to-column (ACTIVATE -> READ/WRITE)
    t_cl: int = 11   # CAS latency (READ -> first data)
    t_rp: int = 11   # row precharge
    t_ras: int = 28  # minimum row-active time (ACTIVATE -> PRECHARGE)
    t_burst: int = 4  # BL8 on a DDR bus = 4 bus cycles

    def __post_init__(self) -> None:
        for field_name in ("t_rcd", "t_cl", "t_rp", "t_ras", "t_burst"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @cached_property
    def row_hit_latency(self) -> int:
        """Issue-to-last-data for a row-buffer hit, in cycles."""
        return self.t_cl + self.t_burst

    @cached_property
    def row_closed_latency(self) -> int:
        """Issue-to-last-data when the bank is precharged (row empty)."""
        return self.t_rcd + self.t_cl + self.t_burst

    @cached_property
    def row_conflict_latency(self) -> int:
        """Issue-to-last-data when another row is open (precharge first)."""
        return self.t_rp + self.t_rcd + self.t_cl + self.t_burst


@dataclass(frozen=True)
class DramGeometry:
    """The one channel's organization (Table 2).

    The machine has one DDR3 channel, one controller and one data bus,
    so the geometry has no channel count: every bank below shares that
    bus.
    """

    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 1024
    capacity_bytes: int = 8 * 1024 ** 3  # 8 GB

    def __post_init__(self) -> None:
        if min(self.ranks, self.banks_per_rank, self.row_bytes) <= 0:
            raise ValueError("geometry values must be positive")
        if self.row_bytes & (self.row_bytes - 1):
            raise ValueError("row_bytes must be a power of two")

    @cached_property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank


def decompose_address(addr: int, geometry: DramGeometry) -> tuple[int, int, int]:
    """DRAM physical address -> ``(bank_index, row, column)``.

    Consecutive rows interleave across banks so streaming workloads
    spread over the whole channel (standard row-interleaved mapping).
    ``bank_index`` is flat across ranks (0 .. total_banks-1).
    """
    if addr < 0:
        raise ValueError(f"negative DRAM address {addr}")
    column = addr % geometry.row_bytes
    row_number = addr // geometry.row_bytes
    bank_index = row_number % geometry.total_banks
    row = row_number // geometry.total_banks
    return bank_index, row, column
