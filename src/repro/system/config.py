"""Simulation configuration (Table 2 of the paper).

``TABLE2`` is the paper's configuration verbatim. Full-scale caches make
Python-speed experiments slow, so :meth:`ServerConfig.scaled` derives a
geometry-preserving reduction: capacities shrink by the scale factor
while associativities, latencies and all DRAM timing stay untouched --
contention behaviour (occupancy ratios, miss-rate crossovers, queueing)
is preserved because every working set in the experiments shrinks by the
same factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dram.timing import DramGeometry, DramTiming
from repro.sim.clock import CPU_CLOCK_PS, DRAM_CLOCK_PS
from repro.sim.engine import PS_PER_MS, PS_PER_US


@dataclass(frozen=True)
class ServerConfig:
    """Geometry, timing and management parameters for one PARD server."""

    # CPU (Table 2: 4 four-issue OoO x86 cores at 2 GHz)
    num_cores: int = 4
    cpu_period_ps: int = CPU_CLOCK_PS

    # L1 (64KB 2-way, 2-cycle hit; private per core)
    l1_size_bytes: int = 64 * 1024
    l1_ways: int = 2
    l1_hit_cycles: int = 2

    # Shared LLC (4MB 16-way, 20-cycle hit)
    llc_size_bytes: int = 4 * 1024 * 1024
    llc_ways: int = 16
    llc_hit_cycles: int = 20
    llc_mshrs: int = 32

    # DRAM (DDR3-1600, Table 2 timing; 8GB, 1 channel x 2 ranks x 8 banks)
    dram_period_ps: int = DRAM_CLOCK_PS
    dram_timing: DramTiming = DramTiming()
    dram_geometry: DramGeometry = DramGeometry()

    # Disk (4-channel IDE, 8 disks -- modeled as one shared controller)
    disk_bandwidth_bytes_per_s: int = 100 * 1024 * 1024
    disk_chunk_bytes: int = 64 * 1024

    # PRM (100 MHz embedded core; management timing)
    control_window_ps: int = PS_PER_MS
    firmware_reaction_ps: int = 20 * PS_PER_US

    # Control plane sizing (Fig. 12's design point: 256 tags, 64 triggers)
    max_table_entries: int = 256
    max_triggers: int = 64

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.llc_size_bytes % (self.llc_ways * 64):
            raise ValueError("LLC size must be divisible by ways * line size")

    def scaled(self, factor: int) -> "ServerConfig":
        """Shrink cache capacities by ``factor`` (a power of two).

        Associativity, latency and DRAM timing are preserved; only
        capacities (and thus simulation cost) change.
        """
        if factor < 1 or factor & (factor - 1):
            raise ValueError("scale factor must be a power of two >= 1")
        return replace(
            self,
            l1_size_bytes=max(self.l1_ways * 64, self.l1_size_bytes // factor),
            llc_size_bytes=max(self.llc_ways * 64, self.llc_size_bytes // factor),
        )

    def describe(self) -> list[tuple[str, str]]:
        """Table 2 as printable rows."""
        t = self.dram_timing
        g = self.dram_geometry
        return [
            ("CPU", f"{self.num_cores} cores @ {1000 / self.cpu_period_ps:.1f} GHz"),
            ("L1/core", f"{self.l1_size_bytes // 1024}KB {self.l1_ways}-way, "
                        f"hit = {self.l1_hit_cycles} cycles"),
            ("Shared LLC", f"{self.llc_size_bytes // (1024 * 1024)}MB "
                           f"{self.llc_ways}-way, hit = {self.llc_hit_cycles} cycles"),
            ("DRAM", f"DDR3-1600 {t.t_rcd}-{t.t_cl}-{t.t_rp}, "
                     f"1 channel, {g.ranks} ranks, "
                     f"{g.banks_per_rank} banks/rank, row buffer = {g.row_bytes}B"),
            ("Disks", f"IDE @ {self.disk_bandwidth_bytes_per_s // (1024 * 1024)} MB/s"),
            ("PRM", f"window = {self.control_window_ps // PS_PER_MS} ms, "
                    f"reaction = {self.firmware_reaction_ps // PS_PER_US} us"),
            ("Control planes", f"{self.max_table_entries} tags, "
                               f"{self.max_triggers} triggers"),
        ]


TABLE2 = ServerConfig()
