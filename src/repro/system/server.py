"""The assembled PARD server.

Builds the Fig. 2 machine: tagged cores behind private L1s, a shared LLC
with its control plane, a DDR3 memory controller with its control plane,
an I/O bridge / IDE with theirs, a per-DS-id APIC, and the PRM
firmware wired to every control plane through CPA register files.

The paper's baselines fall out of policy, not structure: a "conventional
shared server" is this machine with every LDom left at the default
share-everything parameters, and "solo" launches only one LDom.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.cache import Cache, CacheConfig
from repro.cache.control_plane import LlcControlPlane
from repro.cpu.core import CpuCore
from repro.dram.control_plane import MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.io.apic import Apic
from repro.io.bridge import IoBridge, IoBridgeControlPlane
from repro.io.disk import IdeControlPlane, IdeController
from repro.prm.firmware import Firmware, HardwareInventory
from repro.sim.clock import ClockDomain
from repro.sim.engine import Engine, run_sampled
from repro.system.config import ServerConfig, TABLE2


class PardServer:
    """A four-core PARD server (Table 2 defaults)."""

    def __init__(
        self,
        config: ServerConfig = TABLE2,
        engine: Optional[Engine] = None,
        telemetry=None,
    ):
        self.config = config
        self.engine = engine or Engine()
        self.telemetry = telemetry
        engine = self.engine
        if telemetry is not None:
            telemetry.registry.gauge_fn(
                "engine.executed_total", lambda: self.engine.executed_total
            )
            telemetry.registry.gauge_fn(
                "engine.pending_events", lambda: self.engine.pending_events
            )

        self.cpu_clock = ClockDomain(engine, config.cpu_period_ps, "cpu")
        self.dram_clock = ClockDomain(engine, config.dram_period_ps, "dram")

        # Control planes (the grey boxes of Fig. 2).
        plane_kwargs = dict(
            max_entries=config.max_table_entries,
            max_triggers=config.max_triggers,
            window_ps=config.control_window_ps,
        )
        self.llc_control = LlcControlPlane(
            engine, num_ways=config.llc_ways, **plane_kwargs
        )
        self.memory_control = MemoryControlPlane(
            engine, capacity_bytes=config.dram_geometry.capacity_bytes,
            **plane_kwargs,
        )
        self.ide_control = IdeControlPlane(engine, **plane_kwargs)
        self.bridge_control = IoBridgeControlPlane(engine, **plane_kwargs)

        # Memory hierarchy: one DDR3 controller (Table 2).
        self.memory_controller = MemoryController(
            engine, self.dram_clock,
            timing=config.dram_timing, geometry=config.dram_geometry,
            control=self.memory_control, telemetry=telemetry,
        )
        llc_config = CacheConfig(
            name="llc",
            size_bytes=config.llc_size_bytes,
            ways=config.llc_ways,
            hit_latency_cycles=config.llc_hit_cycles,
            mshr_entries=config.llc_mshrs,
        )
        self.llc = Cache(
            engine, self.cpu_clock, llc_config, self.memory_controller,
            control=self.llc_control, telemetry=telemetry,
        )

        # I/O.
        self.apic = Apic(engine, telemetry=telemetry)
        self.ide = IdeController(
            engine, control=self.ide_control, memory=self.memory_controller,
            apic=self.apic,
            total_bandwidth_bytes_per_s=config.disk_bandwidth_bytes_per_s,
            chunk_bytes=config.disk_chunk_bytes,
            telemetry=telemetry,
        )
        self.bridge = IoBridge(
            engine, control=self.bridge_control, telemetry=telemetry
        )
        self.bridge.attach_device("ide0", self.ide)

        # Cores behind private L1s.
        self.l1s: list[Cache] = []
        self.cores: list[CpuCore] = []
        for core_id in range(config.num_cores):
            l1_config = CacheConfig(
                name=f"l1d{core_id}",
                size_bytes=config.l1_size_bytes,
                ways=config.l1_ways,
                hit_latency_cycles=config.l1_hit_cycles,
            )
            l1 = Cache(
                engine, self.cpu_clock, l1_config, self.llc,
                telemetry=telemetry,
            )
            core = CpuCore(
                engine, self.cpu_clock, core_id, l1, io_port=self.bridge,
                telemetry=telemetry,
            )
            self.apic.register_core(core_id, lambda pkt, c=core: c.wake())
            self.l1s.append(l1)
            self.cores.append(core)

        # The PRM and its firmware.
        self.control_planes = [
            self.llc_control,
            self.memory_control,
            self.ide_control,
            self.bridge_control,
        ]
        inventory = HardwareInventory(
            control_planes=self.control_planes,
            cores=self.cores,
            apic=self.apic,
            caches=[self.llc] + self.l1s,
            disks=[self.ide],
            memory_capacity_bytes=config.dram_geometry.capacity_bytes,
        )
        self.firmware = Firmware(
            engine, inventory,
            reaction_latency_ps=config.firmware_reaction_ps,
            telemetry=telemetry,
        )

    # -- operation ----------------------------------------------------------

    def start(self) -> None:
        """Begin control-plane statistics windows (call before running)."""
        for plane in self.control_planes:
            plane.start_windows()
        if self.telemetry is not None:
            self.telemetry.start_snapshots(self.engine.now)

    def run_ms(self, milliseconds: float) -> int:
        """Advance the machine, taking the hub's periodic snapshots on the
        way; returns the number of events executed."""
        until_ps = self.engine.now + int(milliseconds * 1_000_000_000)
        samplers = () if self.telemetry is None else (self.telemetry,)
        return run_sampled(self.engine, until_ps, samplers)

    # -- measurement -----------------------------------------------------------

    def cpu_utilization(self) -> float:
        """Fraction of cores currently running work (the paper's server
        CPU-utilization metric: busy cores / total cores)."""
        busy = sum(1 for core in self.cores if core.is_busy)
        return busy / len(self.cores)
