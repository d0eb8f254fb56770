"""Unit tests for configuration and server assembly."""

import pytest

from repro.sim.engine import PS_PER_MS
from repro.system.config import ServerConfig, TABLE2
from repro.system.server import PardServer
from repro.workloads.stream import Stream


class TestServerConfig:
    def test_table2_values(self):
        assert TABLE2.num_cores == 4
        assert TABLE2.l1_size_bytes == 64 * 1024
        assert TABLE2.l1_ways == 2
        assert TABLE2.llc_size_bytes == 4 * 1024 * 1024
        assert TABLE2.llc_ways == 16
        assert TABLE2.llc_hit_cycles == 20
        assert TABLE2.dram_geometry.ranks == 2
        assert TABLE2.dram_geometry.banks_per_rank == 8
        assert TABLE2.max_table_entries == 256
        assert TABLE2.max_triggers == 64

    def test_scaled_preserves_geometry(self):
        scaled = TABLE2.scaled(8)
        assert scaled.llc_size_bytes == TABLE2.llc_size_bytes // 8
        assert scaled.llc_ways == TABLE2.llc_ways
        assert scaled.llc_hit_cycles == TABLE2.llc_hit_cycles
        assert scaled.dram_timing == TABLE2.dram_timing

    def test_scale_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            TABLE2.scaled(3)
        with pytest.raises(ValueError):
            TABLE2.scaled(0)

    def test_describe_covers_table2_rows(self):
        rows = dict(TABLE2.describe())
        assert "CPU" in rows and "DRAM" in rows and "PRM" in rows
        assert "4MB" in rows["Shared LLC"]

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            ServerConfig(num_cores=0)


class TestPardServerAssembly:
    def test_structure_matches_config(self):
        server = PardServer(TABLE2.scaled(16))
        assert len(server.cores) == 4
        assert len(server.l1s) == 4
        assert server.llc.config.ways == 16
        assert len(server.control_planes) == 4
        # Firmware mounted one CPA per control plane.
        assert server.firmware.ls("/sys/cpa") == ["cpa0", "cpa1", "cpa2", "cpa3"]

    def test_core_tags_start_at_default(self):
        server = PardServer(TABLE2.scaled(16))
        assert all(core.tag.ds_id == 0 for core in server.cores)

    def test_cpu_utilization_counts_busy_cores(self):
        server = PardServer(TABLE2.scaled(16))
        assert server.cpu_utilization() == 0.0
        server.firmware.create_ldom("a", (0,), 1 << 20)
        server.firmware.launch_ldom("a", {0: Stream(array_bytes=1 << 20)})
        assert server.cpu_utilization() == 0.25

    def test_memory_path_wired_through_llc(self):
        server = PardServer(TABLE2.scaled(16))
        assert server.l1s[0].downstream is server.llc
        assert server.llc.downstream is server.memory_controller

    def test_start_launches_windows(self):
        server = PardServer(TABLE2.scaled(16))
        server.start()
        # One window tick per CPA-mounted plane: nothing ticks that the
        # PRM cannot read.
        assert server.engine.pending_events == len(server.control_planes)
        server.firmware.create_ldom("a", (0,), 1 << 20)
        server.run_ms(2.1)
        # After two windows, statistics exist (zeros are fine).
        value = server.firmware.cat("/sys/cpa/cpa0/ldoms/ldom1/statistics/miss_rate")
        assert value == "0"

    def test_run_ms_advances_time(self):
        server = PardServer(TABLE2.scaled(16))
        server.run_ms(1.5)
        assert server.engine.now == int(1.5 * PS_PER_MS)
