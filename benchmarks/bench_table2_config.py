"""Table 2: simulation parameters.

Validates that the default configuration reproduces Table 2 verbatim and
benchmarks a full server construction + short boot-style run, which is
the fixed cost every other experiment pays.
"""

from conftest import banner

from repro.analysis.tables import format_table
from repro.system.config import TABLE2
from repro.system.server import PardServer
from repro.workloads.base import Boot


def build_and_boot():
    server = PardServer(TABLE2.scaled(16))
    server.firmware.create_ldom("boot", (0,), 4 << 20)
    server.start()
    server.firmware.launch_ldom("boot", {0: Boot(footprint_bytes=256 << 10)})
    server.run_ms(1.0)
    return server


def test_table2_configuration(benchmark):
    server = benchmark.pedantic(build_and_boot, rounds=1, iterations=1)

    banner("Table 2: Simulation Parameters")
    print(format_table(["parameter", "value"], TABLE2.describe()))

    # The paper's Table 2, checked field by field.
    assert TABLE2.num_cores == 4
    assert TABLE2.cpu_period_ps == 500           # 2 GHz
    assert TABLE2.l1_size_bytes == 64 * 1024     # 64KB 2-way, 2-cycle hit
    assert TABLE2.l1_ways == 2 and TABLE2.l1_hit_cycles == 2
    assert TABLE2.llc_size_bytes == 4 << 20      # 4MB 16-way, 20-cycle hit
    assert TABLE2.llc_ways == 16 and TABLE2.llc_hit_cycles == 20
    timing = TABLE2.dram_timing
    assert (timing.t_rcd, timing.t_cl, timing.t_rp) == (11, 11, 11)  # 13.75ns
    assert timing.t_ras == 28                    # 35 ns
    geometry = TABLE2.dram_geometry
    assert "1 channel, 2 ranks" in dict(TABLE2.describe())["DRAM"]
    assert geometry.ranks == 2
    assert geometry.banks_per_rank == 8 and geometry.row_bytes == 1024
    assert geometry.capacity_bytes == 8 << 30
    assert TABLE2.max_table_entries == 256 and TABLE2.max_triggers == 64

    # The built server actually ran the boot workload.
    assert server.cores[0].busy_ps > 0
    assert server.llc_control.occupancy_bytes(1) > 0
