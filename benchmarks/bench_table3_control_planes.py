"""Table 3: control plane tables.

Enumerates the live parameter/statistics/trigger table schemas of every
control plane *through the CPA register protocol and device file tree*,
and checks they carry the columns Table 3 lists (cache way masks, memory
address mapping / priority / row-buffer policy, disk bandwidth, and the
trigger rules the paper names).
"""

from conftest import banner

from repro.analysis.tables import format_table
from repro.core.triggers import TriggerOp
from repro.system.config import TABLE2
from repro.system.server import PardServer


def build_programmed_server():
    server = PardServer(TABLE2.scaled(16))
    fw = server.firmware
    fw.create_ldom("ldom", (0,), 8 << 20, priority=1, disk_share=80)
    # Install the three trigger rules Table 3 names.
    fw.sh("pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,30")
    fw.sh("pardtrigger /dev/cpa1 -ldom=1 -action=0 -stats=avg_qlat -cond=gt,20")
    fw.sh("pardtrigger /dev/cpa1 -ldom=1 -action=1 -stats=avg_qlat -cond=gt,40")
    return server


def test_table3_control_plane_tables(benchmark):
    server = benchmark.pedantic(build_programmed_server, rounds=1, iterations=1)
    fw = server.firmware

    banner("Table 3: Control Plane Tables (live schemas via sysfs)")
    rows = []
    for cpa in fw.ls("/sys/cpa"):
        ident = fw.cat(f"/sys/cpa/{cpa}/ident")
        params = fw.ls(f"/sys/cpa/{cpa}/ldoms/ldom1/parameters")
        stats = fw.ls(f"/sys/cpa/{cpa}/ldoms/ldom1/statistics")
        rows.append([cpa, ident, ", ".join(params), ", ".join(stats)])
    print(format_table(["cpa", "ident", "parameters", "statistics"], rows))

    # Table 3, row by row.
    cache_params = fw.ls("/sys/cpa/cpa0/ldoms/ldom1/parameters")
    assert "waymask" in cache_params                        # cache: way mask-bits
    mem_params = fw.ls("/sys/cpa/cpa1/ldoms/ldom1/parameters")
    assert {"addr_base", "addr_size"} <= set(mem_params)    # address mapping
    assert "priority" in mem_params                         # scheduling priority
    assert "rowbuf" in mem_params                           # row-buffer mask-bits
    disk_params = fw.ls("/sys/cpa/cpa2/ldoms/ldom1/parameters")
    assert "bandwidth" in disk_params                       # disk: bandwidth

    cache_stats = fw.ls("/sys/cpa/cpa0/ldoms/ldom1/statistics")
    assert {"miss_rate", "capacity"} <= set(cache_stats)    # cache statistics
    mem_stats = fw.ls("/sys/cpa/cpa1/ldoms/ldom1/statistics")
    assert {"bandwidth", "avg_qlat"} <= set(mem_stats)      # memory statistics
    disk_stats = fw.ls("/sys/cpa/cpa2/ldoms/ldom1/statistics")
    assert "bandwidth" in disk_stats                        # disk statistics

    # Trigger table rows: LLC miss rate and memory latency triggers.
    llc_rule = server.llc_control.triggers.rule_at(1, 0)
    assert llc_rule.stat_column == "miss_rate"
    assert llc_rule.op is TriggerOp.GT and llc_rule.threshold == 3000
    mem_rules = server.memory_control.triggers.rules()
    assert len(mem_rules) == 2
    assert all(rule.stat_column == "avg_qlat" for _, _, rule in mem_rules)

    # The programmed values landed in the hardware tables.
    assert server.memory_control.parameters.get(1, "priority") == 1
    assert server.ide_control.quota(1) == 80
