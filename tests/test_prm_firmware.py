"""Unit and integration tests for the PRM firmware."""

import pytest

from tests.helpers import FakeMemory
from repro.cache.control_plane import LlcControlPlane
from repro.core.address import AddressTranslationError
from repro.core.programming import TABLE_TRIGGER
from repro.core.tables import TableError
from repro.core.ldom import LDomState
from repro.core.triggers import TriggerOp
from repro.cpu.core import CpuCore
from repro.dram.control_plane import MemoryControlPlane
from repro.dram.timing import DramGeometry
from repro.io.apic import Apic
from repro.io.disk import IdeControlPlane
from repro.io.dma import DISK_INTERRUPT_VECTOR
from repro.prm.firmware import Firmware, FirmwareError, HardwareInventory
from repro.prm.rules import (
    chain_actions,
    log_action,
    partition_llc_action,
    raise_priority_action,
)
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine, PS_PER_MS
from repro.system.config import TABLE2
from repro.system.server import PardServer


def make_firmware(num_cores=4, with_apic=True):
    engine = Engine()
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine)
    cores = [CpuCore(engine, clock, i, memory) for i in range(num_cores)]
    apic = Apic(engine) if with_apic else None
    if apic:
        for core in cores:
            apic.register_core(core.core_id, lambda pkt, c=core: c.wake())
    planes = [
        LlcControlPlane(engine),
        MemoryControlPlane(engine),
        IdeControlPlane(engine),
    ]
    inventory = HardwareInventory(
        control_planes=planes, cores=cores, apic=apic,
        memory_capacity_bytes=1 << 30,
    )
    firmware = Firmware(engine, inventory)
    return engine, firmware, planes, cores, apic


class TestSysfsLayout:
    def test_cpa_nodes_mounted(self):
        _, firmware, _, _, _ = make_firmware()
        assert firmware.ls("/sys/cpa") == ["cpa0", "cpa1", "cpa2"]
        assert firmware.cat("/sys/cpa/cpa0/ident") == "CACHE_CP"
        assert firmware.cat("/sys/cpa/cpa1/ident") == "MEMORY_CP"
        assert "'C'" in firmware.cat("/sys/cpa/cpa0/type")

    def test_ldom_subtree_created(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("web", core_ids=(0,), memory_bytes=1 << 20)
        base = "/sys/cpa/cpa0/ldoms/ldom1"
        assert firmware.ls(f"{base}") == ["parameters", "statistics", "triggers"]
        assert "waymask" in firmware.ls(f"{base}/parameters")
        assert "miss_rate" in firmware.ls(f"{base}/statistics")


class TestLDomLifecycle:
    def test_create_programs_all_planes(self):
        _, firmware, (cache, mem, ide), cores, _ = make_firmware()
        ldom = firmware.create_ldom(
            "web", core_ids=(0, 1), memory_bytes=1 << 20,
            priority=1, disk_share=80,
        )
        assert ldom.ds_id == 1
        assert cache.parameters.get(1, "waymask") == 0xFFFF
        assert mem.parameters.get(1, "addr_base") == 0
        assert mem.parameters.get(1, "addr_size") == 1 << 20
        assert mem.parameters.get(1, "priority") == 1
        assert ide.parameters.get(1, "bandwidth") == 80
        assert cores[0].tag.ds_id == 1
        assert cores[1].tag.ds_id == 1

    def test_memory_windows_do_not_overlap(self):
        _, firmware, (_, mem, _), _, _ = make_firmware()
        a = firmware.create_ldom("a", (0,), 1 << 20)
        b = firmware.create_ldom("b", (1,), 1 << 20)
        assert mem.translate(a.ds_id, 0) != mem.translate(b.ds_id, 0)
        assert mem.mapping(a.ds_id).overlaps(mem.mapping(b.ds_id)) is False

    def test_apic_routes_programmed(self):
        _, firmware, _, _, apic = make_firmware()
        ldom = firmware.create_ldom("a", (2,), 1 << 20)
        assert apic.route_of(ldom.ds_id, 14) == 2

    def test_disk_interrupt_routes_to_the_first_core(self):
        _, firmware, _, _, apic = make_firmware()
        ldom = firmware.create_ldom("a", (2, 3), 1 << 20, disk_share=50)
        assert apic.route_of(ldom.ds_id, DISK_INTERRUPT_VECTOR) == 2

    def test_out_of_memory(self):
        _, firmware, _, _, _ = make_firmware()
        with pytest.raises(FirmwareError):
            firmware.create_ldom("big", (0,), 2 << 30)

    def test_core_double_assignment_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        with pytest.raises(FirmwareError):
            firmware.create_ldom("b", (0,), 1 << 20)

    def test_duplicate_name_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        with pytest.raises(FirmwareError):
            firmware.create_ldom("a", (1,), 1 << 20)

    def test_launch_runs_workloads(self):
        engine, firmware, _, cores, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)

        class Tiny:
            def bind(self, core): pass
            def ops(self):
                yield ("compute", 100)

        ldom = firmware.launch_ldom("a", {0: Tiny()})
        assert ldom.state is LDomState.RUNNING
        engine.run()
        assert cores[0].busy_ps == 100 * CPU_CLOCK_PS

    def test_launch_on_foreign_core_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        with pytest.raises(FirmwareError):
            firmware.launch_ldom("a", {3: object()})

    def test_destroy_cleans_up(self):
        _, firmware, (cache, mem, ide), cores, apic = make_firmware()
        ldom = firmware.create_ldom("a", (0,), 1 << 20)
        firmware.destroy_ldom("a")
        assert not cache.parameters.has(ldom.ds_id)
        assert cores[0].tag.ds_id == 0
        assert apic.route_of(ldom.ds_id, 14) is None
        assert not firmware.sysfs.exists("/sys/cpa/cpa0/ldoms/ldom1")
        assert "a" not in firmware.ldoms

    def test_disk_share_is_a_percentage(self):
        _, firmware, _, _, _ = make_firmware()
        for bad in (-1, 101):
            with pytest.raises(ValueError):
                firmware.create_ldom("a", (0,), 1 << 20, disk_share=bad)
        assert firmware.ldoms == {}
        assert firmware.memory_allocator.free_bytes == 1 << 30

    def test_empty_core_list_frees_the_memory_window(self):
        _, firmware, _, _, _ = make_firmware()
        with pytest.raises(ValueError):
            firmware.create_ldom("a", (), 1 << 20)
        assert firmware.memory_allocator.free_bytes == 1 << 30

    def test_launch_on_a_busy_core_changes_nothing(self):
        """A core whose destroyed LDom's step is still in flight refuses
        the next LDom's launch before the LDom or any core changes state."""
        engine, firmware, _, cores, _ = make_firmware()

        class Forever:
            def ops(self):
                while True:
                    yield ("compute", 1000)

        old = Forever()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.launch_ldom("a", {0: old})
        engine.run(until_ps=PS_PER_MS // 1000)
        firmware.destroy_ldom("a")
        b = firmware.create_ldom("b", (0, 1), 1 << 20)
        with pytest.raises(FirmwareError):
            firmware.launch_ldom("b", {1: Forever(), 0: Forever()})
        assert b.state is LDomState.CREATED
        assert cores[0].is_busy and cores[0]._workload is None
        assert not cores[1].is_busy


class TestShell:
    def test_echo_waymask_like_fig7(self):
        _, firmware, (cache, _, _), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.sh("echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
        assert cache.parameters.get(1, "waymask") == 0xFF00

    def test_cat_parameter(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        out = firmware.sh("cat /sys/cpa/cpa1/ldoms/ldom1/parameters/addr_size")
        assert int(out) == 1 << 20

    def test_ls(self):
        _, firmware, _, _, _ = make_firmware()
        out = firmware.sh("ls /sys/cpa")
        assert out.splitlines() == ["cpa0", "cpa1", "cpa2"]

    def test_pardtrigger_installs_rule(self):
        # Example 1 of Fig. 6.
        _, firmware, (cache, _, _), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.sh(
            "pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,30"
        )
        rule = cache.triggers.rule_at(1, 0)
        assert rule is not None
        assert rule.op is TriggerOp.GT
        assert rule.threshold == 3000  # 30% in basis points

    def test_pardtrigger_for_a_ds_id_no_ldom_holds_changes_nothing(self):
        _, firmware, (cache, _, _), _, _ = make_firmware()
        with pytest.raises(FirmwareError):
            firmware.sh(
                "pardtrigger /dev/cpa0 -ldom=2 -action=0 -stats=miss_rate -cond=gt,30"
            )
        assert cache.triggers.rules() == []
        assert firmware.ls("/sys/cpa/cpa0/ldoms") == []
        firmware.create_ldom("a", (0,), 1 << 20)
        b = firmware.create_ldom("b", (1,), 1 << 20)
        # b takes DS-id 2 without inheriting an armed rule or its file.
        assert b.ds_id == 2
        assert cache.triggers.rule_at(2, 0) is None
        assert firmware.ls("/sys/cpa/cpa0/ldoms/ldom2/triggers") == []

    def test_refused_pardtrigger_on_a_full_table_writes_nothing(self):
        _, firmware, (cache, _, _), _, _ = make_firmware()
        cache.triggers.max_triggers = 1
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.sh(
            "pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,30"
        )
        with pytest.raises(TableError):
            firmware.sh(
                "pardtrigger /dev/cpa0 -ldom=1 -action=1 -stats=hit_cnt -cond=lt,7"
            )
        # Slot 1 reads as never written through the CPA register protocol:
        # enabled and fire_count 0, every other field an empty-slot error.
        registers = firmware.io_space.by_name("cpa0").register_file
        triggers = cache.triggers

        def read(field):
            offset = triggers.offset_of(field, slot=1)
            return registers.read_cell(1, offset, TABLE_TRIGGER)

        assert read("enabled") == 0 and read("fire_count") == 0
        for field in ("stat_col", "op", "threshold", "action_id"):
            with pytest.raises(TableError):
                read(field)
        assert firmware.ls("/sys/cpa/cpa0/ldoms/ldom1/triggers") == ["0"]
        # The armed rule still holds its slot, and re-programming it fits.
        firmware.sh(
            "pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,40"
        )
        assert triggers.rule_at(1, 0).threshold == 4000

    def test_unknown_command(self):
        _, firmware, _, _, _ = make_firmware()
        with pytest.raises(FirmwareError):
            firmware.sh("rm -rf /")

    def test_bad_number(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        with pytest.raises(FirmwareError):
            firmware.sh("echo banana > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")


def machine_state(firmware, planes, cores, apic):
    """Everything a create programs: windows, sysfs, rows, tags, routes."""
    return (
        firmware.memory_allocator.free_bytes,
        [firmware.ls(f"/sys/cpa/cpa{i}/ldoms") for i in range(len(planes))],
        [
            (
                {d: dict(row) for d, row in cp.parameters.row_view.items()},
                {d: dict(row) for d, row in cp.statistics.row_view.items()},
            )
            for cp in planes
        ],
        [core.tag.ds_id for core in cores],
        [apic.route_of(d, DISK_INTERRUPT_VECTOR) for d in range(4)],
    )


class TestFailedCreateLeavesNothing:
    """A create a control plane rejects is undone before it raises."""

    def test_rejected_disk_share_undoes_the_create(self):
        _, firmware, planes, cores, apic = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20, disk_share=80)
        after_a = machine_state(firmware, planes, cores, apic)
        with pytest.raises(ValueError):
            firmware.create_ldom("b", (1,), 1 << 20, disk_share=30)
        assert machine_state(firmware, planes, cores, apic) == after_a
        assert firmware.memory_allocator.free_bytes == (1 << 30) - (1 << 20)
        assert list(firmware.ldoms) == ["a"]

    def test_failed_create_does_not_use_up_its_ds_id(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20, disk_share=80)
        with pytest.raises(ValueError):
            firmware.create_ldom("b", (1,), 1 << 20, disk_share=30)
        assert firmware.create_ldom("b", (1,), 1 << 20, disk_share=20).ds_id == 2


class TestRejectedParameterWrites:
    """A write the control plane rejects raises and leaves the old cell."""

    @pytest.mark.parametrize("bad", ["0", "0x1FFFF", "-1"])
    def test_waymask_outside_the_ways_rejected(self, bad):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        path = "/sys/cpa/cpa0/ldoms/ldom1/parameters/waymask"
        firmware.sh(f"echo 0xFF00 > {path}")
        with pytest.raises(ValueError):
            firmware.sh(f"echo {bad} > {path}")
        assert int(firmware.sh(f"cat {path}")) == 0xFF00
        firmware.sh(f"echo 0xFFFF > {path}")
        assert int(firmware.sh(f"cat {path}")) == 0xFFFF

    def test_overlapping_addr_size_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        a = firmware.create_ldom("a", (0,), 1 << 20)
        b = firmware.create_ldom("b", (1,), 1 << 20)
        assert a.memory.limit <= b.memory.base
        path = f"/sys/cpa/cpa1/ldoms/ldom{a.ds_id}/parameters/addr_size"
        with pytest.raises(AddressTranslationError):
            firmware.sh(f"echo {b.memory.limit - a.memory.base} > {path}")
        assert int(firmware.sh(f"cat {path}")) == 1 << 20

    def test_overlapping_addr_base_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        a = firmware.create_ldom("a", (0,), 1 << 20)
        b = firmware.create_ldom("b", (1,), 1 << 20)
        path = f"/sys/cpa/cpa1/ldoms/ldom{b.ds_id}/parameters/addr_base"
        with pytest.raises(AddressTranslationError):
            firmware.sh(f"echo {a.memory.base} > {path}")
        assert int(firmware.sh(f"cat {path}")) == b.memory.base

    @pytest.mark.parametrize("column", ["addr_base", "addr_size"])
    def test_window_beyond_the_dram_rejected(self, column):
        # -1 reaches the plane as 2**64 - 1 through the 64-bit data
        # register; a window ending one byte past the channel is refused
        # too, one ending exactly at its end lands.
        _, firmware, (_, mem, _), _, _ = make_firmware()
        a = firmware.create_ldom("a", (0,), 1 << 20)
        capacity = mem.capacity_bytes
        assert capacity == DramGeometry().capacity_bytes
        path = f"/sys/cpa/cpa1/ldoms/ldom{a.ds_id}/parameters/{column}"
        before = int(firmware.sh(f"cat {path}"))
        last_fit = capacity - (1 << 20) if column == "addr_base" else capacity
        for bad in ("-1", str(last_fit + 1)):
            with pytest.raises(AddressTranslationError):
                firmware.sh(f"echo {bad} > {path}")
            assert int(firmware.sh(f"cat {path}")) == before
            assert mem.translate(a.ds_id, 0) == a.memory.base
        firmware.sh(f"echo {last_fit} > {path}")
        assert int(firmware.sh(f"cat {path}")) == last_fit

    def test_server_plane_knows_the_dram_capacity(self):
        config = TABLE2.scaled(32)
        server = PardServer(config)
        assert server.memory_control.capacity_bytes == (
            config.dram_geometry.capacity_bytes
        )

    @pytest.mark.parametrize("bad", ["-1", "101"])
    def test_bandwidth_outside_a_percentage_rejected(self, bad):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        path = "/sys/cpa/cpa2/ldoms/ldom1/parameters/bandwidth"
        firmware.echo("30", path)
        with pytest.raises(ValueError):
            firmware.echo(bad, path)
        assert int(firmware.cat(path)) == 30

    def test_bandwidth_quotas_over_100_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        a = firmware.create_ldom("a", (0,), 1 << 20)
        b = firmware.create_ldom("b", (1,), 1 << 20)
        path_a = f"/sys/cpa/cpa2/ldoms/ldom{a.ds_id}/parameters/bandwidth"
        path_b = f"/sys/cpa/cpa2/ldoms/ldom{b.ds_id}/parameters/bandwidth"
        # Fig. 10's sequence stays legal: 80 for one LDom, then 20 for
        # the other.
        firmware.echo("80", path_a)
        firmware.echo("20", path_b)
        with pytest.raises(ValueError):
            firmware.echo("21", path_b)
        assert int(firmware.cat(path_b)) == 20
        # Rewriting a DS-id's own quota counts only the others'.
        firmware.echo("70", path_a)
        firmware.echo("80", path_a)
        assert int(firmware.cat(path_a)) == 80


class TestTriggerActionPath:
    def test_end_to_end_trigger_reaction(self):
        """The paper's Fig. 9 mechanism: miss rate > 30% => the LDom gets
        the top half of the ways, and every other LDom the rest."""
        engine, firmware, (cache, _, _), _, _ = make_firmware()
        firmware.create_ldom("mc", (0,), 1 << 20)
        firmware.create_ldom("other", (1,), 1 << 20)
        firmware.sh("echo 0x000F > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
        firmware.register_script("/cpa0_ldom1_t0.sh", partition_llc_action(num_ways=16))
        firmware.sh("pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,30")
        firmware.sh("echo /cpa0_ldom1_t0.sh > /sys/cpa/cpa0/ldoms/ldom1/triggers/0")
        # Simulate a hot window: many misses for DS-id 1, counted where
        # the LLC counts them.
        cache.window_misses[1] = 70
        cache.window_hits[1] = 30
        cache.roll_window()
        # The script runs only after the firmware reaction latency.
        assert cache.parameters.get(1, "waymask") == 0x000F
        engine.run()
        assert cache.parameters.get(1, "waymask") == 0xFF00
        assert cache.parameters.get(2, "waymask") == 0x00FF
        assert firmware.trigger_log

    def test_trigger_without_binding_only_logs(self):
        engine, firmware, (cache, _, _), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.install_trigger("cpa0", 1, "miss_rate", "gt,0", action_id=0)
        cache.window_misses[1] = 1
        cache.roll_window()
        engine.run()
        assert len(firmware.trigger_log) == 1

    def test_binding_unregistered_script_rejected(self):
        _, firmware, _, _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.install_trigger("cpa0", 1, "miss_rate", "gt,30")
        with pytest.raises(FirmwareError):
            firmware.sh("echo /nope.sh > /sys/cpa/cpa0/ldoms/ldom1/triggers/0")

    def test_chained_log_and_react(self):
        engine, firmware, (cache, _, _), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        firmware.sh("echo 0x0003 > /sys/cpa/cpa0/ldoms/ldom1/parameters/waymask")
        script = chain_actions(log_action(), partition_llc_action(16))
        firmware.register_script("/t.sh", script)
        firmware.install_trigger("cpa0", 1, "miss_rate", "gt,10")
        firmware.sh("echo /t.sh > /sys/cpa/cpa0/ldoms/ldom1/triggers/0")
        cache.window_misses[1] = 10
        cache.roll_window()
        engine.run()
        assert "trigger" in firmware.cat("/log/triggers.log")
        assert cache.parameters.get(1, "waymask") == 0xFF00

    def test_priority_action(self):
        engine, firmware, (_, mem, _), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20, priority=0)
        firmware.register_script("/p.sh", raise_priority_action(1))
        firmware.install_trigger("cpa1", 1, "avg_qlat", "gt,10")
        firmware.sh("echo /p.sh > /sys/cpa/cpa1/ldoms/ldom1/triggers/0")
        # One served request with 50 cycles of queueing delay, counted
        # where the controller counts it: [bytes, delay sum, requests].
        mem.window_service[1] = [64, 50.0, 1]
        mem.roll_window()
        engine.run()
        assert mem.parameters.get(1, "priority") == 1

    def test_set_parameter_action(self):
        engine, firmware, (_, _, ide), _, _ = make_firmware()
        firmware.create_ldom("a", (0,), 1 << 20)
        # A script written against the file primitives alone: echo a
        # fixed value into one parameter cell of the triggering LDom.
        def set_bandwidth(firmware, context):
            firmware.echo("80", f"{context['ldom_path']}/parameters/bandwidth")

        firmware.register_script("/s.sh", set_bandwidth)
        firmware.install_trigger("cpa2", 1, "bandwidth", "ge,0")
        firmware.sh("echo /s.sh > /sys/cpa/cpa2/ldoms/ldom1/triggers/0")
        ide.roll_window()
        engine.run()
        assert ide.parameters.get(1, "bandwidth") == 80
