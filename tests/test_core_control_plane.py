"""Unit tests for the base ControlPlane and TriggerBank."""

import pytest

from repro.core.control_plane import ControlPlane, TriggerBank
from repro.core.programming import TABLE_PARAMETER, TABLE_STATISTICS, TABLE_TRIGGER
from repro.core.tables import TableError, TableSchema
from repro.core.triggers import TriggerOp
from repro.sim.engine import Engine, PS_PER_MS


class FakeCachePlane(ControlPlane):
    """A minimal concrete control plane for framework tests."""

    IDENT = "CACHE_CP"
    TYPE_CODE = "C"
    PARAMETER_COLUMNS = (("waymask", 0xFFFF),)
    STATISTICS_COLUMNS = (("miss_rate", 0), ("capacity", 0))

    def __init__(self, engine, **kwargs):
        super().__init__(engine, "cache_cp", **kwargs)
        self.pending_miss_rate = {}
        self.parameter_writes = []

    def on_window(self):
        for ds_id, rate in self.pending_miss_rate.items():
            if self.statistics.has(ds_id):
                self.statistics.set(ds_id, "miss_rate", rate)

    def on_parameter_write(self, ds_id, column, value):
        self.parameter_writes.append((ds_id, column, value))


def arm(bank, ds_id, column, op, threshold, slot=0):
    """Program and enable one trigger slot through its register cells."""
    for field, value in (
        ("stat_col", bank.stats_schema.offset_of(column)),
        ("op", int(op)),
        ("threshold", threshold),
        ("enabled", 1),
    ):
        bank.write_cell(ds_id, bank.offset_of(field, slot), value)


@pytest.fixture
def plane():
    return FakeCachePlane(Engine())


class TestLDomLifecycle:
    def test_allocate_creates_rows(self, plane):
        plane.allocate_ldom(1, waymask=0x00FF)
        assert plane.parameters.get(1, "waymask") == 0x00FF
        assert plane.statistics.get(1, "miss_rate") == 0
        assert plane.ds_ids == [1]

    def test_free_removes_rows_and_triggers(self, plane):
        plane.allocate_ldom(1)
        arm(plane.triggers, 1, "miss_rate", TriggerOp.GT, 3000)
        plane.free_ldom(1)
        assert plane.ds_ids == []
        assert plane.triggers.rules() == []


class TestRegisterFileIntegration:
    def test_parameter_write_via_protocol_invokes_hook(self, plane):
        plane.allocate_ldom(0)
        plane.register_file.write_cell(0, 0, TABLE_PARAMETER, 0xFF00)
        assert plane.parameters.get(0, "waymask") == 0xFF00
        assert plane.parameter_writes == [(0, "waymask", 0xFF00)]

    def test_statistics_read_via_protocol(self, plane):
        plane.allocate_ldom(0)
        plane.statistics.set(0, "capacity", 4096)
        assert plane.register_file.read_cell(0, 1, TABLE_STATISTICS) == 4096

    def test_trigger_install_via_protocol(self, plane):
        plane.allocate_ldom(2)
        rf = plane.register_file
        stat_col = plane.statistics.schema.offset_of("miss_rate")
        base = 0  # slot 0
        rf.write_cell(2, base + 0, TABLE_TRIGGER, stat_col)
        rf.write_cell(2, base + 1, TABLE_TRIGGER, int(TriggerOp.GT))
        rf.write_cell(2, base + 2, TABLE_TRIGGER, 3000)
        rf.write_cell(2, base + 3, TABLE_TRIGGER, 0)
        rf.write_cell(2, base + 4, TABLE_TRIGGER, 1)  # enable
        rule = plane.triggers.rule_at(2, 0)
        assert rule is not None
        assert rule.stat_column == "miss_rate"
        assert rule.threshold == 3000

    def test_trigger_fire_count_readable_via_protocol(self, plane):
        plane.allocate_ldom(2)
        arm(plane.triggers, 2, "miss_rate", TriggerOp.GT, 3000)
        plane.pending_miss_rate[2] = 5000
        plane.roll_window()
        fire_offset = plane.triggers.offset_of("fire_count")
        assert plane.register_file.read_cell(2, fire_offset, TABLE_TRIGGER) == 1

    def test_trigger_slot_register_semantics(self):
        """The trigger table as the register protocol exposes it."""
        plane = FakeCachePlane(Engine(), max_triggers=2)
        plane.allocate_ldom(1)
        rf = plane.register_file
        fields = ("stat_col", "op", "threshold", "action_id", "enabled", "fire_count")

        def write(slot, name, value):
            rf.write_cell(1, slot * 8 + fields.index(name), TABLE_TRIGGER, value)

        def read(slot, name):
            return rf.read_cell(1, slot * 8 + fields.index(name), TABLE_TRIGGER)

        def armed():
            return [(d, s) for d, s, _ in plane.triggers.rules()]

        # A slot never written: enabled and fire_count read 0, the rest raise.
        assert read(0, "enabled") == 0 and read(0, "fire_count") == 0
        for name in ("stat_col", "op", "threshold", "action_id"):
            with pytest.raises(TableError):
                read(0, name)
        # Staged fields arm nothing; enabled=1 arms the rule.
        write(0, "stat_col", plane.statistics.schema.offset_of("miss_rate"))
        write(0, "op", int(TriggerOp.GT))
        write(0, "threshold", 3000)
        assert armed() == [] and read(0, "enabled") == 0
        assert read(0, "threshold") == 3000 and read(0, "action_id") == 0
        write(0, "enabled", 1)
        assert armed() == [(1, 0)] and read(0, "enabled") == 1
        plane.pending_miss_rate[1] = 5000
        assert len(plane.roll_window()) == 1
        assert plane.roll_window() == []  # edge-armed: a standing condition
        # A write to any field keeps fire_count and re-arms the rule.
        write(0, "threshold", 4000)
        assert read(0, "fire_count") == 1
        assert len(plane.roll_window()) == 1
        assert read(0, "fire_count") == 2
        # Disabling keeps the fields; re-enabling restarts fire_count.
        write(0, "enabled", 0)
        assert armed() == [] and plane.roll_window() == []
        assert read(0, "enabled") == 0 and read(0, "threshold") == 4000
        write(0, "enabled", 1)
        assert read(0, "fire_count") == 0
        # Capacity counts armed rules only.
        write(1, "enabled", 1)
        write(2, "threshold", 7)
        with pytest.raises(TableError):
            write(2, "enabled", 1)
        assert read(2, "enabled") == 0 and armed() == [(1, 0), (1, 1)]
        write(0, "threshold", 4500)  # an armed rule at capacity stays writable
        write(0, "enabled", 1)
        assert plane.triggers.rule_at(1, 0).threshold == 4500
        with pytest.raises(TableError):
            write(0, "fire_count", 5)


class TestWindowsAndInterrupts:
    def test_trigger_fires_and_raises_interrupt(self, plane):
        received = []
        plane.attach_interrupt(lambda cp, ds_id, rule: received.append((ds_id, rule.stat_column)))
        plane.allocate_ldom(2)
        arm(plane.triggers, 2, "miss_rate", TriggerOp.GT, 3000)
        plane.pending_miss_rate[2] = 3500
        fired = plane.roll_window()
        assert [(d, r.stat_column) for d, r in fired] == [(2, "miss_rate")]
        assert received == [(2, "miss_rate")]
        assert plane.interrupts_raised == 1

    def test_no_interrupt_below_threshold(self, plane):
        received = []
        plane.attach_interrupt(lambda *args: received.append(args))
        plane.allocate_ldom(2)
        arm(plane.triggers, 2, "miss_rate", TriggerOp.GT, 3000)
        plane.pending_miss_rate[2] = 1000
        assert plane.roll_window() == []
        assert received == []

    def test_periodic_windows_run_on_engine(self):
        engine = Engine()
        plane = FakeCachePlane(engine, window_ps=PS_PER_MS)
        plane.allocate_ldom(1)
        plane.pending_miss_rate[1] = 1234
        plane.start_windows()
        engine.run(until_ps=3 * PS_PER_MS)
        assert plane.statistics.get(1, "miss_rate") == 1234

    def test_start_windows_idempotent(self):
        engine = Engine()
        plane = FakeCachePlane(engine, window_ps=PS_PER_MS)
        plane.start_windows()
        plane.start_windows()
        engine.run(until_ps=PS_PER_MS)
        # One tick scheduled per window, not two.
        assert engine.pending_events == 1

    def test_trigger_on_unallocated_dsid_sees_zero(self, plane):
        arm(plane.triggers, 7, "miss_rate", TriggerOp.EQ, 0)
        fired = plane.roll_window()
        assert len(fired) == 1  # observed default 0 == 0


class TestTriggerBank:
    def schema(self):
        return TableSchema([("miss_rate", 0), ("capacity", 0)])

    def test_install_auto_slot(self):
        bank = TriggerBank(self.schema())
        arm(bank, 1, "miss_rate", TriggerOp.GT, 10, slot=0)
        arm(bank, 1, "capacity", TriggerOp.LT, 5, slot=1)
        assert [(d, s, r.stat_column) for d, s, r in bank.rules()] == [
            (1, 0, "miss_rate"),
            (1, 1, "capacity"),
        ]

    def test_capacity_enforced(self):
        bank = TriggerBank(self.schema(), max_triggers=1)
        arm(bank, 1, "miss_rate", TriggerOp.GT, 10)
        with pytest.raises(TableError):
            arm(bank, 2, "miss_rate", TriggerOp.GT, 10)

    def test_disable_frees_capacity(self):
        bank = TriggerBank(self.schema(), max_triggers=1)
        arm(bank, 1, "miss_rate", TriggerOp.GT, 10)
        bank.write_cell(1, bank.offset_of("enabled"), 0)
        arm(bank, 2, "miss_rate", TriggerOp.GT, 10)
        assert [(d, s) for d, s, _ in bank.rules()] == [(2, 0)]

    def test_live_threshold_update_preserves_fire_count(self):
        bank = TriggerBank(self.schema())
        arm(bank, 1, "miss_rate", TriggerOp.GT, 10)
        rule = bank.rule_at(1, 0)
        rule.evaluate(50)
        assert rule.fire_count == 1
        bank.write_cell(1, bank.offset_of("threshold"), 99)
        updated = bank.rule_at(1, 0)
        assert updated.threshold == 99
        assert updated.fire_count == 1

    def test_fire_count_not_writable(self):
        bank = TriggerBank(self.schema())
        with pytest.raises(TableError):
            bank.write_cell(1, bank.offset_of("fire_count"), 5)

    def test_read_empty_slot_raises(self):
        bank = TriggerBank(self.schema())
        with pytest.raises(TableError):
            bank.read_cell(1, 0)

    def test_read_enabled_of_empty_slot_is_zero(self):
        bank = TriggerBank(self.schema())
        assert bank.read_cell(1, bank.offset_of("enabled")) == 0

    def test_invalid_field_offset(self):
        bank = TriggerBank(self.schema())
        with pytest.raises(TableError):
            bank.write_cell(1, 6, 0)

    def test_remove_ldom_clears_all_slots(self):
        bank = TriggerBank(self.schema())
        arm(bank, 1, "miss_rate", TriggerOp.GT, 10, slot=0)
        arm(bank, 1, "capacity", TriggerOp.LT, 5, slot=1)
        arm(bank, 2, "miss_rate", TriggerOp.GT, 10)
        bank.remove_ldom(1)
        assert [(d, s) for d, s, _ in bank.rules()] == [(2, 0)]
        assert bank.read_cell(1, bank.offset_of("enabled", slot=1)) == 0
