"""The base programmable control plane.

A :class:`ControlPlane` bundles the three DS-id indexed tables, the CPA
register file, the interrupt line to the PRM, and a periodic statistics
window. Component-specific control planes (LLC, memory controller, I/O
bridge, IDE) subclass it, declare their table schemas, and override the
window hook to publish derived statistics (miss rates, bandwidth,
average queueing latency) into the statistics table.

Everything management-side -- the PRM firmware, ``pardtrigger``, trigger
handler scripts -- reaches these tables *only* through the register file,
mirroring the hardware's narrow programming interface.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.programming import (
    CMD_READ,
    CpaRegisterFile,
    ProtocolError,
    TABLE_PARAMETER,
    TABLE_STATISTICS,
    TABLE_TRIGGER,
)
from repro.core.tables import DsidTable, TableError, TableSchema, make_table
from repro.core.triggers import TriggerOp, TriggerRule
from repro.sim.engine import Engine, PS_PER_MS

# Interrupt callbacks receive (control_plane, ds_id, rule).
InterruptCallback = Callable[["ControlPlane", int, TriggerRule], None]

# Register-protocol layout of one trigger slot: offset = slot * SLOT_STRIDE
# + field index. ``fire_count`` is read-only from the protocol.
TRIGGER_FIELDS = ("stat_col", "op", "threshold", "action_id", "enabled", "fire_count")
TRIGGER_SLOT_STRIDE = 8


class TriggerBank:
    """Bounded storage for trigger rules, addressable per (DS-id, slot)."""

    def __init__(self, stats_schema: TableSchema, max_triggers: int = 64):
        if max_triggers <= 0:
            raise ValueError("max_triggers must be positive")
        self.stats_schema = stats_schema
        self.max_triggers = max_triggers
        self._slots: dict[tuple[int, int], dict[str, int]] = {}
        self._rules: dict[tuple[int, int], TriggerRule] = {}

    @property
    def armed_count(self) -> int:
        return len(self._rules)

    def install(
        self,
        ds_id: int,
        stat_column: str,
        op: TriggerOp,
        threshold: int,
        action_id: int = 0,
        slot: Optional[int] = None,
    ) -> int:
        """Install and enable a rule; returns the slot index used."""
        if slot is None:
            slot = 0
            while (ds_id, slot) in self._rules:
                slot += 1
        stat_col = self.stats_schema.offset_of(stat_column)
        for field, value in (
            ("stat_col", stat_col),
            ("op", int(op)),
            ("threshold", int(threshold)),
            ("action_id", int(action_id)),
            ("enabled", 1),
        ):
            self.write_field(ds_id, slot, field, value)
        return slot

    def remove(self, ds_id: int, slot: int) -> None:
        self._slots.pop((ds_id, slot), None)
        self._rules.pop((ds_id, slot), None)

    def remove_ldom(self, ds_id: int) -> None:
        for key in [k for k in self._slots if k[0] == ds_id]:
            del self._slots[key]
        for key in [k for k in self._rules if k[0] == ds_id]:
            del self._rules[key]

    def rules(self) -> list[tuple[int, int, TriggerRule]]:
        """All armed rules as ``(ds_id, slot, rule)``, in stable order."""
        return [(d, s, self._rules[(d, s)]) for d, s in sorted(self._rules)]

    def rule_at(self, ds_id: int, slot: int) -> Optional[TriggerRule]:
        return self._rules.get((ds_id, slot))

    # -- register-protocol cell access ------------------------------------

    def write_field(self, ds_id: int, slot: int, field: str, value: int) -> None:
        raw = self._slots.setdefault((ds_id, slot), {})
        if field == "fire_count":
            raise TableError("trigger fire_count is read-only")
        raw[field] = int(value)
        if field == "enabled":
            if value:
                self._materialize(ds_id, slot, raw)
            else:
                self._rules.pop((ds_id, slot), None)
        elif (ds_id, slot) in self._rules:
            # Live update of an armed rule.
            self._materialize(ds_id, slot, raw)

    def write_cell(self, ds_id: int, offset: int, value: int) -> None:
        slot, field_index = divmod(offset, TRIGGER_SLOT_STRIDE)
        if field_index >= len(TRIGGER_FIELDS):
            raise TableError(f"invalid trigger field offset {offset}")
        self.write_field(ds_id, slot, TRIGGER_FIELDS[field_index], value)

    def read_cell(self, ds_id: int, offset: int) -> int:
        slot, field_index = divmod(offset, TRIGGER_SLOT_STRIDE)
        if field_index >= len(TRIGGER_FIELDS):
            raise TableError(f"invalid trigger field offset {offset}")
        field = TRIGGER_FIELDS[field_index]
        rule = self._rules.get((ds_id, slot))
        if field == "fire_count":
            return rule.fire_count if rule else 0
        if field == "enabled":
            return 1 if rule else 0
        raw = self._slots.get((ds_id, slot))
        if raw is None:
            raise TableError(f"trigger slot {slot} for DS-id {ds_id} is empty")
        return raw.get(field, 0)

    def _materialize(self, ds_id: int, slot: int, raw: dict[str, int]) -> None:
        if len(self._rules) >= self.max_triggers and (ds_id, slot) not in self._rules:
            raise TableError(
                f"trigger table full ({self.max_triggers} entries), "
                f"cannot arm slot {slot} for DS-id {ds_id}"
            )
        previous = self._rules.get((ds_id, slot))
        rule = TriggerRule(
            ds_id=ds_id,
            stat_column=self.stats_schema.column_at(raw.get("stat_col", 0)),
            op=TriggerOp(raw.get("op", 0)),
            threshold=raw.get("threshold", 0),
            action_id=raw.get("action_id", 0),
        )
        if previous is not None:
            rule.fire_count = previous.fire_count
        self._rules[(ds_id, slot)] = rule


class ControlPlane:
    """Base class for all component control planes.

    Subclasses define:

    - ``IDENT`` / ``TYPE_CODE`` -- identification (e.g. ``CACHE_CP`` / 'C')
    - ``PARAMETER_COLUMNS`` / ``STATISTICS_COLUMNS`` -- table schemas
    - :meth:`on_window` -- publish derived per-window statistics
    - :meth:`on_parameter_write` -- react to firmware policy changes
    """

    IDENT = "BASE_CP"
    TYPE_CODE = "?"
    PARAMETER_COLUMNS: Sequence[tuple[str, int]] = (("reserved", 0),)
    STATISTICS_COLUMNS: Sequence[tuple[str, int]] = (("reserved", 0),)

    def __init__(
        self,
        engine: Engine,
        name: str,
        max_entries: int = 256,
        max_triggers: int = 64,
        window_ps: int = PS_PER_MS,
    ):
        self.engine = engine
        self.name = name
        self.window_ps = int(window_ps)
        self.parameters = make_table(f"{name}.parameters", list(self.PARAMETER_COLUMNS), max_entries)
        self.statistics = make_table(f"{name}.statistics", list(self.STATISTICS_COLUMNS), max_entries)
        self.triggers = TriggerBank(self.statistics.schema, max_triggers)
        self.register_file = CpaRegisterFile(
            self.IDENT, self.TYPE_CODE, self._table_read, self._table_write
        )
        self._interrupt_callback: Optional[InterruptCallback] = None
        self._windows_started = False
        self.interrupts_raised = 0

    # -- PRM attachment ----------------------------------------------------

    def attach_interrupt(self, callback: InterruptCallback) -> None:
        """Connect the interrupt line (called by the PRM when wiring CPAs)."""
        self._interrupt_callback = callback

    # -- LDom lifecycle ------------------------------------------------------

    def allocate_ldom(self, ds_id: int, **parameter_overrides: int) -> None:
        """Allocate parameter and statistics rows for a new DS-id."""
        self.parameters.allocate(ds_id, **parameter_overrides)
        self.statistics.allocate(ds_id)

    def free_ldom(self, ds_id: int) -> None:
        self.parameters.free(ds_id)
        self.statistics.free(ds_id)
        self.triggers.remove_ldom(ds_id)

    @property
    def ds_ids(self) -> list[int]:
        return self.parameters.ds_ids

    # -- statistics windows --------------------------------------------------

    def start_windows(self) -> None:
        """Begin periodic statistics publication and trigger evaluation."""
        if self._windows_started:
            return
        self._windows_started = True
        self.engine.post(self.window_ps, self._window_tick)

    def _window_tick(self) -> None:
        self.roll_window()
        self.engine.post(self.window_ps, self._window_tick)

    def roll_window(self) -> list[tuple[int, TriggerRule]]:
        """Publish derived statistics, then evaluate armed triggers."""
        self.on_window()
        fired = []
        for ds_id, _slot, rule in self.triggers.rules():
            observed = self.statistics.get_default(ds_id, rule.stat_column, 0)
            if rule.evaluate(observed):
                fired.append((ds_id, rule))
                self._raise_interrupt(ds_id, rule, observed)
        return fired

    def _raise_interrupt(self, ds_id: int, rule: TriggerRule, observed: int) -> None:
        self.interrupts_raised += 1
        if self._interrupt_callback is not None:
            self._interrupt_callback(self, ds_id, rule)

    # -- subclass hooks --------------------------------------------------------

    def on_window(self) -> None:
        """Publish derived statistics for the closing window (subclass hook)."""

    def on_parameter_write(self, ds_id: int, column: str, value: int) -> None:
        """React to a firmware parameter write (subclass hook)."""

    # -- register-file plumbing --------------------------------------------------

    def _table_read(self, table: int, ds_id: int, offset: int) -> int:
        if table == TABLE_PARAMETER:
            return self.parameters.read_cell(ds_id, offset)
        if table == TABLE_STATISTICS:
            return self.statistics.read_cell(ds_id, offset)
        if table == TABLE_TRIGGER:
            return self.triggers.read_cell(ds_id, offset)
        raise ProtocolError(f"invalid table selector {table}")

    def _table_write(self, table: int, ds_id: int, offset: int, value: int) -> None:
        if table == TABLE_PARAMETER:
            column = self.parameters.schema.column_at(offset)
            self.parameters.write_cell(ds_id, offset, value)
            self.on_parameter_write(ds_id, column, value)
        elif table == TABLE_STATISTICS:
            # Statistics are hardware-maintained; firmware writes clear them.
            self.statistics.write_cell(ds_id, offset, value)
        elif table == TABLE_TRIGGER:
            self.triggers.write_cell(ds_id, offset, value)
        else:
            raise ProtocolError(f"invalid table selector {table}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ldoms={self.ds_ids}>"
