"""The base programmable control plane.

A :class:`ControlPlane` bundles the three DS-id indexed tables, the CPA
register file, the interrupt line to the PRM, and a periodic statistics
window. Component-specific control planes (LLC, memory controller, I/O
bridge, IDE) subclass it, declare their table schemas, and override the
window hook to publish derived statistics (miss rates, bandwidth,
average queueing latency) into the statistics table.

The parameter and statistics tables are :class:`DsidTable` rows; the
trigger table is a :class:`TriggerBank` holding one :class:`TriggerRule`
per (DS-id, slot), which also owns the slot's register layout.
Everything management-side -- the PRM firmware, ``pardtrigger``, trigger
handler scripts -- reaches these tables *only* through the register file,
mirroring the hardware's narrow programming interface.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.programming import (
    CpaRegisterFile,
    ProtocolError,
    TABLE_PARAMETER,
    TABLE_STATISTICS,
    TABLE_TRIGGER,
)
from repro.core.tables import DsidTable, TableError, TableSchema
from repro.core.triggers import TriggerOp, TriggerRule
from repro.sim.engine import Engine, PS_PER_MS

# Interrupt callbacks receive (control_plane, ds_id, rule).
InterruptCallback = Callable[["ControlPlane", int, TriggerRule], None]


class TriggerBank:
    """The trigger table: one :class:`TriggerRule` per (DS-id, slot).

    The register protocol addresses a slot's fields at ``slot *
    SLOT_STRIDE + field index``. A slot's first write creates a disabled
    rule; each write sets one field and re-arms the rule, so a condition
    that stays true fires again at the next window. Writing ``enabled=0``
    restarts ``fire_count``, which is read-only. Only enabled rules are
    evaluated and count against ``max_triggers``.
    """

    FIELDS = ("stat_col", "op", "threshold", "action_id", "enabled", "fire_count")
    SLOT_STRIDE = 8

    def __init__(self, stats_schema: TableSchema, max_triggers: int = 64):
        if max_triggers <= 0:
            raise ValueError("max_triggers must be positive")
        self.stats_schema = stats_schema
        self.max_triggers = max_triggers
        self._rules: dict[tuple[int, int], TriggerRule] = {}

    def offset_of(self, field: str, slot: int = 0) -> int:
        """The register offset of ``field`` in trigger slot ``slot``."""
        return slot * self.SLOT_STRIDE + self.FIELDS.index(field)

    def remove_ldom(self, ds_id: int) -> None:
        for key in [k for k in self._rules if k[0] == ds_id]:
            del self._rules[key]

    def rules(self) -> list[tuple[int, int, TriggerRule]]:
        """All enabled rules as ``(ds_id, slot, rule)``, in stable order."""
        return [(d, s, r) for (d, s), r in sorted(self._rules.items()) if r.enabled]

    def rule_at(self, ds_id: int, slot: int) -> Optional[TriggerRule]:
        rule = self._rules.get((ds_id, slot))
        return rule if rule is not None and rule.enabled else None

    def check_room(self, ds_id: int, slot: int) -> None:
        """Raise :class:`TableError` if arming ``slot`` of ``ds_id`` would
        take the table past ``max_triggers`` (an armed slot has room)."""
        if self.rule_at(ds_id, slot) is None:
            armed = sum(r.enabled for r in self._rules.values())
            if armed >= self.max_triggers:
                raise TableError(
                    f"trigger table full ({self.max_triggers} entries), "
                    f"cannot arm slot {slot} for DS-id {ds_id}"
                )

    # -- register-protocol cell access ------------------------------------

    def write_cell(self, ds_id: int, offset: int, value: int) -> None:
        slot, field = self._locate(offset)
        if field == "fire_count":
            raise TableError("trigger fire_count is read-only")
        value = int(value)
        rule = self._rules.get((ds_id, slot))
        if rule is None:
            column = self.stats_schema.column_at(0)
            rule = TriggerRule(ds_id, column, TriggerOp.GT, 0, enabled=False)
            self._rules[(ds_id, slot)] = rule
        if field == "enabled":
            if value:
                self.check_room(ds_id, slot)
            rule.enabled = bool(value)
            if not value:
                rule.fire_count = 0
        elif field == "stat_col":
            rule.stat_column = self.stats_schema.column_at(value)
        elif field == "op":
            rule.op = TriggerOp(value)
        else:
            setattr(rule, field, value)
        rule.armed = True

    def read_cell(self, ds_id: int, offset: int) -> int:
        slot, field = self._locate(offset)
        rule = self._rules.get((ds_id, slot))
        if rule is None:
            if field in ("enabled", "fire_count"):
                return 0
            raise TableError(f"trigger slot {slot} for DS-id {ds_id} is empty")
        if field == "stat_col":
            return self.stats_schema.offset_of(rule.stat_column)
        return int(getattr(rule, field))

    def _locate(self, offset: int) -> tuple[int, str]:
        slot, index = divmod(offset, self.SLOT_STRIDE)
        if index >= len(self.FIELDS):
            raise TableError(f"invalid trigger field offset {offset}")
        return slot, self.FIELDS[index]


class ControlPlane:
    """Base class for all component control planes.

    Subclasses define:

    - ``IDENT`` / ``TYPE_CODE`` -- identification (e.g. ``CACHE_CP`` / 'C')
    - ``PARAMETER_COLUMNS`` / ``STATISTICS_COLUMNS`` -- table schemas
    - :meth:`on_window` -- publish derived per-window statistics
    - :meth:`on_parameter_write` -- validate firmware policy changes
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
        self.parameters = DsidTable(
            f"{name}.parameters", TableSchema(self.PARAMETER_COLUMNS), max_entries
        )
        self.statistics = DsidTable(
            f"{name}.statistics", TableSchema(self.STATISTICS_COLUMNS), max_entries
        )
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
        """Check a firmware parameter write before it lands (subclass hook).

        Raising rejects the write and leaves the cell as it was.
        """

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
            self.on_parameter_write(ds_id, column, value)
            self.parameters.write_cell(ds_id, offset, value)
        elif table == TABLE_STATISTICS:
            # Statistics are hardware-maintained; firmware writes clear them.
            self.statistics.write_cell(ds_id, offset, value)
        elif table == TABLE_TRIGGER:
            self.triggers.write_cell(ds_id, offset, value)
        else:
            raise ProtocolError(f"invalid table selector {table}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ldoms={self.ds_ids}>"
