"""Trigger rules.

A trigger row (PARD Fig. 2, "Trigger Table") names a statistics-table
column, a comparison operator and a threshold for one DS-id. When the
control plane rolls its statistics window it evaluates every enabled
trigger; a transition from false to true raises an interrupt toward the
PRM, where the firmware runs the bound action script.

Triggers are edge-armed: after firing, a trigger does not fire again until
its condition has been observed false (otherwise a standing condition
would raise an interrupt storm while the firmware is still reacting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class TriggerOp(IntEnum):
    """Comparison operators, encoded as the integers stored in the table."""

    GT = 0
    LT = 1
    GE = 2
    LE = 3
    EQ = 4
    NE = 5

    def apply(self, observed: int, threshold: int) -> bool:
        if self is TriggerOp.GT:
            return observed > threshold
        if self is TriggerOp.LT:
            return observed < threshold
        if self is TriggerOp.GE:
            return observed >= threshold
        if self is TriggerOp.LE:
            return observed <= threshold
        if self is TriggerOp.EQ:
            return observed == threshold
        return observed != threshold

    @classmethod
    def from_symbol(cls, symbol: str) -> "TriggerOp":
        """Parse the symbols accepted by ``pardtrigger -cond=<op>,<val>``."""
        table = {
            "gt": cls.GT, ">": cls.GT,
            "lt": cls.LT, "<": cls.LT,
            "ge": cls.GE, ">=": cls.GE,
            "le": cls.LE, "<=": cls.LE,
            "eq": cls.EQ, "==": cls.EQ,
            "ne": cls.NE, "!=": cls.NE,
        }
        try:
            return table[symbol.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown trigger operator {symbol!r}")

    @property
    def symbol(self) -> str:
        return {
            TriggerOp.GT: ">", TriggerOp.LT: "<", TriggerOp.GE: ">=",
            TriggerOp.LE: "<=", TriggerOp.EQ: "==", TriggerOp.NE: "!=",
        }[self]


@dataclass
class TriggerRule:
    """One trigger slot: ``stats[ds_id][stat_column] <op> threshold``.

    ``action_id`` identifies the handler slot in the firmware's device
    file tree (``.../triggers/<action_id>``); the control plane only knows
    the number, the binding to a script lives in the firmware.
    """

    ds_id: int
    stat_column: str
    op: TriggerOp
    threshold: int
    action_id: int = 0
    enabled: bool = True
    fire_count: int = field(default=0)
    armed: bool = field(default=True, repr=False)

    def evaluate(self, observed: int) -> bool:
        """Evaluate against a fresh statistics value.

        Returns True exactly when the trigger *fires* (condition true and
        the trigger was armed). Re-arms when the condition is false.
        """
        if not self.enabled:
            return False
        condition = self.op.apply(observed, self.threshold)
        if not condition:
            self.armed = True
            return False
        if not self.armed:
            return False
        self.armed = False
        self.fire_count += 1
        return True

    def describe(self) -> str:
        return (
            f"dsid={self.ds_id} {self.stat_column} {self.op.symbol} "
            f"{self.threshold} => action {self.action_id}"
        )
