"""DRAM bank state.

Each bank tracks its open row and the earliest time it can accept a new
command. PARD §4.2 adds one *extra row buffer per DRAM chip for
high-priority requests*, so that low-priority traffic cannot destroy the
row locality of high-priority traffic; we model that as a second open-row
slot per bank that only high-priority requests allocate into (both slots
are checked for hits by every request).
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import DramTiming


class BankState:
    """One bank's row-buffer and timing state."""

    def __init__(self, index: int, hp_row_buffer: bool = False):
        self.index = index
        self.hp_row_buffer = hp_row_buffer
        self.open_row: Optional[int] = None
        self.hp_open_row: Optional[int] = None
        self.ready_at_ps = 0      # earliest time a new access may issue
        self.activated_at_ps = 0  # when the regular row was opened (for tRAS)

    def row_state(self, row: int) -> str:
        """'hit', 'closed', or 'conflict' for an access to ``row``."""
        if row == self.open_row:
            return "hit"
        if self.hp_row_buffer and row == self.hp_open_row:
            return "hit"
        if self.open_row is None:
            return "closed"
        return "conflict"

    def access_latency_cycles(self, row: int, timing: DramTiming, high_priority: bool) -> int:
        """Issue-to-last-data latency in memory cycles for this access.

        A high-priority access that misses while a regular row is open
        can activate into the extra row buffer without precharging the
        regular row first (when the buffer is present), turning a
        conflict into a closed-bank access.
        """
        # row_state(), inlined: this runs once per issued request.
        if row == self.open_row or (self.hp_row_buffer and row == self.hp_open_row):
            return timing.row_hit_latency
        if self.open_row is None or (high_priority and self.hp_row_buffer):
            return timing.row_closed_latency
        return timing.row_conflict_latency

    def record_access(
        self,
        row: int,
        issue_ps: int,
        done_ps: int,
        timing: DramTiming,
        cycle_ps: int,
        high_priority: bool,
    ) -> int:
        """Update row-buffer/timing state after scheduling an access.

        Returns the (possibly tRAS-extended) completion time.
        """
        if not (row == self.open_row or (self.hp_row_buffer and row == self.hp_open_row)):
            if high_priority and self.hp_row_buffer:
                self.hp_open_row = row
            else:
                if self.open_row is not None:  # a row conflict
                    # Respect tRAS: the old row must have been active long
                    # enough before we precharge it.
                    min_precharge = self.activated_at_ps + timing.t_ras * cycle_ps
                    extension = min_precharge - issue_ps
                    if extension > 0:
                        done_ps += extension
                self.open_row = row
                self.activated_at_ps = issue_ps
        self.ready_at_ps = done_ps
        return done_ps

    def close(self) -> None:
        """Precharge both row buffers (refresh or idle policy)."""
        self.open_row = None
        self.hp_open_row = None
