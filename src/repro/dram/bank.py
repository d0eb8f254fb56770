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


class BankState:
    """One bank's row-buffer and timing state.

    ``timing_ps`` is the controller's :class:`~repro.dram.timing.DramTiming`
    at its cycle time: ``(row hit latency, row closed latency, row
    conflict latency, burst, tRAS)``, in picoseconds. The controller
    works it out once and hands the same tuple to every bank, so
    :meth:`issue` does no unit conversion.
    """

    def __init__(
        self,
        index: int,
        timing_ps: tuple[int, int, int, int, int],
        hp_row_buffer: bool = False,
    ):
        self.index = index
        self.hp_row_buffer = hp_row_buffer
        (
            self.hit_ps, self.closed_ps, self.conflict_ps,
            self.burst_ps, self.tras_ps,
        ) = timing_ps
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

    def issue(
        self,
        row: int,
        issue_ps: int,
        bus_free_ps: int,
        high_priority: bool,
    ) -> int:
        """Issue an access to ``row`` at ``issue_ps`` and update the row
        buffers; returns when its burst leaves the data bus.

        The access takes the row hit, closed or conflict latency (issue to
        last data). A high-priority access that misses while a regular
        row is open can activate into the extra row buffer without
        precharging the regular row first (when the buffer is present),
        turning a conflict into a closed-bank access. The burst waits for
        the shared data bus (free from ``bus_free_ps``); row preparation
        overlaps with other banks' transfers. :attr:`ready_at_ps` becomes
        the access's completion: the end of its burst, extended on a
        conflict until the old row has been active for tRAS.
        """
        # row_state(), inlined: this runs once per issued request.
        hit = row == self.open_row or (self.hp_row_buffer and row == self.hp_open_row)
        if hit:
            latency_ps = self.hit_ps
        elif self.open_row is None or (high_priority and self.hp_row_buffer):
            latency_ps = self.closed_ps
        else:
            latency_ps = self.conflict_ps
        burst_ps = self.burst_ps
        data_start_ps = issue_ps + latency_ps - burst_ps
        if data_start_ps < bus_free_ps:
            data_start_ps = bus_free_ps
        data_end_ps = data_start_ps + burst_ps
        done_ps = data_end_ps
        if not hit:
            if high_priority and self.hp_row_buffer:
                self.hp_open_row = row
            else:
                if self.open_row is not None:  # a row conflict
                    # Respect tRAS: the old row must have been active long
                    # enough before we precharge it.
                    min_precharge = self.activated_at_ps + self.tras_ps
                    extension = min_precharge - issue_ps
                    if extension > 0:
                        done_ps += extension
                self.open_row = row
                self.activated_at_ps = issue_ps
        self.ready_at_ps = done_ps
        return data_end_ps
