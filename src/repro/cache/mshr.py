"""Miss status holding registers.

An MSHR entry tracks one outstanding line fill, keyed by
``(line_addr, ds_id)`` -- the DS-id is part of the key because two LDoms
can legally have outstanding misses on the same LDom-physical address
(PARD Fig. 4 step 4 allocates the MSHR "for the request and the DS-id").
Secondary misses to an in-flight line merge into the existing entry
instead of issuing a duplicate memory request.
"""

from __future__ import annotations

from typing import Callable, Optional


class MshrFullError(RuntimeError):
    """All MSHRs are busy; the cache must stall the request."""


class MshrEntry:
    """One outstanding fill and the callbacks waiting on it."""

    __slots__ = ("line_addr", "ds_id", "issued_at_ps", "is_write", "waiters")

    def __init__(
        self,
        line_addr: int,
        ds_id: int,
        issued_at_ps: int,
        is_write: bool = False,
        waiters: Optional[list[Callable[[], None]]] = None,
    ):
        self.line_addr = line_addr
        self.ds_id = ds_id
        self.issued_at_ps = issued_at_ps
        self.is_write = is_write
        self.waiters = [] if waiters is None else waiters

    @property
    def key(self) -> tuple[int, int]:
        return (self.line_addr, self.ds_id)


class MshrFile:
    """A bounded set of MSHR entries with secondary-miss merging."""

    def __init__(self, num_entries: int = 16):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self._entries: dict[tuple[int, int], MshrEntry] = {}
        self.primary_misses = 0
        self.secondary_misses = 0

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def lookup(self, line_addr: int, ds_id: int) -> Optional[MshrEntry]:
        return self._entries.get((line_addr, ds_id))

    def allocate(
        self,
        line_addr: int,
        ds_id: int,
        now_ps: int,
        is_write: bool = False,
        on_fill: Optional[Callable[[], None]] = None,
    ) -> tuple[MshrEntry, bool]:
        """Allocate or merge; returns ``(entry, is_primary)``.

        ``is_primary`` is True when this call created the entry (and the
        caller must issue the downstream fill request).
        """
        key = (line_addr, ds_id)
        entries = self._entries
        if key in entries:
            entry = entries[key]
            self.secondary_misses += 1
            entry.is_write = entry.is_write or is_write
            if on_fill is not None:
                entry.waiters.append(on_fill)
            return entry, False
        if len(entries) >= self.num_entries:
            raise MshrFullError(
                f"all {self.num_entries} MSHRs busy at line {line_addr:#x}"
            )
        entry = MshrEntry(
            line_addr, ds_id, now_ps, is_write, [] if on_fill is None else [on_fill]
        )
        entries[key] = entry
        self.primary_misses += 1
        return entry, True

    def complete(self, line_addr: int, ds_id: int) -> MshrEntry:
        """Retire the entry on fill; returns it so waiters can be notified."""
        try:
            entry = self._entries.pop((line_addr, ds_id))
        except KeyError:
            raise KeyError(f"no MSHR for line {line_addr:#x} ds_id {ds_id}")
        for waiter in entry.waiters:
            waiter()
        return entry
