"""Miss status holding registers.

An MSHR entry tracks one outstanding line fill, keyed by
``(line_addr, ds_id)`` -- the DS-id is part of the key because two LDoms
can legally have outstanding misses on the same LDom-physical address
(PARD Fig. 4 step 4 allocates the MSHR "for the request and the DS-id").
Secondary misses to an in-flight line merge into the existing entry
instead of issuing a duplicate memory request.

The file is plain state that the cache's ``_lookup`` and ``_on_fill``
manage inline, so a miss is one frame from lookup to downstream fill.
"""

from __future__ import annotations


class MshrEntry:
    """One outstanding fill: the way it reserved, whether any merged
    request writes the line, and the callbacks waiting on it. No
    ``__init__`` (a frame per miss): the cache sets all three slots."""

    __slots__ = ("way", "is_write", "waiters")


class MshrFile:
    """A bounded set of MSHR entries with secondary-miss merging."""

    def __init__(self, num_entries: int = 16):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.entries: dict[tuple[int, int], MshrEntry] = {}
        self.primary_misses = 0
        self.secondary_misses = 0

    @property
    def occupancy(self) -> int:
        return len(self.entries)
