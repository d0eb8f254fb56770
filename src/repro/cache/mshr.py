"""Miss status holding registers.

An MSHR entry tracks one outstanding line fill, keyed by the int
``block << 16 | ds_id`` (``block`` is the line address over the line
size) -- the DS-id is part of the key because two LDoms can legally
have outstanding misses on the same LDom-physical address (PARD Fig. 4
step 4 allocates the MSHR "for the request and the DS-id"). Secondary
misses to an in-flight line merge into the existing entry instead of
issuing a duplicate memory request.

The file is plain state: the cache's ``_lookup`` allocates and merges
entries inline, so a miss is one frame from lookup to downstream fill,
and each entry retires itself when its fill returns (:meth:`MshrEntry.fill`).
"""

from __future__ import annotations

# A way's key in ``Cache``'s ``_Set.keys`` when it holds no valid line.
WAY_RESERVED = -1  # reserved by an in-flight fill
WAY_FREE = -2  # unused since the set was built or last flushed


class MshrEntry:
    """One outstanding fill, and the callback that completes it.

    ``cache._lookup`` sets every slot when it allocates the entry (no
    ``__init__``: that would be a frame per miss): the owning ``cache``,
    the file ``key``, the line's ``cache_set`` and ``line_key`` there,
    the ``way`` it reserved, whether any merged request writes the line
    (``is_write``), and the ``waiters``, one ``(on_response, packet)``
    pair per request that missed on the line. The bound :meth:`fill` is
    the fill request's response callback, so none is built per miss.
    """

    __slots__ = ("cache", "key", "cache_set", "line_key", "way", "is_write", "waiters")

    def fill(self, _response=None) -> None:
        """Retire this entry and wake its waiters, then install the line
        in the reserved way. A waiter that touches the line again misses
        in ``Cache.access`` and looks it up one hit latency later.
        """
        cache = self.cache
        entries = cache.mshrs.entries
        key = self.key
        if key not in entries or entries[key] is not self:
            # Unreachable: a fill request is sent once per entry, and the
            # entry leaves the file only here.
            raise RuntimeError(
                f"{cache.name}: fill of line {(key >> 16) * cache._line_size:#x} "
                f"for DS-id {key & 0xFFFF} has no reserved way"
            )
        del entries[key]
        for on_response, packet in self.waiters:
            on_response(packet)
        ds_id = key & 0xFFFF
        way = self.way
        bit = 1 << way
        cache_set = self.cache_set
        keys = cache_set.keys
        if ds_id in cache._retired:
            # The DS-id's LDom was destroyed while the fill was in
            # flight: install nothing, and free the way if still reserved.
            if keys[way] == WAY_RESERVED:
                keys[way] = WAY_FREE
                cache_set.free |= bit
            return
        if keys[way] >= 0:
            # A concurrent fill landed in our reserved way (possible when a
            # narrow way mask forces PLRU onto a reserved slot); evict it.
            cache._evict(cache_set, key >> 16 & cache._set_mask, way)
        line_key = self.line_key
        keys[way] = line_key
        if self.is_write:
            cache_set.dirty |= bit
        cache_set.index[line_key] = way
        # A flush_dsid while the fill was in flight may have marked the
        # reserved way free again.
        cache_set.free &= ~bit
        cache_set.plru = cache_set.plru & cache._plru_keep[way] | cache._plru_point[way]
        rows = cache._capacity_rows
        if rows is not None and ds_id in rows:
            rows[ds_id]["capacity"] += cache._line_size


class MshrFile:
    """A bounded set of MSHR entries with secondary-miss merging."""

    def __init__(self, num_entries: int = 16):
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.entries: dict[int, MshrEntry] = {}
        self.primary_misses = 0
        self.secondary_misses = 0

    @property
    def occupancy(self) -> int:
        return len(self.entries)
