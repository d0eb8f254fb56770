"""Miss status holding registers.

An MSHR entry tracks one outstanding line fill, keyed by
``(line_addr, ds_id)`` -- the DS-id is part of the key because two LDoms
can legally have outstanding misses on the same LDom-physical address
(PARD Fig. 4 step 4 allocates the MSHR "for the request and the DS-id").
Secondary misses to an in-flight line merge into the existing entry
instead of issuing a duplicate memory request.

The file is plain state: the cache's ``_lookup`` allocates and merges
entries inline, so a miss is one frame from lookup to downstream fill,
and each entry retires itself when its fill returns (:meth:`MshrEntry.fill`).
"""

from __future__ import annotations


class MshrEntry:
    """One outstanding fill, and the callback that completes it.

    ``cache._lookup`` sets every slot when it allocates the entry (no
    ``__init__``: that would be a frame per miss): the owning ``cache``,
    the file ``key`` ``(line_addr, ds_id)``, the line's ``set_index``
    and ``tag``, the ``way`` it reserved, whether any merged request
    writes the line (``is_write``), and the ``waiters``, one
    ``(on_response, packet)`` pair per request that missed on the line.
    The bound :meth:`fill` is the response callback the fill request
    carries downstream, so no callback object is built per miss.
    """

    __slots__ = ("cache", "key", "set_index", "tag", "way", "is_write", "waiters")

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
                f"{cache.name}: fill of line {key[0]:#x} for DS-id {key[1]} "
                "has no reserved way"
            )
        del entries[key]
        for on_response, packet in self.waiters:
            on_response(packet)
        way = self.way
        set_index = self.set_index
        cache_set = cache._sets[set_index]
        line = cache_set.lines[way]
        if line.valid:
            # A concurrent fill landed in our reserved way (possible when a
            # narrow way mask forces PLRU onto a reserved slot); evict it.
            cache._evict(cache_set, set_index, line)
        ds_id = key[1]
        tag = self.tag
        line.tag = tag
        line.ds_id = ds_id
        line.valid = True
        line.dirty = self.is_write
        cache_set.index[tag << 16 | ds_id] = way
        # A flush_dsid while the fill was in flight may have marked the
        # reserved way free again.
        cache_set.free &= ~(1 << way)
        plru = cache_set.plru
        plru.state = plru.state & cache._plru_keep[way] | cache._plru_point[way]
        rows = cache._capacity_rows
        if rows is not None and ds_id in rows:
            rows[ds_id]["capacity"] += cache._line_size


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
