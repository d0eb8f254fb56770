"""Set-associative cache model.

One :class:`Cache` class serves both the private L1s and the shared LLC;
the difference is that the LLC is constructed with an
:class:`~repro.cache.control_plane.LlcControlPlane`, whose tables it uses
in place: it reads per-DS-id way masks from the parameter rows for
victim selection, and counts per-DS-id hits, misses and occupancy into
the plane's window counts and ``capacity`` cells. The control-plane work
happens off the critical path -- the hit latency is identical with and
without a control plane attached, which is the paper's "no extra
cycles" claim for the LLC control plane (§7.2) and is asserted by a
benchmark.

DS-id semantics (PARD Fig. 4): the tag array stores an ``owner DS-id``
next to each tag, a hit requires *both* the address tag and the DS-id to
match, and an evicted dirty block's writeback is tagged with the owner
DS-id, not the requester's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cache.mshr import MshrEntry, MshrFile
from repro.cache.replacement import WayMaskedPlru, plru_tables
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

_READ = MemOp.READ
_WRITEBACK = MemOp.WRITEBACK


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    hit_latency_cycles: int = 2
    mshr_entries: int = 16
    retry_cycles: int = 4  # back-off when the MSHR file is full

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.ways * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line_size = {self.ways * self.line_size}"
            )
        sets = self.num_sets
        if sets & (sets - 1):
            raise ValueError(f"{self.name}: number of sets {sets} must be a power of two")
        if self.ways & (self.ways - 1):
            raise ValueError(f"{self.name}: ways {self.ways} must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


class _Line:
    __slots__ = ("tag", "ds_id", "valid", "dirty")

    def __init__(self) -> None:
        self.tag = 0
        self.ds_id = 0
        self.valid = False
        self.dirty = False


class _Set:
    """One set: its lines, its PLRU tree and two summaries of the lines.

    ``index`` maps ``(tag, owner DS-id)`` -- packed into the int
    ``tag << 16 | ds_id`` (DS-ids are 16-bit tags) -- to the way of every
    *valid* line, so a lookup is one dict probe instead of a scan of
    ``lines``. The cache updates it wherever a line becomes valid or
    invalid: on fill (including the overwrite of a reserved way), on
    eviction and in :meth:`Cache.flush_dsid`. A key is never valid in two
    ways at once: a fill starts only in :meth:`Cache._lookup`, an event
    of its own, so it cannot run while another fill of the same key is
    being installed.

    ``free`` has bit ``w`` set while way ``w`` is unused since the cache
    was built or last flushed (invalid with tag 0), so victim selection
    takes the lowest free way of the requester's mask without a scan.
    """

    __slots__ = ("lines", "plru", "index", "free")

    def __init__(self, ways: int):
        self.lines = [_Line() for _ in range(ways)]
        self.plru = WayMaskedPlru(ways)
        self.index: dict[int, int] = {}
        self.free = (1 << ways) - 1


def _drop_response(_packet) -> None:
    """Writebacks are posted: nothing waits for their completion."""


class Cache(Component):
    """A write-allocate, writeback, set-associative cache.

    The per-access methods read ``engine._now`` and the geometry
    precomputed here instead of going through properties, and build no
    callback object per event; see DESIGN.md "Memory-hierarchy hot
    path". A lookup one hit latency after arrival is a ``(packet,
    on_response)`` pair on the ``_lookups`` FIFO and one post of the
    cached bound ``_lookup``: the cache posts every such lookup at the
    next clock edge plus the same hit latency, so their times never
    decrease and they run in the order they were queued. Only an
    MSHR-full retry, which lands at another offset, posts a
    ``functools.partial`` carrying its request. The per-access methods
    apply PLRU touches with the shared ``keep``/``point`` tables
    (``plru_tables``) rather than :meth:`WayMaskedPlru.touch`, and a
    full-mask victim of a tree of at most 8 ways from its ``victims``
    table rather than :meth:`WayMaskedPlru.victim`: every way they touch
    comes from the set's own index, free mask or a victim pick, so it is
    in range by construction. Calls into other layers (``downstream``,
    ``engine``) stay attribute lookups on the instance; the control
    plane's tables are used in place, with no call per access.

    A miss is one frame from lookup to downstream fill; the MSHR entry
    holds the reserved way, and its bound ``fill`` is the fill's
    response callback, which retires the entry. A line-aligned,
    line-sized READ that misses is its own fill: the same packet goes
    downstream. A store, an unaligned access or a writeback that misses
    sends a fresh READ of the whole line.
    """

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        config: CacheConfig,
        downstream: Component,
        control=None,
        telemetry=None,
    ):
        super().__init__(engine, config.name, clock)
        self.config = config
        self.downstream = downstream
        self.control = control
        self.telemetry = telemetry
        self._line_size = config.line_size
        # Set index and tag are a mask and a shift: num_sets is a power of two.
        self._set_mask = config.num_sets - 1
        self._tag_shift = config.num_sets.bit_length() - 1
        self._full_mask = (1 << config.ways) - 1
        self._period_ps = clock.period_ps
        self._hit_latency_ps = config.hit_latency_cycles * clock.period_ps
        self._plru_keep, self._plru_point, _leaves, self._plru_victims = plru_tables(
            config.ways
        )
        self._sets: dict[int, _Set] = {}
        self.mshrs = MshrFile(config.mshr_entries)
        # Requests waiting out their hit latency, in arrival order, and the
        # one callback each of their lookups posts.
        self._lookups: deque[tuple[MemoryPacket, ResponseCallback]] = deque()
        self._queued_lookup = self._lookup
        # Component-wide hit and miss counters (per DS-id, they are the
        # control plane's window counts below).
        self.total_hits = 0
        self.total_misses = 0
        # The control plane's tables, used in place (None without one):
        # way masks, the open window's hit and miss counts, and the
        # live ``capacity`` cells.
        self._waymask_rows = self._capacity_rows = None
        self._window_hits = self._window_misses = None
        # A downstream with a synchronous fast path (the LLC below an L1)
        # takes fills through access(); any other through handle_request.
        # (A type test, where hasattr would add a call per cache built.)
        self._sync_downstream = type(downstream) is Cache
        if self.telemetry is not None:
            # Callback gauges over the plain counters: zero hot-path cost,
            # read only at snapshot time.
            reg = self.telemetry.registry
            reg.gauge_fn(f"cache.{self.name}.hits", lambda: self.total_hits)
            reg.gauge_fn(f"cache.{self.name}.misses", lambda: self.total_misses)
            reg.gauge_fn(f"cache.{self.name}.miss_rate", lambda: self.miss_rate)
        if control is not None:
            control.bind_cache(self)
            self._waymask_rows = control.parameters.row_view
            self._capacity_rows = control.statistics.row_view
            self._window_hits = control.window_hits
            self._window_misses = control.window_misses

    # -- request path -----------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        """Accept a tagged cache access; respond after the modeled latency."""
        self._lookups.append((packet, on_response))
        self.clock.post_cycles(self.config.hit_latency_cycles, self._queued_lookup)

    def access(self, packet: MemoryPacket, on_response: ResponseCallback) -> Optional[int]:
        """Fast-path entry: a hit completes synchronously.

        Returns the hit latency in picoseconds when the line is resident
        (``on_response`` is then *not* called); a miss takes the normal
        event-driven path and returns None. Keeping hits off the event
        queue is purely a simulator optimization -- the modeled latency is
        identical to :meth:`handle_request`.
        """
        block = packet.addr // self._line_size
        set_index = block & self._set_mask
        sets = self._sets
        if set_index in sets:
            cache_set = sets[set_index]
        else:
            cache_set = sets[set_index] = _Set(self.config.ways)
        key = (block >> self._tag_shift) << 16 | packet.ds_id
        if key not in cache_set.index:
            # handle_request and ClockDomain.post_cycles, inlined: look up
            # one hit latency after the next clock edge.
            self._lookups.append((packet, on_response))
            now = self.engine._now
            self.engine.post_at(
                now + -now % self._period_ps + self._hit_latency_ps,
                self._queued_lookup,
            )
            return None
        way = cache_set.index[key]
        plru = cache_set.plru
        plru.state = plru.state & self._plru_keep[way] | self._plru_point[way]
        if packet.op is not _READ:
            cache_set.lines[way].dirty = True
        self.total_hits += 1
        window = self._window_hits
        if window is not None:
            ds_id = packet.ds_id
            if ds_id in window:
                window[ds_id] += 1
            else:
                window[ds_id] = 1
        latency_ps = self._hit_latency_ps
        if packet.span is not None:
            packet.span.hop(f"{self.name}.hit", self.engine._now + latency_ps)
        return latency_ps

    def _lookup(
        self,
        packet: Optional[MemoryPacket] = None,
        on_response: Optional[ResponseCallback] = None,
    ) -> None:
        """The event-driven access, one hit latency after it arrived: the
        oldest request on the ``_lookups`` FIFO, or the request an
        MSHR-full retry carries."""
        if packet is None:
            packet, on_response = self._lookups.popleft()
        block = packet.addr // self._line_size
        set_index = block & self._set_mask
        tag = block >> self._tag_shift
        sets = self._sets
        if set_index in sets:
            cache_set = sets[set_index]
        else:
            cache_set = sets[set_index] = _Set(self.config.ways)
        ds_id = packet.ds_id
        key = tag << 16 | ds_id
        if key in cache_set.index:
            way = cache_set.index[key]
            plru = cache_set.plru
            plru.state = plru.state & self._plru_keep[way] | self._plru_point[way]
            if packet.op is not _READ:
                cache_set.lines[way].dirty = True
            self.total_hits += 1
            window = self._window_hits
            if window is not None:
                if ds_id in window:
                    window[ds_id] += 1
                else:
                    window[ds_id] = 1
            if packet.span is not None:
                packet.span.hop(f"{self.name}.hit", self.engine._now)
            on_response(packet)
            return
        self.total_misses += 1
        window = self._window_misses
        if window is not None:
            if ds_id in window:
                window[ds_id] += 1
            else:
                window[ds_id] = 1
        now = self.engine._now
        if packet.span is not None:
            packet.span.hop(f"{self.name}.miss", now)
        line_addr = block * self._line_size
        mshr_key = (line_addr, ds_id)
        mshrs = self.mshrs
        entries = mshrs.entries
        if mshr_key in entries:
            # A secondary miss: merge into the in-flight fill.
            entry = entries[mshr_key]
            mshrs.secondary_misses += 1
            if packet.op is not _READ:
                entry.is_write = True
            entry.waiters.append((on_response, packet))
            return
        if len(entries) >= mshrs.num_entries:
            # Structural stall: retry the lookup after a short back-off.
            # Nothing was reserved, so the retry starts from scratch.
            self.clock.post_cycles(
                self.config.retry_cycles, partial(self._lookup, packet, on_response)
            )
            return
        entry = MshrEntry()
        entry.cache = self
        entry.key = mshr_key
        entry.set_index = set_index
        entry.tag = tag
        entry.is_write = packet.op is not _READ
        entry.waiters = [(on_response, packet)]
        entries[mshr_key] = entry
        mshrs.primary_misses += 1
        # The victim under the requester's way mask: its lowest free way,
        # else the PLRU victim. Reserving it (tag -1, and in the entry)
        # makes concurrent misses to the set pick different ways.
        mask = self._full_mask
        rows = self._waymask_rows
        # Untracked DS-ids share all ways.
        if rows is not None and ds_id in rows:
            mask &= rows[ds_id]["waymask"]
        free = cache_set.free & mask
        if free:
            way = (free & -free).bit_length() - 1  # the lowest free way
        elif mask == self._full_mask and self._plru_victims is not None:
            # victim() under the full mask, as one table lookup (the L1s).
            way = self._plru_victims[cache_set.plru.state]
        else:
            way = cache_set.plru.victim(mask)
        cache_set.free &= ~(1 << way)
        victim = cache_set.lines[way]
        if victim.valid:
            # _evict, inlined.
            owner = victim.ds_id
            del cache_set.index[victim.tag << 16 | owner]
            rows = self._capacity_rows
            if rows is not None and owner in rows:
                row = rows[owner]
                if row["capacity"] > 0:
                    row["capacity"] -= self._line_size
            if victim.dirty:
                self._write_back(set_index, victim)
            victim.valid = False
        victim.tag = -1
        plru = cache_set.plru
        plru.state = plru.state & self._plru_keep[way] | self._plru_point[way]
        entry.way = way
        if packet.op is _READ and packet.addr == line_addr and packet.size == self._line_size:
            # The request reads exactly the line: it is its own fill.
            fill = packet
        else:
            # The fill inherits the missing request's span, so the
            # trail continues downstream (LLC, DRAM).
            fill = MemoryPacket(
                ds_id, line_addr, now, _READ, self._line_size, packet.span
            )
        fill_done = entry.fill
        if self._sync_downstream:
            sync_latency = self.downstream.access(fill, fill_done)
            if sync_latency is not None:
                self.engine.post(sync_latency, fill_done)
        else:
            self.downstream.handle_request(fill, fill_done)

    def _write_back(self, set_index: int, victim: _Line) -> None:
        # Posted straight downstream, tagged with the owner DS-id; the
        # memory controller queue is the real contention point.
        line_addr = (victim.tag << self._tag_shift | set_index) * self._line_size
        packet = MemoryPacket(
            victim.ds_id, line_addr, self.engine._now, _WRITEBACK,
            self._line_size,
        )
        self.downstream.handle_request(packet, _drop_response)

    def _evict(self, cache_set: _Set, set_index: int, line: _Line) -> None:
        """Drop a valid line from the set's index, take it off its owner's
        ``capacity`` and write it back if dirty. The caller invalidates
        or overwrites the line itself."""
        owner = line.ds_id
        del cache_set.index[line.tag << 16 | owner]
        rows = self._capacity_rows
        if rows is not None and owner in rows:
            row = rows[owner]
            if row["capacity"] > 0:
                row["capacity"] -= self._line_size
        if line.dirty:
            self._write_back(set_index, line)

    # -- management operations ---------------------------------------------

    def flush_dsid(self, ds_id: int) -> int:
        """Invalidate every block owned by ``ds_id``, writing back dirty
        ones. Returns the number of blocks flushed.

        The firmware runs this when an LDom is destroyed so that its
        DRAM window can be recycled without leaking data into (or
        serving stale data to) a later tenant.
        """
        flushed = 0
        for set_index, cache_set in self._sets.items():
            for way, line in enumerate(cache_set.lines):
                if line.valid and line.ds_id == ds_id:
                    self._evict(cache_set, set_index, line)
                    cache_set.free |= 1 << way
                    line.valid = False
                    line.tag = 0
                    line.dirty = False
                    flushed += 1
        return flushed

    # -- introspection ---------------------------------------------------------

    def occupancy_blocks(self, ds_id: int) -> int:
        """Blocks currently owned by ``ds_id`` (counted from the tag array,
        like the paper's per-DS-id capacity statistic)."""
        count = 0
        for cache_set in self._sets.values():
            for line in cache_set.lines:
                if line.valid and line.ds_id == ds_id:
                    count += 1
        return count

    @property
    def miss_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_misses / total if total else 0.0
