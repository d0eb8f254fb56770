"""Set-associative cache model.

One :class:`Cache` class serves both the private L1s and the shared LLC;
the difference is that the LLC is constructed with an
:class:`~repro.cache.control_plane.LlcControlPlane`, which supplies
per-DS-id way masks for victim selection and receives per-DS-id
hit/miss/occupancy accounting. The control-plane interactions happen off
the critical path -- the hit latency is identical with and without a
control plane attached, which is the paper's "no extra cycles" claim for
the LLC control plane (§7.2) and is asserted by a benchmark.

DS-id semantics (PARD Fig. 4): the tag array stores an ``owner DS-id``
next to each tag, a hit requires *both* the address tag and the DS-id to
match, and an evicted dirty block's writeback is tagged with the owner
DS-id, not the requester's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cache.mshr import MshrFile, MshrFullError
from repro.cache.replacement import WayMaskedPlru
from repro.cache.writeback import WritebackBuffer
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    hit_latency_cycles: int = 2
    mshr_entries: int = 16
    writeback_entries: int = 8
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
    __slots__ = ("lines", "plru")

    def __init__(self, ways: int):
        self.lines = [_Line() for _ in range(ways)]
        self.plru = WayMaskedPlru(ways)


class Cache(Component):
    """A write-allocate, writeback, set-associative cache."""

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
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        self._sets: dict[int, _Set] = {}
        self._reserved_slots: dict[tuple[int, int], int] = {}
        self.mshrs = MshrFile(config.mshr_entries)
        self.writebacks = WritebackBuffer(config.writeback_entries)
        # Plain counters for caches without a control plane (the L1s).
        self.total_hits = 0
        self.total_misses = 0
        if self.telemetry is not None:
            # Callback gauges over the plain counters: zero hot-path cost,
            # read only at snapshot time.
            reg = self.telemetry.registry
            reg.gauge_fn(f"cache.{self.name}.hits", lambda: self.total_hits)
            reg.gauge_fn(f"cache.{self.name}.misses", lambda: self.total_misses)
            reg.gauge_fn(f"cache.{self.name}.miss_rate", lambda: self.miss_rate)
        if control is not None:
            control.bind_cache(self)

    # -- request path -----------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        """Accept a tagged cache access; respond after the modeled latency."""
        self.post_cycles(
            self.config.hit_latency_cycles, lambda: self._lookup(packet, on_response)
        )

    def access(self, packet: MemoryPacket, on_response: ResponseCallback) -> Optional[int]:
        """Fast-path entry: a hit completes synchronously.

        Returns the hit latency in picoseconds when the line is resident
        (``on_response`` is then *not* called); a miss takes the normal
        event-driven path and returns None. Keeping hits off the event
        queue is purely a simulator optimization -- the modeled latency is
        identical to :meth:`handle_request`.
        """
        line_addr = packet.line_addr(self.config.line_size)
        set_index, tag = self._decompose(line_addr)
        cache_set = self._set(set_index)
        way = self._find(cache_set, tag, packet.ds_id)
        if way is None:
            self.handle_request(packet, on_response)
            return None
        cache_set.plru.touch(way)
        if packet.is_write:
            cache_set.lines[way].dirty = True
        self.total_hits += 1
        if self.control is not None:
            self.control.record_access(packet.ds_id, hit=True)
        latency_ps = self.config.hit_latency_cycles * self.clock.period_ps
        if packet.span is not None:
            packet.span.hop(f"{self.name}.hit", self.now + latency_ps)
        return latency_ps

    def _lookup(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        line_addr = packet.line_addr(self.config.line_size)
        set_index, tag = self._decompose(line_addr)
        cache_set = self._set(set_index)
        way = self._find(cache_set, tag, packet.ds_id)
        if way is not None:
            self._on_hit(cache_set, way, packet, on_response)
        else:
            self._on_miss(cache_set, set_index, tag, line_addr, packet, on_response)

    def _on_hit(self, cache_set: _Set, way: int, packet: MemoryPacket, on_response) -> None:
        cache_set.plru.touch(way)
        if packet.is_write:
            cache_set.lines[way].dirty = True
        self.total_hits += 1
        if self.control is not None:
            self.control.record_access(packet.ds_id, hit=True)
        if packet.span is not None:
            packet.span.hop(f"{self.name}.hit", self.now)
        on_response(packet)

    def _on_miss(
        self, cache_set: _Set, set_index: int, tag: int, line_addr: int, packet, on_response
    ) -> None:
        self.total_misses += 1
        if self.control is not None:
            self.control.record_access(packet.ds_id, hit=False)
        if packet.span is not None:
            packet.span.hop(f"{self.name}.miss", self.now)
        try:
            _entry, is_primary = self.mshrs.allocate(
                line_addr,
                packet.ds_id,
                self.now,
                is_write=packet.is_write,
                on_fill=lambda: on_response(packet),
            )
        except MshrFullError:
            # Structural stall: retry the lookup after a short back-off.
            self.post_cycles(
                self.config.retry_cycles, lambda: self._lookup(packet, on_response)
            )
            return
        if not is_primary:
            return  # merged into an in-flight fill
        self._evict_victim(cache_set, set_index, line_addr, packet.ds_id)
        fill = MemoryPacket(
            ds_id=packet.ds_id,
            addr=line_addr,
            size=self.config.line_size,
            op=MemOp.READ,
            birth_ps=self.now,
            # The fill inherits the missing request's span, so the trail
            # continues downstream (LLC, crossbar, DRAM).
            span=packet.span,
        )
        fill_done = lambda _resp=None: self._on_fill(set_index, tag, line_addr, packet.ds_id)
        sync_latency = self.downstream.access(fill, fill_done)
        if sync_latency is not None:
            self.post(sync_latency, fill_done)

    def _evict_victim(self, cache_set: _Set, set_index: int, line_addr: int, ds_id: int) -> None:
        """Select and evict the victim for an incoming fill.

        The victim way is chosen under the requester's way mask (from the
        control plane's parameter table); the slot is reserved (tag -1) so
        concurrent misses to the same set pick different ways. The
        reservation key is the MSHR key ``(line_addr, ds_id)``, which is
        unique because only primary misses reach this point.
        """
        mask = self._waymask(ds_id)
        way = self._find_invalid(cache_set, mask)
        if way is None:
            way = cache_set.plru.victim(mask)
        victim = cache_set.lines[way]
        if victim.valid:
            if self.control is not None:
                self.control.record_eviction(victim.ds_id)
            if victim.dirty:
                self._write_back(set_index, victim)
            victim.valid = False
        # Reserve the slot for this fill.
        victim.tag = -1
        cache_set.plru.touch(way)
        self._reserved_slots[(line_addr, ds_id)] = way

    def _write_back(self, set_index: int, victim: _Line) -> None:
        line_addr = self._compose(set_index, victim.tag)
        entry = self.writebacks.push(line_addr, victim.ds_id, self.now)
        # Drain immediately; the memory controller queue is the real
        # contention point downstream.
        self.writebacks.pop()
        packet = MemoryPacket(
            ds_id=entry.owner_ds_id,
            addr=entry.line_addr,
            size=self.config.line_size,
            op=MemOp.WRITEBACK,
            owner_ds_id=entry.owner_ds_id,
            birth_ps=self.now,
        )
        self.downstream.handle_request(packet, lambda _resp: None)

    def _on_fill(self, set_index: int, tag: int, line_addr: int, ds_id: int) -> None:
        """Install the returned line and wake the MSHR waiters."""
        cache_set = self._set(set_index)
        way = self._reserved_slots.pop((line_addr, ds_id), None)
        if way is None:  # defensive: no reservation recorded; pick now
            mask = self._waymask(ds_id)
            way = self._find_invalid(cache_set, mask)
            if way is None:
                way = cache_set.plru.victim(mask)
        entry = self.mshrs.complete(line_addr, ds_id)
        line = cache_set.lines[way]
        if line.valid:
            # A concurrent fill landed in our reserved way (possible when a
            # narrow way mask forces PLRU onto a reserved slot); evict it.
            if self.control is not None:
                self.control.record_eviction(line.ds_id)
            if line.dirty:
                self._write_back(set_index, line)
        line.tag = tag
        line.ds_id = ds_id
        line.valid = True
        line.dirty = entry.is_write
        cache_set.plru.touch(way)
        if self.control is not None:
            self.control.record_fill(ds_id)

    # -- geometry helpers ---------------------------------------------------

    def _decompose(self, line_addr: int) -> tuple[int, int]:
        block = line_addr // self.config.line_size
        return block % self.config.num_sets, block // self.config.num_sets

    def _compose(self, set_index: int, tag: int) -> int:
        return (tag * self.config.num_sets + set_index) * self.config.line_size

    def _set(self, set_index: int) -> _Set:
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = _Set(self.config.ways)
            self._sets[set_index] = cache_set
        return cache_set

    def _find(self, cache_set: _Set, tag: int, ds_id: int) -> Optional[int]:
        for way, line in enumerate(cache_set.lines):
            if line.valid and line.tag == tag and line.ds_id == ds_id:
                return way
        return None

    def _find_invalid(self, cache_set: _Set, mask: int) -> Optional[int]:
        for way, line in enumerate(cache_set.lines):
            if not line.valid and line.tag == 0 and mask & (1 << way):
                return way
        return None

    def _waymask(self, ds_id: int) -> int:
        full = (1 << self.config.ways) - 1
        if self.control is None:
            return full
        return self.control.waymask(ds_id) & full

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
            for line in cache_set.lines:
                if line.valid and line.ds_id == ds_id:
                    if line.dirty:
                        self._write_back(set_index, line)
                    line.valid = False
                    line.tag = 0
                    line.dirty = False
                    flushed += 1
                    if self.control is not None:
                        self.control.record_eviction(ds_id)
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
