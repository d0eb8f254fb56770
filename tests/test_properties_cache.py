"""Property-based invariants of the cache substrate.

These drive random tagged access streams through a small cache and
check global invariants the design must maintain regardless of input:
occupancy accounting consistency, capacity bounds, way-mask confinement
and request conservation. They also check the cache's lookup structures
against the plain ones they replace: each set's index and free-way mask
against a linear scan of its lines, and the table-driven PLRU against
the original loop implementation.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.helpers import FakeMemory
from tests.test_cache_replacement import bits, touch
from repro.cache.cache import Cache, CacheConfig
from repro.cache.control_plane import LlcControlPlane
from repro.cache.replacement import WayMaskedPlru, plru_tables
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

ACCESS = st.tuples(
    st.integers(min_value=1, max_value=3),       # ds_id
    st.integers(min_value=0, max_value=63),      # line index
    st.booleans(),                               # is_write
)


def run_stream(accesses, ways=4, sets=4, masks=None):
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=ways)
    for ds_id in (1, 2, 3):
        overrides = {}
        if masks and ds_id in masks:
            overrides["waymask"] = masks[ds_id]
        control.allocate_ldom(ds_id, **overrides)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=sets * ways * 64, ways=ways)
    cache = Cache(engine, clock, config, memory, control=control)
    completed = []
    for ds_id, line, is_write in accesses:
        pkt = MemoryPacket(
            ds_id=ds_id, addr=line * 64,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        cache.handle_request(pkt, lambda p: completed.append(p))
        engine.run()
    return cache, control, completed


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_every_access_completes(accesses):
    _cache, _control, completed = run_stream(accesses)
    assert len(completed) == len(accesses)


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_occupancy_accounting_matches_tag_array(accesses):
    """The control plane's incremental occupancy counters always agree
    with a full scan of the tag array (the paper's capacity statistic)."""
    cache, control, _ = run_stream(accesses)
    for ds_id in (1, 2, 3):
        assert control.occupancy_bytes(ds_id) == cache.occupancy_blocks(ds_id) * 64


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_total_occupancy_bounded_by_capacity(accesses):
    cache, control, _ = run_stream(accesses)
    total_blocks = sum(cache.occupancy_blocks(d) for d in (1, 2, 3))
    assert total_blocks <= cache.config.num_sets * cache.config.ways


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=10, max_size=150))
def test_disjoint_masks_confine_occupancy(accesses):
    """With disjoint way masks, no DS-id ever holds more ways per set
    than its mask allows."""
    masks = {1: 0b0001, 2: 0b0110, 3: 0b1000}
    cache, control, _ = run_stream(accesses, masks=masks)
    allowed = {d: bin(m).count("1") for d, m in masks.items()}
    for set_index, cache_set in cache._sets.items():
        per_dsid = {}
        for line in cache_set.lines:
            if line.valid:
                per_dsid[line.ds_id] = per_dsid.get(line.ds_id, 0) + 1
        for ds_id, count in per_dsid.items():
            assert count <= allowed[ds_id], (
                f"set {set_index}: DS-id {ds_id} holds {count} ways, "
                f"mask allows {allowed[ds_id]}"
            )


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=120))
def test_hit_plus_miss_equals_accesses(accesses):
    cache, control, _ = run_stream(accesses)
    assert cache.total_hits + cache.total_misses == len(accesses)


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, min_size=1, max_size=100))
def test_writeback_owners_are_writers(accesses):
    """Every writeback reaching memory carries the DS-id of some LDom
    that actually wrote (writebacks only exist for dirtied blocks)."""
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=2)
    for ds_id in (1, 2, 3):
        control.allocate_ldom(ds_id)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=2 * 2 * 64, ways=2)  # tiny: 2 sets
    cache = Cache(engine, clock, config, memory, control=control)
    writers = set()
    for ds_id, line, is_write in accesses:
        if is_write:
            writers.add(ds_id)
        pkt = MemoryPacket(
            ds_id=ds_id, addr=line * 64,
            op=MemOp.WRITE if is_write else MemOp.READ,
        )
        cache.handle_request(pkt, lambda p: None)
        engine.run()
    for packet in memory.requests_of(op=MemOp.WRITEBACK):
        assert packet.ds_id in writers


# -- the set index and free-way mask ------------------------------------------

# Ops on a 2-set, 4-way LLC: ("req", ds_id, line, is_write) issues a
# request without running the engine, so misses overlap; ("run", ps)
# advances time; ("flush", ds_id) invalidates a DS-id's blocks.
INDEX_OP = st.one_of(
    st.tuples(
        st.just("req"),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=15),
        st.booleans(),
    ),
    st.tuples(st.just("run"), st.sampled_from([500, 2_000, 10_000, 40_000])),
    st.tuples(st.just("flush"), st.integers(min_value=1, max_value=3)),
)
# Narrow masks (one way, or one way shared by two DS-ids) make PLRU pick
# a way that an in-flight fill already reserved: the overwrite branch of
# MshrEntry.fill.
WAYMASK = st.sampled_from([0b0001, 0b0010, 0b1000, 0b0011, 0b0110, 0b1100, 0b1111])


def scanned_index(cache_set):
    """The set index rebuilt by a linear scan of ``lines`` (first match wins)."""
    index = {}
    for way, line in enumerate(cache_set.lines):
        if line.valid:
            index.setdefault(line.tag << 16 | line.ds_id, way)
    return index


def scanned_free(cache_set):
    return sum(
        1 << way for way, line in enumerate(cache_set.lines)
        if not line.valid and line.tag == 0
    )


def assert_index_matches_scan(cache):
    for set_index, cache_set in cache._sets.items():
        valid = sum(line.valid for line in cache_set.lines)
        assert len(cache_set.index) == valid, f"set {set_index}: duplicate key"
        assert cache_set.index == scanned_index(cache_set), f"set {set_index}"
        assert cache_set.free == scanned_free(cache_set), f"set {set_index}"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(INDEX_OP, min_size=1, max_size=80),
    st.tuples(WAYMASK, WAYMASK, WAYMASK),
)
# A flush while a fill is in flight into the flushed line's way: the
# fill must clear the way's free bit again.
@example(
    ops=[
        ("req", 1, 0, False), ("run", 500), ("req", 1, 2, False),
        ("run", 500), ("run", 10000), ("flush", 1),
    ],
    masks=(0b0001, 0b0001, 0b0001),
)
def test_set_index_agrees_with_linear_scan(ops, masks):
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=4)
    for ds_id, mask in zip((1, 2, 3), masks):
        control.allocate_ldom(ds_id, waymask=mask)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=2 * 4 * 64, ways=4)  # 2 sets
    cache = Cache(engine, clock, config, memory, control=control)
    issued, completed = 0, []
    for op in ops:
        if op[0] == "req":
            _, ds_id, line, is_write = op
            pkt = MemoryPacket(
                ds_id=ds_id, addr=line * 64,
                op=MemOp.WRITE if is_write else MemOp.READ,
            )
            cache.handle_request(pkt, completed.append)
            issued += 1
        elif op[0] == "run":
            engine.run(until_ps=engine.now + op[1])
        else:
            cache.flush_dsid(op[1])
        assert_index_matches_scan(cache)
    engine.run()
    assert_index_matches_scan(cache)
    assert len(completed) == issued
    assert cache.mshrs.entries == {}
    for ds_id in (1, 2, 3):
        assert control.occupancy_bytes(ds_id) == cache.occupancy_blocks(ds_id) * 64


def test_fill_into_reserved_way_evicts_the_earlier_fill():
    """Two overlapping misses of one DS-id confined to a single way: the
    second reserves the way the first is filling, and its fill evicts
    the first's line (the overwrite branch of ``MshrEntry.fill``)."""
    engine = Engine()
    control = LlcControlPlane(engine, num_ways=4)
    control.allocate_ldom(1, waymask=0b0001)
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=10_000)
    config = CacheConfig("c", size_bytes=4 * 64, ways=4)  # 1 set
    cache = Cache(engine, clock, config, memory, control=control)
    for line in (0, 1):
        pkt = MemoryPacket(ds_id=1, addr=line * 64, op=MemOp.WRITE)
        cache.handle_request(pkt, lambda p: None)
    engine.run()
    cache_set = cache._sets[0]
    assert cache_set.index == {1 << 16 | 1: 0}  # line 1 (tag 1) in way 0
    assert cache.occupancy_blocks(1) == 1
    assert control.occupancy_bytes(1) == 64
    # The overwritten line was dirty, so it was written back.
    assert [p.addr for p in memory.requests_of(op=MemOp.WRITEBACK)] == [0]


# -- table-driven PLRU against the loop implementation ------------------------


class LoopPlru:
    """The original loop implementation of the way-masked tree PLRU,
    kept as the oracle for :class:`repro.cache.replacement.WayMaskedPlru`."""

    def __init__(self, num_ways: int):
        self.num_ways = num_ways
        self.bits = [0] * num_ways
        self.full_mask = (1 << num_ways) - 1

    def touch(self, way: int) -> None:
        node = self.num_ways + way
        while node > 1:
            parent = node >> 1
            self.bits[parent] = 0 if node & 1 else 1
            node = parent

    def victim(self, mask: int) -> int:
        mask &= self.full_mask
        node = 1
        while node < self.num_ways:
            preferred = 2 * node + self.bits[node]
            other = 2 * node + (1 - self.bits[node])
            node = preferred if self._subtree_has_allowed(preferred, mask) else other
        return node - self.num_ways

    def _subtree_has_allowed(self, node: int, mask: int) -> bool:
        first, count = node, 1
        while first < self.num_ways:
            first *= 2
            count *= 2
        first -= self.num_ways
        return bool(mask & (((1 << count) - 1) << first))


def tree_pair(num_ways: int, state: int):
    """A table-driven tree and the oracle, both in tree state ``state``."""
    plru = WayMaskedPlru(num_ways)
    plru.state = state
    oracle = LoopPlru(num_ways)
    oracle.bits = bits(plru)
    return plru, oracle


@pytest.mark.parametrize("num_ways", [1, 2, 4, 8])
def test_plru_tables_match_loop_exhaustively(num_ways):
    """Every tree state x every mask (victim) and every way (touch)."""
    for state in range(0, 1 << num_ways, 2):  # bit 0 is not a node
        for mask in range(1, 1 << num_ways):
            plru, oracle = tree_pair(num_ways, state)
            assert plru.victim(mask) == oracle.victim(mask), (state, mask)
        for way in range(num_ways):
            plru, oracle = tree_pair(num_ways, state)
            touch(plru, way)
            oracle.touch(way)
            assert bits(plru) == oracle.bits, (state, way)


@pytest.mark.parametrize("num_ways", [1, 2, 4, 8])
def test_victim_table_matches_victim_exhaustively(num_ways):
    """``Cache._lookup`` reads full-mask victims of trees up to 8 ways
    from ``plru_tables``: every entry is ``victim()`` in that state."""
    victims = plru_tables(num_ways)[3]
    assert len(victims) == 1 << num_ways
    plru = WayMaskedPlru(num_ways)
    for state in range(1 << num_ways):
        plru.state = state
        assert victims[state] == plru.victim(), state
        assert victims[state] == plru.victim(plru.full_mask), state


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8, 16]).flatmap(
        lambda ways: st.tuples(
            st.just(ways),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=ways - 1),
                    st.integers(min_value=1, max_value=(1 << ways) - 1),
                ),
                max_size=60,
            ),
        )
    )
)
def test_plru_tables_match_loop_on_random_histories(case):
    """Interleaved touches and masked victim picks, 16 ways included."""
    num_ways, steps = case
    plru, oracle = WayMaskedPlru(num_ways), LoopPlru(num_ways)
    for way, mask in steps:
        assert plru.victim(mask) == oracle.victim(mask)
        touch(plru, way)
        oracle.touch(way)
        assert bits(plru) == oracle.bits
