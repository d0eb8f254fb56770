"""Unit and property tests for the memory window allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.prm.allocator import OutOfMemoryError, WindowAllocator

MB = 1 << 20


class TestWindowAllocator:
    def test_sequential_allocation(self):
        alloc = WindowAllocator(16 * MB)
        a = alloc.allocate(4 * MB)
        b = alloc.allocate(4 * MB)
        assert a != b
        assert alloc.free_bytes == 8 * MB

    def test_alignment(self):
        alloc = WindowAllocator(16 * MB)
        base = alloc.allocate(100)  # tiny request, MB-aligned window
        assert base % MB == 0
        assert alloc.allocate(MB) == base + MB  # the window is one MB

    def test_out_of_memory(self):
        alloc = WindowAllocator(4 * MB)
        alloc.allocate(4 * MB)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(1)

    def test_free_and_reuse(self):
        alloc = WindowAllocator(4 * MB)
        base = alloc.allocate(4 * MB)
        alloc.free(base)
        assert alloc.allocate(4 * MB) == base

    def test_coalescing_allows_large_realloc(self):
        alloc = WindowAllocator(8 * MB)
        a = alloc.allocate(2 * MB)
        b = alloc.allocate(2 * MB)
        c = alloc.allocate(2 * MB)
        alloc.free(b)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(4 * MB)  # fragmented: 2MB hole + 2MB tail
        alloc.free(c)  # coalesces with the hole and the tail
        alloc.allocate(6 * MB)

    def test_double_free_rejected(self):
        alloc = WindowAllocator(4 * MB)
        base = alloc.allocate(MB)
        alloc.free(base)
        with pytest.raises(KeyError):
            alloc.free(base)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowAllocator(0)
        with pytest.raises(ValueError):
            WindowAllocator(4 * MB).allocate(0)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=4 * MB)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=20)),
    ),
    min_size=1, max_size=60,
))
def test_property_no_overlap_and_conservation(actions):
    """Allocated windows never overlap; free + allocated bytes are
    conserved; freeing everything restores one maximal block."""
    capacity = 32 * MB
    alloc = WindowAllocator(capacity)
    live: list[tuple[int, int]] = []  # (base, window size)
    for action in actions:
        if action[0] == "alloc":
            try:
                base = alloc.allocate(action[1])
                live.append((base, -(-action[1] // MB) * MB))
            except OutOfMemoryError:
                pass
        elif live:
            index = action[1] % len(live)
            alloc.free(live.pop(index)[0])

    windows = sorted(live)
    for i in range(len(windows) - 1):
        assert windows[i][0] + windows[i][1] <= windows[i + 1][0]
    allocated_bytes = sum(size for _, size in windows)
    assert allocated_bytes + alloc.free_bytes == capacity
    for base, _size in list(live):
        alloc.free(base)
    assert alloc.free_bytes == capacity
    # After freeing everything, a near-capacity allocation succeeds.
    alloc.allocate(capacity - MB)
