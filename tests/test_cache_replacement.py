"""Unit and property tests for way-masked pseudo-LRU replacement."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import ReplacementError, WayMaskedPlru, plru_tables


def mask_ways(mask, num_ways):
    """The way indices enabled by ``mask`` (bit i = way i)."""
    return [w for w in range(num_ways) if mask & (1 << w)]


def touch(plru, way):
    """Make ``way`` the most recently used: the update ``Cache`` applies
    per access from ``plru_tables``."""
    if not 0 <= way < plru.num_ways:
        raise ValueError(f"way {way} out of range for {plru.num_ways} ways")
    keep, point, _leaves, _victims = plru_tables(plru.num_ways)
    plru.state = plru.state & keep[way] | point[way]


def bits(plru):
    """The tree's per-node bits, indexed by node (index 0 unused)."""
    return [0] + [(plru.state >> node) & 1 for node in range(1, plru.num_ways)]


class TestMaskWays:
    def test_full_mask(self):
        assert mask_ways(0xF, 4) == [0, 1, 2, 3]

    def test_partial_masks(self):
        assert mask_ways(0b1010, 4) == [1, 3]
        assert mask_ways(0xFF00, 16) == list(range(8, 16))

    def test_empty(self):
        assert mask_ways(0, 8) == []


class TestWayMaskedPlru:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            WayMaskedPlru(6)
        with pytest.raises(ValueError):
            WayMaskedPlru(0)

    def test_single_way(self):
        plru = WayMaskedPlru(1)
        assert plru.victim() == 0
        touch(plru, 0)
        assert plru.victim() == 0

    def test_victim_avoids_recently_touched(self):
        plru = WayMaskedPlru(4)
        touch(plru, 0)
        assert plru.victim() != 0
        touch(plru, plru.victim())
        # After touching two ways, the victim is one of the untouched ones.
        assert plru.victim() in (1, 2, 3)

    def test_round_robin_under_sequential_touches(self):
        plru = WayMaskedPlru(4)
        victims = []
        for _ in range(4):
            way = plru.victim()
            victims.append(way)
            touch(plru, way)
        # Touching every victim must cycle through all distinct ways.
        assert sorted(victims) == [0, 1, 2, 3]

    def test_victim_respects_mask(self):
        plru = WayMaskedPlru(16)
        for _ in range(50):
            way = plru.victim(0x00FF)
            assert way < 8
            touch(plru, way)

    def test_mask_with_single_way(self):
        plru = WayMaskedPlru(8)
        for _ in range(5):
            assert plru.victim(0b100) == 2
            touch(plru, 2)

    def test_empty_mask_raises(self):
        with pytest.raises(ReplacementError):
            WayMaskedPlru(4).victim(0)

    def test_mask_wider_than_ways_is_truncated(self):
        plru = WayMaskedPlru(4)
        assert plru.victim(0xFFFF) in range(4)

    def test_touch_out_of_range(self):
        with pytest.raises(ValueError):
            touch(WayMaskedPlru(4), 4)

    @given(
        st.integers(min_value=1, max_value=0xFFFF),
        st.lists(st.integers(min_value=0, max_value=15), max_size=64),
    )
    def test_property_victim_always_in_mask(self, mask, touches):
        """Whatever the access history, the victim is always an allowed way."""
        plru = WayMaskedPlru(16)
        for way in touches:
            touch(plru, way)
        assert mask & (1 << plru.victim(mask))

    @given(st.integers(min_value=1, max_value=0xF))
    def test_property_masked_victims_eventually_cover_mask(self, mask):
        """Touching each victim eventually visits every allowed way.

        Tree PLRU under an asymmetric mask is not strictly round-robin
        (a lone way in one subtree alternates against a pair in the
        other), but no allowed way may starve.
        """
        plru = WayMaskedPlru(4)
        allowed = mask_ways(mask, 4)
        victims = set()
        for _ in range(4 * len(allowed)):
            way = plru.victim(mask)
            victims.add(way)
            touch(plru, way)
        assert victims == set(allowed)
