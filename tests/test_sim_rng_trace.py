"""Unit tests for deterministic RNG streams."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import DeterministicRng


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(1)
        b = DeterministicRng(1)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_child_streams_are_stable(self):
        x = DeterministicRng(9).child("mem").uniform()
        y = DeterministicRng(9).child("mem").uniform()
        assert x == y

    def test_child_streams_are_independent(self):
        root = DeterministicRng(9)
        a = root.child("a")
        b = root.child("b")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_exponential_positive_and_mean(self):
        rng = DeterministicRng(3)
        samples = [rng.exponential(10.0) for _ in range(5000)]
        assert all(s >= 0 for s in samples)
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(10.0, rel=0.1)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            DeterministicRng().exponential(0)

    def test_zipf_in_range(self):
        rng = DeterministicRng(5)
        for _ in range(1000):
            assert 0 <= rng.zipf_index(100) < 100

    def test_zipf_skews_to_low_indices(self):
        rng = DeterministicRng(5)
        samples = [rng.zipf_index(1000, alpha=0.99) for _ in range(5000)]
        head = sum(1 for s in samples if s < 100)
        assert head > len(samples) * 0.5  # head of the distribution dominates

    def test_zipf_single_element(self):
        assert DeterministicRng().zipf_index(1) == 0

    def test_zipf_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            DeterministicRng().zipf_index(0)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=500))
    def test_zipf_always_in_bounds(self, seed, n):
        rng = DeterministicRng(seed)
        for _ in range(20):
            assert 0 <= rng.zipf_index(n) < n

    def test_randint_inclusive(self):
        rng = DeterministicRng(1)
        values = {rng.randint(0, 3) for _ in range(200)}
        assert values == {0, 1, 2, 3}
