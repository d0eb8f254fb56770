"""Unit and property tests for statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import LatencyRecorder


class TestLatencyRecorder:
    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.count == 0
        assert rec.mean == 0.0
        assert rec.percentile(95) == 0.0
        assert rec.cdf() == []

    def test_empty_recorder_extremes_are_none(self):
        # None, not 0.0: "no samples" must be distinguishable from a
        # recorded zero-latency sample.
        rec = LatencyRecorder()
        assert rec.min is None
        assert rec.max is None
        rec.record(0.0)
        assert rec.min == 0.0
        assert rec.max == 0.0

    def test_mean_and_extremes(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0, 10.0])
        assert rec.mean == pytest.approx(4.0)
        assert rec.min == 1.0
        assert rec.max == 10.0

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        rec.extend([0.0, 10.0])
        assert rec.percentile(50) == pytest.approx(5.0)
        assert rec.percentile(0) == 0.0
        assert rec.percentile(100) == 10.0

    def test_percentile_range_validated(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_p95_on_uniform_samples(self):
        rec = LatencyRecorder()
        rec.extend(float(i) for i in range(101))  # 0..100
        assert rec.p95() == pytest.approx(95.0)

    def test_cdf_steps(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 1.0, 2.0, 4.0])
        cdf = rec.cdf()
        assert cdf == [(1.0, 0.5), (2.0, 0.75), (4.0, 1.0)]

    def test_cdf_at_points(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0, 4.0])
        cdf = rec.cdf(points=[0.0, 2.5, 10.0])
        assert cdf == [(0.0, 0.0), (2.5, 0.5), (10.0, 1.0)]

    def test_reset(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        rec.reset()
        assert rec.count == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_are_monotonic(self, samples):
        rec = LatencyRecorder()
        rec.extend(samples)
        values = [rec.percentile(p) for p in (0, 25, 50, 75, 95, 99, 100)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(min(samples))
        assert values[-1] == pytest.approx(max(samples))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_cdf_is_monotonic_and_ends_at_one(self, samples):
        rec = LatencyRecorder()
        rec.extend(samples)
        cdf = rec.cdf()
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        values = [v for v, _ in cdf]
        assert values == sorted(values)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_within_sample_range(self, samples, pct):
        rec = LatencyRecorder()
        rec.extend(samples)
        value = rec.percentile(pct)
        assert min(samples) <= value <= max(samples)
