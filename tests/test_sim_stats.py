"""Unit and property tests for statistics primitives."""

import math
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import LatencyRecorder


def recorder_of(samples) -> LatencyRecorder:
    rec = LatencyRecorder()
    for value in samples:
        rec.record(value)
    return rec


class TestLatencyRecorder:
    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.count == 0
        assert rec.mean == 0.0
        assert rec.percentile(95) == 0.0
        assert rec.cdf([1.0]) == []

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
        rec = recorder_of([1.0, 2.0, 3.0, 10.0])
        assert rec.mean == pytest.approx(4.0)
        assert rec.min == 1.0
        assert rec.max == 10.0

    def test_percentile_interpolation(self):
        rec = recorder_of([0.0, 10.0])
        assert rec.percentile(50) == pytest.approx(5.0)
        assert rec.percentile(0) == 0.0
        assert rec.percentile(100) == 10.0

    def test_percentile_range_validated(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_p95_on_uniform_samples(self):
        rec = recorder_of((float(i) for i in range(101)))  # 0..100
        assert rec.p95() == pytest.approx(95.0)

    def test_cdf_steps(self):
        rec = recorder_of([1.0, 1.0, 2.0, 4.0])
        cdf = rec.cdf(points=[1.0, 2.0, 4.0])
        assert cdf == [(1.0, 0.5), (2.0, 0.75), (4.0, 1.0)]

    def test_cdf_at_points(self):
        rec = recorder_of([1.0, 2.0, 3.0, 4.0])
        cdf = rec.cdf(points=[0.0, 2.5, 10.0])
        assert cdf == [(0.0, 0.0), (2.5, 0.5), (10.0, 1.0)]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_are_monotonic(self, samples):
        rec = recorder_of(samples)
        values = [rec.percentile(p) for p in (0, 25, 50, 75, 95, 99, 100)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(min(samples))
        assert values[-1] == pytest.approx(max(samples))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_cdf_is_monotonic_and_ends_at_one(self, samples):
        rec = recorder_of(samples)
        cdf = rec.cdf(points=sorted(samples))
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
        rec = recorder_of(samples)
        value = rec.percentile(pct)
        assert min(samples) <= value <= max(samples)


class EagerRecorder:
    """The incremental reference: every summary updated at record time."""

    def __init__(self):
        self.samples = []
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value):
        value = float(value)
        self.samples.append(value)
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def summaries(self) -> tuple:
        n = len(self.samples)
        return (
            n,
            self._sum,
            self._sum / n if n else 0.0,
            self._min if n else None,
            self._max if n else None,
        )


def _bits(value: Optional[float]):
    return None if value is None else value.hex()


SAMPLE = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
STEP = st.one_of(
    st.tuples(st.just("record"), SAMPLE),
    st.tuples(st.just("append"), SAMPLE),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("percentile"), st.floats(min_value=0.0, max_value=100.0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEP, max_size=60))
def test_lazy_summaries_match_eager_reference_bit_for_bit(steps):
    """Bare ``samples.append`` (the controller's path) and ``record``,
    interleaved with reads: every summary equals the eager recorder's,
    float bit for float bit, and the sorted view behind percentiles and
    the CDF never goes stale."""
    rec, ref = LatencyRecorder(), EagerRecorder()
    samples = rec.samples
    for kind, arg in steps:
        if kind == "record":
            rec.record(arg)
            ref.record(arg)
        elif kind == "append":
            samples.append(arg)
            ref.record(arg)
        elif kind == "percentile":
            # A recorder built from scratch sorts every sample afresh.
            fresh = recorder_of(ref.samples)
            assert rec.percentile(arg) == fresh.percentile(arg)
            points = sorted(ref.samples)
            assert rec.cdf(points) == fresh.cdf(points)
        else:
            count, total, mean, low, high = ref.summaries()
            assert rec.count == count
            assert _bits(rec.total) == _bits(total)
            assert _bits(rec.mean) == _bits(mean)
            assert _bits(rec.min) == _bits(low)
            assert _bits(rec.max) == _bits(high)
    count, total, mean, low, high = ref.summaries()
    assert (rec.count, _bits(rec.total), _bits(rec.mean), _bits(rec.min), _bits(rec.max)) == (
        count, _bits(total), _bits(mean), _bits(low), _bits(high)
    )
