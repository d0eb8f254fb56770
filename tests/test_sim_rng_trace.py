"""Unit tests for deterministic RNG streams."""

import math
import random
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dram.timing import DramGeometry
from repro.sim.clock import DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng
from repro.system import experiments
from repro.system.experiments import (
    fig11_addresses,
    fig11_arrivals,
    measure_saturation_rate,
    run_fig11,
)
from repro.workloads.base import LINE
from repro.workloads.memcached import MemcachedServer


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


# Range widths around every power of two up to 2**40: the rejection loop
# in randint draws k = width.bit_length() bits, so 2**k - 1, 2**k and
# 2**k + 1 cover the no-reject, exact and worst (≈50%) reject cases.
WIDTHS = sorted({1, 2**40} | {
    2**k + d for k in range(1, 41) for d in (-1, 0, 1)
})
_DRAWS = st.lists(
    st.one_of(
        st.tuples(
            st.just("randint"),
            st.integers(min_value=-(2**40), max_value=2**40),
            st.sampled_from(WIDTHS),
        ),
        st.tuples(
            st.just("exponential"), st.floats(min_value=1e-3, max_value=1e9)
        ),
        st.tuples(st.just("random")),
    ),
    min_size=1,
    max_size=40,
)


def _assert_same_stream(seed: int, draws) -> None:
    ours, stdlib = DeterministicRng(seed), random.Random(seed)
    for draw in draws:
        if draw[0] == "randint":
            _, low, width = draw
            high = low + width - 1
            assert ours.randint(low, high) == stdlib.randint(low, high)
        elif draw[0] == "exponential":
            mean = draw[1]
            assert ours.exponential(mean) == stdlib.expovariate(1.0 / mean)
        else:
            assert ours.random() == stdlib.random()
    assert ours._random.getstate() == stdlib.getstate()


class TestStdlibStream:
    """DeterministicRng's draws are the stdlib's, value for value.

    Every pinned digest depends on these streams, so a CPython change to
    ``randint``/``expovariate`` that the inlined draws do not follow
    fails here rather than silently moving every figure.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), _DRAWS)
    def test_interleaved_draws_match_stdlib(self, seed, draws):
        _assert_same_stream(seed, draws)

    def test_every_width_matches_stdlib(self):
        for width in WIDTHS:
            _assert_same_stream(width, [("randint", 3, width)] * 20 + [("random",)])

    def test_randint_rejects_empty_range_like_stdlib(self):
        with pytest.raises(ValueError):
            DeterministicRng().randint(5, 4)
        with pytest.raises(ValueError):
            random.Random(42).randint(5, 4)

    def test_exponential_rejects_zero_and_negative_mean(self):
        for mean in (0, 0.0, -1.0):
            with pytest.raises(ValueError):
                DeterministicRng().exponential(mean)


def _zipf_closed_form(u: float, n: int, alpha: float) -> int:
    """A Zipf index computed from ``u`` in full, with nothing hoisted."""
    if abs(alpha - 1.0) < 1e-9:
        value = math.exp(u * math.log(n))
    else:
        one_minus = 1.0 - alpha
        value = (u * (n**one_minus - 1.0) + 1.0) ** (1.0 / one_minus)
    return min(max(int(value) - 1, 0), n - 1)


class TestZipfStream:
    """``zipf_sampler`` hoists its constants without changing a draw.

    Domains up to 2**60 matter: above 2**53 every float is an integer,
    so a one-ulp change in a hoisted constant moves the index itself.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.just(1), st.integers(min_value=2, max_value=2**60)),
        st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=2.5)),
    )
    # Here (1 - alpha) ** -1 != 1.0 / (1 - alpha).
    @example(seed=0, n=2**60, alpha=0.664)
    @example(seed=0, n=2**53, alpha=0.002)
    def test_sampler_matches_closed_form(self, seed, n, alpha):
        rng, twin = DeterministicRng(seed), random.Random(seed)
        draw = rng.zipf_sampler(n, alpha)
        for _ in range(20):
            expected = 0 if n == 1 else _zipf_closed_form(twin.random(), n, alpha)
            assert draw() == expected
            # One random() per draw, none for a one-element domain.
            assert rng._random.getstate() == twin.getstate()

    def test_sampler_rejects_empty_domain(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                DeterministicRng().zipf_sampler(n)


def _fig11_stream_unhoisted(seed, row_hit_fraction, num_requests, rate):
    """Fig. 11's address and arrival loop with every draw a method call."""
    geometry = DramGeometry()
    banks, row_bytes = geometry.total_banks, geometry.row_bytes
    addr_rng = DeterministicRng(seed, "fig11").child("addr")
    arrival_rng = DeterministicRng(seed, "fig11").child("arrival")
    hot_rows = [addr_rng.randint(0, 255) for _ in range(banks)]
    addresses, arrivals, time_ps = [], [], 0
    for _ in range(num_requests):
        bank = addr_rng.randint(0, banks - 1)
        if addr_rng.random() < row_hit_fraction:
            row = hot_rows[bank]
        else:
            row = addr_rng.randint(0, 4095)
        addresses.append((row * banks + bank) * row_bytes)
        time_ps += max(1, int(arrival_rng.exponential(DRAM_CLOCK_PS / rate)))
        arrivals.append(time_ps)
    return addresses, arrivals, addr_rng, arrival_rng


class TestFig11Stream:
    """The Fig. 11 injector's inlined draws are the unhoisted loop's.

    ``run_fig11`` draws the stream once and replays it into all three
    controller runs, so a drift here moves the saturation rate and both
    queueing-delay CDFs together.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(
            st.just(0.0), st.just(1.0),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_stream_matches_unhoisted_loop(self, seed, row_hit_fraction, count, split, rate):
        expected, expected_arrivals, addr_twin, arrival_twin = _fig11_stream_unhoisted(
            seed, row_hit_fraction, count, rate
        )
        addr_rng = DeterministicRng(seed, "fig11").child("addr")
        arrival_rng = DeterministicRng(seed, "fig11").child("arrival")
        # Drawn in two pieces, as run_fig11 extends its saturation prefix.
        draw = fig11_addresses(addr_rng, row_hit_fraction)
        addresses = list(islice(draw, max(1, min(split, count))))
        addresses.extend(islice(draw, count - len(addresses)))
        assert addresses == expected
        assert fig11_arrivals(arrival_rng, rate, count) == expected_arrivals
        assert addr_rng._random.getstate() == addr_twin._random.getstate()
        assert arrival_rng._random.getstate() == arrival_twin._random.getstate()

    @pytest.mark.parametrize("num_requests", [900, 4100])
    def test_saturation_run_replays_the_stream_prefix(self, monkeypatch, num_requests):
        runs = []
        drive = experiments._drive_controller

        def recording(with_control_plane, addresses, arrivals, *args, **kwargs):
            # A copy: run_fig11 extends the saturation run's list afterwards.
            runs.append((list(addresses), arrivals))
            return drive(with_control_plane, addresses, arrivals, *args, **kwargs)

        monkeypatch.setattr(experiments, "_drive_controller", recording)
        run_fig11(num_requests=num_requests, seed=3)
        (saturation, no_arrivals), baseline, pard = runs
        prefix = min(num_requests, 4000)
        rate = 0.75 * measure_saturation_rate(prefix, seed=3)
        expected = _fig11_stream_unhoisted(3, 0.5, num_requests, rate)[:2]
        assert no_arrivals is None
        assert saturation == expected[0][:prefix]
        assert baseline == pard == expected


# Line counts of one object: 1, and 2**k - 1, 2**k, 2**k + 1 for k <= 10,
# the widths where randint's rejection loop changes shape.
OBJECT_LINES = st.integers(min_value=0, max_value=10).flatmap(
    lambda k: st.sampled_from(sorted({1, max(1, 2**k - 1), 2**k, 2**k + 1}))
)


class TestMemcachedStream:
    """Memcached's inlined line draw is ``randint(0, object_lines - 1)``.

    ``MemcachedServer.ops`` runs the ``_randbelow`` loop on
    ``getrandbits`` in its own frame; a drift here moves every Fig. 8
    and Fig. 9 address after the first batch.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        OBJECT_LINES,
        st.integers(min_value=1, max_value=40),  # objects in the working set
        st.integers(min_value=1, max_value=4),   # mlp
        st.integers(min_value=1, max_value=12),  # loads per request
        st.integers(min_value=1, max_value=3),   # queued requests
    )
    def test_batches_match_randint(self, seed, object_lines, objects, mlp, loads, requests):
        server = MemcachedServer(
            Engine(), rps=1000.0, working_set_bytes=LINE * object_lines * objects,
            object_lines=object_lines, loads_per_request=loads, mlp=mlp,
            rng=DeterministicRng(seed, "memcached"),
        )
        server.queue.extend([0] * requests)
        batches = []
        for op in server.ops():
            if op[0] == "block":
                break
            if op[0] == "loads":
                batches.append(op[1])
        twin = DeterministicRng(seed, "memcached")
        zipf = twin.zipf_sampler(objects, server.zipf_alpha)
        expected = []
        for _ in range(requests * max(1, loads // mlp)):
            base_line = zipf() * object_lines
            expected.append(
                [(base_line + twin.randint(0, object_lines - 1)) * LINE for _ in range(mlp)]
            )
        assert batches == expected
        assert server.rng._random.getstate() == twin._random.getstate()
