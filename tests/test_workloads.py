"""Unit tests for workload models."""

import itertools

import pytest

from tests.helpers import FakeMemory
from repro.cpu.core import CoreState, CpuCore
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine, PS_PER_MS
from repro.workloads.base import Boot, LINE, Sequence, Workload
from repro.workloads.cacheflush import CacheFlush
from repro.workloads.memcached import MemcachedServer
from repro.workloads.spec import SyntheticSpec, lbm, leslie3d
from repro.workloads.stream import Stream


def collect_addrs(ops, limit=10_000):
    """Flatten load/store addresses from the first ``limit`` ops."""
    addrs = []
    for op in itertools.islice(ops, limit):
        if op[0] == "store":
            addrs.append(op[1])
        elif op[0] == "loads":
            addrs.extend(op[1])
    return addrs


class TestBoot:
    def test_touches_whole_footprint(self):
        boot = Boot(footprint_bytes=64 * 100)
        addrs = collect_addrs(boot.ops())
        lines = {a // LINE for a in addrs}
        assert lines == set(range(100))

    def test_finite(self):
        boot = Boot(footprint_bytes=64 * 10)
        assert len(list(boot.ops())) > 0  # terminates

    def test_contains_stores(self):
        boot = Boot(footprint_bytes=64 * 32)
        kinds = {op[0] for op in boot.ops()}
        assert "store" in kinds

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Boot(footprint_bytes=32)


class TestSequence:
    def test_chains_stages(self):
        class Fixed(Workload):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def ops(self):
                yield ("compute", self.tag)

        seq = Sequence([Fixed(1), Fixed(2)])
        assert [op[1] for op in seq.ops()] == [1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence([])

    def test_bind_propagates(self):
        class Spy(Workload):
            def on_bind(self):
                self.bound = True

            def ops(self):
                return iter(())

        stages = [Spy(), Spy()]
        seq = Sequence(stages)
        seq.bind(core=object())
        assert all(s.bound for s in stages)


class TestStream:
    def test_addresses_sweep_sequentially(self):
        stream = Stream(array_bytes=64 * 64, mlp=4, write_fraction=0)
        addrs = collect_addrs(stream.ops(), limit=16)
        assert addrs[:8] == [i * LINE for i in range(8)]

    def test_wraps_around_array(self):
        stream = Stream(array_bytes=64 * 8, mlp=4, write_fraction=0)
        addrs = collect_addrs(stream.ops(), limit=100)
        assert max(addrs) < 64 * 8

    def test_write_fraction_produces_stores(self):
        stream = Stream(array_bytes=64 * 256, mlp=4, write_fraction=0.5)
        kinds = [op[0] for op in itertools.islice(stream.ops(), 200)]
        assert "store" in kinds

    def test_start_delay(self):
        stream = Stream(array_bytes=1 << 20, start_delay_cycles=500)
        first = next(iter(stream.ops()))
        assert first == ("compute", 500)

    def test_validation(self):
        with pytest.raises(ValueError):
            Stream(array_bytes=64, mlp=4)
        with pytest.raises(ValueError):
            Stream(write_fraction=1.5)


class TestCacheFlush:
    def test_covers_all_lines_each_pass(self):
        flush = CacheFlush(flush_bytes=64 * 40, mlp=8, passes=1)
        addrs = collect_addrs(flush.ops())
        assert {a // LINE for a in addrs} == set(range(40))

    def test_bounded_passes_terminate(self):
        flush = CacheFlush(flush_bytes=64 * 16, mlp=8, passes=2)
        list(flush.ops())
        assert flush.passes_completed == 2


class TestSyntheticSpec:
    def test_addresses_stay_in_working_set(self):
        spec = SyntheticSpec("x", working_set_bytes=64 * 128, compute_cycles_per_batch=10)
        addrs = collect_addrs(spec.ops(), limit=500)
        assert addrs and max(addrs) < 64 * 128

    def test_low_locality_sweeps_more_lines(self):
        streamy = SyntheticSpec("s", 64 * 4096, 10, locality=0.0)
        cachy = SyntheticSpec("c", 64 * 4096, 10, locality=0.95, hot_fraction=0.05)
        streamy_lines = {a // LINE for a in collect_addrs(streamy.ops(), 2000)}
        cachy_lines = {a // LINE for a in collect_addrs(cachy.ops(), 2000)}
        assert len(streamy_lines) > len(cachy_lines)

    def test_factories(self):
        assert leslie3d().name == "437.leslie3d"
        assert lbm().working_set_bytes > leslie3d().working_set_bytes

    def test_factories_produce_distinct_profiles(self):
        models = [leslie3d(), lbm()]
        assert len({m.name for m in models}) == 2
        # lbm is the streaming, write-heavy one of Fig. 7's pair.
        assert models[1].locality < models[0].locality
        assert models[1].write_fraction > models[0].write_fraction

    def test_scaling(self):
        # Fig. 7 shrinks both working sets by its workload scale.
        for factory in (leslie3d, lbm):
            assert factory(scale=0.5).working_set_bytes == factory().working_set_bytes // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec("x", 64, 10, mlp=4)
        with pytest.raises(ValueError):
            SyntheticSpec("x", 1 << 20, 10, locality=2.0)


class TestMemcached:
    def run_server(self, rps=50_000, duration_ms=4, mem_latency=1_000):
        engine = Engine()
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine, latency_ps=mem_latency)
        core = CpuCore(engine, clock, 0, memory)
        server = MemcachedServer(
            engine, rps=rps, loads_per_request=16, warmup_ps=0,
            working_set_bytes=64 * 1024,
        )
        core.assign(server)
        engine.run(until_ps=duration_ms * PS_PER_MS)
        return engine, core, server

    def test_serves_requests_and_records_latency(self):
        engine, core, server = self.run_server()
        assert server.requests_served > 0
        assert server.latencies.count > 0
        assert server.p95_ms() > 0

    def test_open_loop_arrivals_approximate_rate(self):
        _, _, server = self.run_server(rps=100_000, duration_ms=5)
        expected = 100_000 * 0.005
        assert server.requests_arrived == pytest.approx(expected, rel=0.25)

    def test_core_blocks_when_idle(self):
        engine, core, server = self.run_server(rps=1_000, duration_ms=2)
        # At 1 KRPS with tiny requests, the worker is parked most of the time.
        assert core.state is CoreState.BLOCKED

    def test_latency_grows_with_memory_latency(self):
        _, _, fast = self.run_server(mem_latency=1_000)
        _, _, slow = self.run_server(mem_latency=100_000)
        assert slow.mean_ms() > fast.mean_ms()

    def test_overload_builds_queue(self):
        # Offered load far beyond capacity: latencies must blow up.
        _, _, hot = self.run_server(rps=2_000_000, duration_ms=3, mem_latency=50_000)
        _, _, cool = self.run_server(rps=10_000, duration_ms=3, mem_latency=50_000)
        assert hot.p95_ms() > 10 * max(cool.p95_ms(), 1e-6)

    def test_warmup_excludes_early_requests(self):
        engine = Engine()
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = FakeMemory(engine, latency_ps=100)
        core = CpuCore(engine, clock, 0, memory)
        server = MemcachedServer(
            engine, rps=100_000, loads_per_request=4,
            warmup_ps=2 * PS_PER_MS, working_set_bytes=64 * 64,
        )
        core.assign(server)
        engine.run(until_ps=1 * PS_PER_MS)
        assert server.requests_served > 0
        assert server.latencies.count == 0  # all within warmup

    def test_validation(self):
        with pytest.raises(ValueError):
            MemcachedServer(Engine(), rps=0)
