"""Unit tests for the CPU core op interpreter."""

import pytest

from tests.helpers import FakeMemory
from repro.cpu.core import CoreState, CpuCore
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemOp
from repro.workloads.memcached import MemcachedServer


class ListWorkload:
    """A workload from a literal op list."""

    def __init__(self, ops):
        self._ops = ops
        self.core = None

    def bind(self, core):
        self.core = core

    def ops(self):
        yield from self._ops


def make_core(mem_latency=50_000, flush=100):
    engine = Engine()
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine, latency_ps=mem_latency)
    core = CpuCore(engine, clock, 0, memory, flush_threshold_cycles=flush)
    return engine, core, memory


class TestCompute:
    def test_compute_advances_time(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("compute", 1000)]))
        engine.run()
        assert engine.now == 1000 * CPU_CLOCK_PS
        assert core.state is CoreState.DONE

    def test_small_computes_accumulate(self):
        engine, core, _ = make_core(flush=100)
        # 10 x 20 cycles: fewer engine events than ops, same total time.
        core.assign(ListWorkload([("compute", 20)] * 10))
        executed = engine.run()
        assert engine.now == 200 * CPU_CLOCK_PS
        assert executed < 10

    def test_busy_accounting(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("compute", 300), ("compute", 400)]))
        engine.run()
        assert core.busy_ps == 700 * CPU_CLOCK_PS


class TestMemoryOps:
    def test_load_is_tagged_with_core_dsid(self):
        engine, core, memory = make_core()
        core.tag.write(5)
        core.assign(ListWorkload([("loads", [0x1000])]))
        engine.run()
        assert len(memory.requests) == 1
        assert memory.requests[0].ds_id == 5

    def test_retag_mid_run_tags_later_accesses(self):
        # The core tags packets from a copy of its register, kept current
        # by the register's on_change hook.
        engine, core, memory = make_core()
        core.assign(ListWorkload([
            ("loads", [0x0]),
            ("call", lambda: core.tag.write(7)),
            ("loads", [0x40, 0x80]),
            ("call", lambda: core.tag.write(0)),
            ("store", 0xC0),
        ]))
        engine.run()
        assert [p.ds_id for p in memory.requests] == [0, 7, 7, 0]

    def test_load_waits_for_response(self):
        engine, core, _ = make_core(mem_latency=80_000)
        core.assign(ListWorkload([("loads", [0x0]), ("compute", 100)]))
        engine.run()
        assert engine.now == 80_000 + 100 * CPU_CLOCK_PS
        assert core.state is CoreState.DONE

    def test_store_issues_write(self):
        engine, core, memory = make_core()
        core.assign(ListWorkload([("store", 0x40)]))
        engine.run()
        assert memory.requests[0].op is MemOp.WRITE

    def test_batch_waits_for_slowest(self):
        engine, core, memory = make_core(mem_latency=60_000)
        core.assign(ListWorkload([("loads", [0x0, 0x40, 0x80])]))
        engine.run()
        # All issued in parallel: total time = one memory latency.
        assert engine.now == 60_000
        assert len(memory.requests) == 3
        assert core.memory_accesses == 3

    def test_carry_preserves_compute_before_miss(self):
        engine, core, _ = make_core(mem_latency=50_000, flush=1000)
        core.assign(ListWorkload([("compute", 60), ("loads", [0x0])]))
        engine.run()
        # 60 cycles accumulate, then carried across the wait.
        assert engine.now == 50_000 + 60 * CPU_CLOCK_PS


class TestSyncFastPath:
    class SyncMemory(FakeMemory):
        def access(self, packet, on_response):
            self.requests.append(packet)
            return 2 * CPU_CLOCK_PS  # synchronous hit

    def test_sync_hits_use_no_events(self):
        engine = Engine()
        clock = ClockDomain(engine, CPU_CLOCK_PS)
        memory = self.SyncMemory(engine)
        core = CpuCore(engine, clock, 0, memory, flush_threshold_cycles=10_000)
        core.assign(ListWorkload([("loads", [i * 64]) for i in range(50)]))
        executed = engine.run()
        assert len(memory.requests) == 50
        assert executed <= 3  # start + at most a flush or two
        assert engine.now == 50 * 2 * CPU_CLOCK_PS


class TestBlockWake:
    def test_block_then_wake(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("block",), ("compute", 100)]))
        engine.run()
        assert core.state is CoreState.BLOCKED
        engine.post(5000, core.wake)
        engine.run()
        assert core.state is CoreState.DONE
        assert engine.now == 5000 + 100 * CPU_CLOCK_PS

    def test_wake_before_block_is_remembered(self):
        engine, core, _ = make_core()
        core.wake()  # arrives "early"
        core.assign(ListWorkload([("block",), ("compute", 10)]))
        engine.run()
        assert core.state is CoreState.DONE

    def test_pending_wake_charges_busy_time_once(self):
        # The compute before a block that a pending wake skips stays in
        # the accumulator; it used to be charged at the block and again
        # at the next flush (busy_ps 90_000).
        engine, core, _ = make_core()
        core.wake()
        core.assign(ListWorkload([("compute", 60), ("block",), ("compute", 60)]))
        engine.run()
        assert core.state is CoreState.DONE
        assert engine.now == 120 * CPU_CLOCK_PS
        assert core.busy_ps == 120 * CPU_CLOCK_PS

    def test_call_op_runs_at_sim_time(self):
        engine, core, _ = make_core()
        stamps = []
        core.assign(
            ListWorkload([("compute", 200), ("call", lambda: stamps.append(engine.now))])
        )
        engine.run()
        assert stamps == [200 * CPU_CLOCK_PS]


class TestAssignmentRules:
    def test_double_assign_rejected(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("compute", 1000)]))
        with pytest.raises(RuntimeError):
            core.assign(ListWorkload([("compute", 1)]))

    def test_reassign_after_done(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("compute", 10)]))
        engine.run()
        core.assign(ListWorkload([("compute", 10)]))
        engine.run()
        assert core.state is CoreState.DONE

    def test_unknown_op_raises(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("warp", 9)]))
        with pytest.raises(ValueError):
            engine.run()

    def test_io_without_port_raises(self):
        engine, core, _ = make_core()
        core.assign(ListWorkload([("io", object())]))
        with pytest.raises(RuntimeError):
            engine.run()


class TestHalt:
    """``halt`` stops a workload for good; what it left in flight drains
    without resuming it or reaching the next workload."""

    def test_halt_while_waiting_for_memory(self):
        engine, core, memory = make_core(mem_latency=50_000)
        old = ListWorkload([("loads", [0, 64]), ("compute", 10), ("loads", [128])])
        core.assign(old)
        engine.run(until_ps=10_000)
        assert core.state is CoreState.WAITING_MEM
        core.halt()
        assert old.core is None
        assert core.is_busy  # two responses still in flight
        with pytest.raises(RuntimeError):
            core.assign(ListWorkload([]))
        engine.run()
        assert core.state is CoreState.DONE
        assert [p.addr for p in memory.requests] == [0, 64]  # nothing after

    def test_halt_while_running_drops_the_posted_step(self):
        engine, core, memory = make_core()
        core.assign(ListWorkload([("compute", 1000), ("loads", [0])]))
        engine.run(until_ps=CPU_CLOCK_PS)
        assert core.state is CoreState.RUNNING
        core.halt()
        assert core.is_busy
        engine.run()
        assert core.state is CoreState.DONE
        assert memory.requests == []
        assert core.busy_ps == 1000 * CPU_CLOCK_PS

    def test_halt_while_blocked_frees_the_core_at_once(self):
        engine, core, memory = make_core()
        core.assign(ListWorkload([("block",), ("loads", [0])]))
        engine.run()
        assert core.state is CoreState.BLOCKED
        core.halt()
        assert core.state is CoreState.DONE
        core.wake()
        engine.run()
        assert memory.requests == []

    def test_next_workload_runs_alone_after_the_drain(self):
        engine, core, memory = make_core(mem_latency=50_000)
        core.assign(ListWorkload([("loads", [0, 64, 128])]))
        engine.run(until_ps=10_000)
        core.halt()
        core.halt()  # a second halt while draining changes nothing
        engine.run()
        new = ListWorkload([("compute", 10), ("loads", [4096]), ("store", 8192)])
        core.assign(new)
        engine.run()
        assert core.state is CoreState.DONE
        assert [p.addr for p in memory.requests] == [0, 64, 128, 4096, 8192]

    def test_halt_of_an_idle_or_finished_core_is_a_no_op(self):
        engine, core, _ = make_core()
        core.halt()
        assert core.state is CoreState.IDLE
        core.assign(ListWorkload([("compute", 10)]))
        engine.run()
        core.halt()
        assert core.state is CoreState.DONE

    def test_halt_stops_an_open_loop_client(self):
        engine, core, _ = make_core(mem_latency=1_000)
        server = MemcachedServer(engine, rps=1_000_000, warmup_ps=0)
        core.assign(server)
        engine.run(until_ps=20_000_000)
        arrived = server.requests_arrived
        assert arrived > 0
        core.halt()
        engine.run()  # the arrival chain ends, so the engine drains
        assert server.requests_arrived == arrived
        assert core.state is CoreState.DONE
