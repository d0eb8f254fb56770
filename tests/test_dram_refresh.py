"""Tests for optional DRAM refresh."""

import pytest

from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket


def make(enable_refresh):
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    controller = MemoryController(engine, clock, enable_refresh=enable_refresh)
    return engine, controller


class TestRefresh:
    def test_disabled_by_default(self):
        engine, controller = make(enable_refresh=False)
        engine.run(until_ps=20 * controller.timing.t_refi * DRAM_CLOCK_PS)
        assert controller.refreshes_performed == 0

    def test_periodic_refreshes(self):
        engine, controller = make(enable_refresh=True)
        engine.run(until_ps=5 * controller.timing.t_refi * DRAM_CLOCK_PS + 1)
        assert controller.refreshes_performed == 5

    def test_refresh_closes_row_buffers(self):
        engine, controller = make(enable_refresh=True)
        done = []
        controller.handle_request(MemoryPacket(addr=0), done.append)
        engine.run(until_ps=controller.timing.t_refi * DRAM_CLOCK_PS + 1)
        assert done
        assert all(bank.open_row is None for bank in controller.banks)

    def test_request_during_refresh_delayed(self):
        engine, controller = make(enable_refresh=True)
        timing = controller.timing
        refresh_at = timing.t_refi * DRAM_CLOCK_PS
        done = []
        # Arrive right at the refresh instant: must wait ~tRFC extra.
        engine.post_at(
            refresh_at + 1,
            lambda: controller.handle_request(MemoryPacket(addr=0), lambda p: done.append(engine.now)),
        )
        engine.run(until_ps=refresh_at + (timing.t_rfc + 100) * DRAM_CLOCK_PS)
        assert done
        latency_cycles = (done[0] - refresh_at - 1) / DRAM_CLOCK_PS
        assert latency_cycles >= timing.t_rfc

    def test_refresh_overhead_is_small(self):
        # tRFC / tREFI ~ 3%: throughput with refresh stays within ~5%.
        def throughput(enable):
            engine, controller = make(enable_refresh=enable)
            for i in range(1500):
                controller.handle_request(MemoryPacket(addr=i * 64), lambda p: None)
            horizon = 200 * controller.timing.t_refi * DRAM_CLOCK_PS
            engine.run(until_ps=horizon)
            assert controller.served_requests == 1500
            return controller.served_requests

        assert throughput(False) == throughput(True)

    def test_timing_constants(self):
        timing = DramTiming()
        assert timing.t_refi == 6240  # 7.8 us
        assert timing.t_rfc == 208    # 260 ns
        with pytest.raises(ValueError):
            DramTiming(t_refi=0)
