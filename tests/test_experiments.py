"""Tests for the experiment drivers (scaled-down, fast configurations)."""

import os
from functools import partial

import pytest

from repro.dram.control_plane import MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket
from repro.sim.rng import DeterministicRng
from repro.system import experiments
from repro.system.experiments import (
    ColocationSetup,
    PAPER_KRPS_SCALE,
    measure_saturation_rate,
    run_colocation_point,
    run_fig9,
    run_fig10,
    run_fig11,
)
from repro.telemetry.hub import Telemetry


def tiny_setup():
    """A reduced setup so experiment tests stay fast."""
    return ColocationSetup(
        scale=32,
        mc_working_set_bytes=56 << 10,
        mc_loads_per_request=60,
        stream_array_bytes=256 << 10,
        warmup_ms=0.5,
    )


class TestColocationPoint:
    def test_solo_runs_one_core(self):
        result = run_colocation_point("solo", 150_000, setup=tiny_setup(), measure_ms=1.0)
        assert result.cpu_utilization == 0.25
        assert result.p95_ms > 0
        assert result.throughput_rps > 0
        assert not result.trigger_fired

    @pytest.mark.slow
    def test_shared_runs_all_cores_and_degrades(self):
        setup = tiny_setup()
        solo = run_colocation_point("solo", 150_000, setup=setup, measure_ms=1.0)
        shared = run_colocation_point("shared", 150_000, setup=setup, measure_ms=1.0)
        assert shared.cpu_utilization == 1.0
        assert shared.p95_ms > solo.p95_ms
        assert shared.llc_miss_rate > (solo.llc_miss_rate or 0)

    @pytest.mark.slow
    def test_trigger_mode_fires_and_recovers(self):
        setup = tiny_setup()
        shared = run_colocation_point("shared", 150_000, setup=setup, measure_ms=1.5)
        trig = run_colocation_point("trigger", 150_000, setup=setup, measure_ms=1.5)
        assert trig.trigger_fired
        assert trig.llc_miss_rate < shared.llc_miss_rate
        assert trig.p95_ms <= shared.p95_ms

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_colocation_point("turbo", 100_000, setup=tiny_setup())

    def test_paper_krps_mapping(self):
        result = run_colocation_point("solo", 500_000, setup=tiny_setup(), measure_ms=0.5)
        # Our solo knee (~500 KRPS) maps to the paper's 22.5 KRPS axis.
        assert result.paper_krps == pytest.approx(22.5)


class TestFig9Timeline:
    @pytest.mark.slow
    def test_trigger_timeline_shape(self):
        setup = tiny_setup()
        timeline = run_fig9(
            rps=150_000, setup=setup,
            stream_delay_ms=1.0, total_ms=4.0, sample_ms=0.5,
        )
        assert len(timeline.times_ms) == 8
        assert timeline.trigger_time_ms is not None
        assert timeline.trigger_time_ms >= timeline.stream_start_ms
        # After the trigger, memcached holds the dedicated half.
        assert timeline.final_waymask == 0xFF00
        # Peak miss rate happens after the streams start, and the tail of
        # the timeline is below the peak (recovery).
        peak = max(timeline.miss_rates)
        assert peak > setup.trigger_threshold_pct / 100
        assert timeline.miss_rates[-1] < peak


class TestFig10Disk:
    def test_share_shifts_from_half_to_80_20(self):
        timeline = run_fig10(phase_ms=80.0, sample_ms=20.0, block_bytes=2 << 20)
        split = len([t for t in timeline.times_ms if t <= timeline.quota_change_ms])
        before_a = timeline.bandwidth_share["ldom_a"][1:split]
        after_a = timeline.bandwidth_share["ldom_a"][split + 1:]
        assert sum(before_a) / len(before_a) == pytest.approx(0.5, abs=0.1)
        assert sum(after_a) / len(after_a) == pytest.approx(0.8, abs=0.1)


class TestFig11Queueing:
    def test_saturation_probe_positive(self):
        rate = measure_saturation_rate(num_requests=1500)
        assert 0.01 < rate < 0.25  # below the theoretical bus peak

    def test_priority_redistributes_waiting(self):
        result = run_fig11(num_requests=2500)
        assert result.high_priority_mean_cycles < result.baseline_mean_cycles
        assert result.high_priority_speedup > 1.5
        # CDFs are well-formed and ordered: the high-priority curve
        # dominates (more mass at low delay).
        assert result.high_cdf[-1][1] == pytest.approx(1.0)
        for (_, high_frac), (_, base_frac) in zip(result.high_cdf, result.baseline_cdf):
            assert high_frac >= base_frac - 1e-9

    def test_invalid_inject_rate(self):
        with pytest.raises(ValueError):
            run_fig11(inject_rate=1.5)


class TestFig11Replay:
    """One ``run_fig11`` draws its request stream once and replays it."""

    @pytest.fixture
    def children(self, monkeypatch):
        """Names of the child streams drawn; a sweep worker drawing fails."""
        parent, names = os.getpid(), []
        child = DeterministicRng.child

        def recording(rng, name):
            if os.getpid() != parent:
                raise AssertionError(f"a sweep worker drew the {name!r} stream")
            names.append(name)
            return child(rng, name)

        monkeypatch.setattr(DeterministicRng, "child", recording)
        return names

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_call_draws_addresses_and_arrivals_once(self, children, jobs):
        run_fig11(num_requests=600, jobs=jobs)
        assert (children.count("addr"), children.count("arrival")) == (1, 1)

    def test_each_call_draws_its_own_stream(self, children):
        first = run_fig11(num_requests=600)
        assert run_fig11(num_requests=600) == first
        assert (children.count("addr"), children.count("arrival")) == (2, 2)

    def test_every_run_serves_what_it_injected(self, monkeypatch):
        runs = []
        drive = experiments._drive_controller

        def recording(with_control_plane, addresses, *args, **kwargs):
            controller = drive(with_control_plane, addresses, *args, **kwargs)
            runs.append((len(addresses), controller))
            return controller

        monkeypatch.setattr(experiments, "_drive_controller", recording)
        run_fig11(num_requests=900)
        assert len(runs) == 3  # saturation, baseline, PARD
        for injected, controller in runs:
            assert controller.served_requests == injected == 900
            assert controller._inflight == 0
            assert not any(controller.queues)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inject_hop_is_the_arrival_time(self, jobs):
        telemetry = Telemetry(span_sample=1)
        run_fig11(num_requests=300, telemetry=telemetry, jobs=jobs)
        spans = telemetry.spans.finished
        assert len(spans) == 2 * 300  # the baseline and PARD runs
        for span in spans:
            hops = dict(span.hops)
            assert hops["inject"] == hops["memctrl.enqueue"]


def _drive_preposted(addresses, arrivals):
    """The Fig. 11 injector as it first was, kept as the tie-order
    reference: every arrival is posted before the run, so each one is
    first among the events at its time. PARD controller, no extra row
    buffer, no telemetry."""
    engine = Engine()
    control = MemoryControlPlane(engine)
    control.allocate_ldom(1, priority=0)
    control.allocate_ldom(2, priority=1)
    controller = MemoryController(
        engine, ClockDomain(engine, DRAM_CLOCK_PS), control=control, hp_row_buffer=False,
    )
    for i, (addr, time_ps) in enumerate(zip(addresses, arrivals)):
        packet = MemoryPacket(ds_id=2 if i % 2 else 1, addr=addr, birth_ps=time_ps)
        engine.post_at(time_ps, partial(controller.handle_request, packet, lambda _p: None))
    engine.run()
    return controller


def _queue_delays(controller) -> list[list[float]]:
    """Queueing-delay samples per priority, in dispatch order."""
    return [list(recorder.samples) for recorder in controller.queue_delay]


def _bank_address(bank: int, row: int) -> int:
    geometry = DramGeometry()
    return (row * geometry.total_banks + bank) * geometry.row_bytes


class TestFig11ArrivalOrder:
    """Each arrival is posted by the one before it, and still runs ahead
    of a completion at its time, as when the stream was posted up front."""

    def test_arrival_on_a_completion_takes_the_freed_bank(self):
        first = _bank_address(0, 1)
        # When request 0, alone, frees bank 0.
        freed_ps = experiments._drive_controller(True, [first], [1_000], False).engine.now
        # 0: low, bank 0; 1: high, bank 1; 2: low, bank 0, queued behind
        # request 0; 3: high, bank 0, arriving as request 0 completes.
        addresses = [first, _bank_address(1, 1), _bank_address(0, 2), _bank_address(0, 3)]
        arrivals = [1_000, 1_001, 1_002, freed_ps]
        reference = _queue_delays(_drive_preposted(addresses, arrivals))
        # Request 3 runs before request 0's completion and takes bank 0
        # at once; request 2 waits for it.
        low, high = reference
        assert high == [0.0, 0.0]
        assert low[0] == 0.0 and low[1] > (freed_ps - arrivals[2]) / DRAM_CLOCK_PS
        driven = experiments._drive_controller(True, addresses, arrivals, False)
        assert _queue_delays(driven) == reference
