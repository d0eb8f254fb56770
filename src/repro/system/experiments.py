"""Experiment drivers for the paper's evaluation scenarios (Figs. 7-11).

Each driver builds a PARD server, runs one scenario, and returns a
result object; :mod:`repro.system.figures` holds the grids each runs
with, and how its result prints. Everything is parameterized by
:class:`ColocationSetup`, whose defaults are the calibrated operating
point of this reproduction (see EXPERIMENTS.md for the calibration and
for the scale mapping to the paper's axes):

- the server runs at capacity scale 1/8 (LLC 512 KB, same associativity,
  latencies and DRAM timing as Table 2), with every working set scaled by
  the same factor;
- offered memcached load is normalized so that the solo-mode saturation
  knee corresponds to the paper's 22.5 KRPS;
- the LLC miss-rate trigger threshold is 15% rather than the paper's 30%
  because the synthetic workload's shared-mode miss rate saturates lower
  than real memcached's; the mechanism under test (threshold crossing =>
  interrupt => firmware repartitions => miss rate and tail recover) is
  unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from typing import Iterator, Optional

from repro.cache.control_plane import BASIS_POINTS
from repro.dram.controller import MemoryController
from repro.dram.control_plane import MemoryControlPlane
from repro.prm.monitor import StatisticsMonitor
from repro.prm.rules import partition_llc_action
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine, PS_PER_MS
from repro.sim.packet import MemoryPacket
from repro.sim.rng import DeterministicRng
from repro.sim.stats import LatencyRecorder
from repro.system.config import ServerConfig, TABLE2
from repro.system.server import PardServer
from repro.workloads.base import Boot, Sequence
from repro.workloads.cacheflush import CacheFlush
from repro.workloads.diskio import DiskCopy
from repro.workloads.memcached import MemcachedServer
from repro.workloads.spec import lbm, leslie3d
from repro.workloads.stream import Stream

# The paper's Fig. 8 x-axis tops out at 22.5 KRPS, which corresponds to
# this reproduction's solo saturation knee of ~500 KRPS (scaled server,
# scaled requests). One paper-KRPS is PAPER_KRPS_SCALE of our RPS.
PAPER_KRPS_SCALE = 500_000 / 22_500


@dataclass
class ColocationSetup:
    """The calibrated memcached-vs-STREAM co-location configuration."""

    scale: int = 8
    mc_working_set_bytes: int = 224 << 10
    mc_loads_per_request: int = 120
    mc_mlp: int = 1
    mc_compute_cycles: int = 16
    mc_zipf_alpha: float = 0.9
    mc_priority: int = 1
    stream_array_bytes: int = 1 << 20
    stream_mlp: int = 8
    stream_compute_cycles: int = 40
    trigger_threshold_pct: int = 15  # paper: 30 (see module docstring)
    partition_share: float = 0.5
    ldom_memory_bytes: int = 16 << 20
    warmup_ms: float = 1.5
    control_window_ms: float = 1.0
    seed: int = 42

    def config(self) -> ServerConfig:
        scaled = TABLE2.scaled(self.scale)
        return replace(scaled, control_window_ps=int(self.control_window_ms * PS_PER_MS))


@dataclass
class ColocationResult:
    """One Fig. 8 measurement point."""

    mode: str
    rps: float
    p95_ms: float
    mean_ms: float
    throughput_rps: float
    cpu_utilization: float
    llc_miss_rate: Optional[float]
    trigger_fired: bool

    @property
    def paper_krps(self) -> float:
        """This point's position on the paper's KRPS x-axis."""
        return self.rps / PAPER_KRPS_SCALE / 1000.0


def _build_colocated_server(
    setup: ColocationSetup, mode: str, rps: float, telemetry=None,
    seed: Optional[int] = None, stream_delay_cycles: int = 0,
) -> tuple[PardServer, MemcachedServer, int]:
    """Create the server, LDoms and workloads for one Fig. 8/9 run.

    The STREAM LDoms start after ``stream_delay_cycles`` CPU cycles.
    """
    if mode not in ("solo", "shared", "trigger"):
        raise ValueError(f"unknown mode {mode!r}")
    if seed is None:
        seed = setup.seed
    server = PardServer(setup.config(), telemetry=telemetry)
    firmware = server.firmware
    rng = DeterministicRng(seed, name=f"{mode}-{rps:g}")
    mc_ldom = firmware.create_ldom(
        "memcached", core_ids=(0,), memory_bytes=setup.ldom_memory_bytes,
        priority=setup.mc_priority,
    )
    memcached = MemcachedServer(
        server.engine,
        rps=rps,
        working_set_bytes=setup.mc_working_set_bytes,
        loads_per_request=setup.mc_loads_per_request,
        mlp=setup.mc_mlp,
        compute_cycles_per_batch=setup.mc_compute_cycles,
        zipf_alpha=setup.mc_zipf_alpha,
        warmup_ps=int(setup.warmup_ms * PS_PER_MS),
        rng=rng.child("memcached"),
        telemetry=telemetry,
        ds_id=mc_ldom.ds_id,
    )
    if mode == "trigger":
        config = setup.config()
        firmware.register_script(
            "/cpa0_ldom1_t0.sh",
            partition_llc_action(num_ways=config.llc_ways, share=setup.partition_share),
        )
        firmware.sh(
            f"pardtrigger /dev/cpa0 -ldom={mc_ldom.ds_id} -action=0 "
            f"-stats=miss_rate -cond=gt,{setup.trigger_threshold_pct}"
        )
        firmware.sh(
            f"echo /cpa0_ldom1_t0.sh > "
            f"/sys/cpa/cpa0/ldoms/ldom{mc_ldom.ds_id}/triggers/0"
        )
    server.start()
    firmware.launch_ldom("memcached", {0: memcached})
    if mode != "solo":
        for i in range(1, server.config.num_cores):
            firmware.create_ldom(
                f"stream{i}", core_ids=(i,), memory_bytes=setup.ldom_memory_bytes
            )
            stream = Stream(
                array_bytes=setup.stream_array_bytes,
                mlp=setup.stream_mlp,
                compute_cycles_per_batch=setup.stream_compute_cycles,
                start_delay_cycles=stream_delay_cycles,
            )
            firmware.launch_ldom(f"stream{i}", {i: stream})
    return server, memcached, mc_ldom.ds_id


def run_colocation_point(
    mode: str,
    rps: float,
    setup: Optional[ColocationSetup] = None,
    measure_ms: float = 2.5,
    telemetry=None,
    seed: Optional[int] = None,
) -> ColocationResult:
    """One (mode, load) point of Fig. 8.

    ``seed`` is the point's explicit workload seed (default:
    ``setup.seed``). Every RNG the point uses derives from it inside
    this call -- never from global or run-order state -- so the result
    is identical whether the point runs first, last, serially or in a
    worker process. Grid drivers deliberately give every point the same
    root seed (common random numbers): the modes at one load then see
    identical arrival/key streams, making the Fig. 8 curves paired
    comparisons; pass distinct seeds for independent replications.
    """
    setup = setup or ColocationSetup()
    if telemetry is not None:
        telemetry.begin_run(f"{mode}@{rps:g}rps")
    server, memcached, ds_id = _build_colocated_server(
        setup, mode, rps, telemetry=telemetry, seed=seed
    )
    total_ms = setup.warmup_ms + measure_ms
    server.run_ms(total_ms)
    if server.telemetry is not None:
        server.telemetry.snapshot(server.engine.now)
    duration_ps = int(measure_ms * PS_PER_MS)
    return ColocationResult(
        mode=mode,
        rps=rps,
        p95_ms=memcached.p95_ms(),
        mean_ms=memcached.mean_ms(),
        throughput_rps=memcached.throughput_rps(int(total_ms * PS_PER_MS)),
        cpu_utilization=server.cpu_utilization(),
        llc_miss_rate=server.llc_control.last_window_miss_rate(ds_id),
        trigger_fired=server.llc_control.interrupts_raised > 0,
    )


def run_fig8(
    loads_rps: list[float],
    modes: tuple[str, ...] = ("solo", "shared", "trigger"),
    setup: Optional[ColocationSetup] = None,
    measure_ms: float = 2.0,
    telemetry=None,
    jobs: int = 1,
) -> list[ColocationResult]:
    """Fig. 8: tail response time vs offered load, for all three modes.

    The ``fig8`` record's default loads (:mod:`repro.system.figures`)
    are the paper's 10 / 15 / 20 / 22.5 KRPS x-axis points under the
    :data:`PAPER_KRPS_SCALE` mapping. The grid
    runs through the sweep runner: ``jobs=1`` executes the points
    serially in this process, ``jobs=N`` fans them out over N worker
    processes -- the returned list (and any merged telemetry) is
    byte-identical either way, in grid order.
    """
    from repro.runner.builders import fig8_points
    from repro.runner.sweep import run_sweep

    points = fig8_points(
        loads_rps=loads_rps, modes=modes, setup=setup, measure_ms=measure_ms
    )
    sweep = run_sweep(points, jobs=jobs, telemetry=telemetry)
    sweep.raise_on_failure()
    return sweep.values()


@dataclass
class MissRateTimeline:
    """Fig. 9: windowed LLC miss rate over time for the memcached LDom."""

    times_ms: list[float] = field(default_factory=list)
    miss_rates: list[float] = field(default_factory=list)
    trigger_time_ms: Optional[float] = None
    stream_start_ms: float = 0.0
    final_waymask: int = 0


def run_fig9(
    rps: float = 300_000,
    setup: Optional[ColocationSetup] = None,
    stream_delay_ms: float = 1.0,
    total_ms: float = 5.0,
    sample_ms: float = 0.25,
    telemetry=None,
) -> MissRateTimeline:
    """Fig. 9: the trigger catching a miss-rate excursion.

    Memcached runs alone first; the STREAM LDoms start after
    ``stream_delay_ms``; the installed trigger fires when the windowed
    miss rate crosses the threshold and the firmware repartitions.
    """
    setup = setup or ColocationSetup()
    if telemetry is not None:
        telemetry.begin_run(f"fig9@{rps:g}rps")
    server, _memcached, ds_id = _build_colocated_server(
        replace(setup, warmup_ms=0.0), "trigger", rps, telemetry=telemetry,
        stream_delay_cycles=int(
            stream_delay_ms * PS_PER_MS / setup.config().cpu_period_ps
        ),
    )
    firmware = server.firmware
    mc_path = f"/sys/cpa/cpa0/ldoms/ldom{ds_id}"
    monitor = StatisticsMonitor(firmware, period_ps=int(sample_ms * PS_PER_MS))
    miss_rate = monitor.add_probe("miss_rate", f"{mc_path}/statistics/miss_rate")
    monitor.run(int(total_ms * PS_PER_MS))
    trigger_log = firmware.trigger_log
    return MissRateTimeline(
        times_ms=[t / PS_PER_MS for t in miss_rate.times_ps],
        miss_rates=[v / BASIS_POINTS for v in miss_rate.values],
        trigger_time_ms=trigger_log[0][0] / PS_PER_MS if trigger_log else None,
        stream_start_ms=stream_delay_ms,
        final_waymask=int(firmware.cat(f"{mc_path}/parameters/waymask")),
    )


@dataclass
class VirtualizationTimeline:
    """Fig. 7: per-LDom LLC occupancy and memory bandwidth over time."""

    times_ms: list[float] = field(default_factory=list)
    # ldom name -> series
    llc_occupancy_bytes: dict[str, list[int]] = field(default_factory=dict)
    memory_bandwidth_bytes: dict[str, list[int]] = field(default_factory=dict)
    events: list[tuple[float, str]] = field(default_factory=list)


def run_fig7(
    setup: Optional[ColocationSetup] = None,
    phase_ms: float = 1.0,
    sample_ms: float = 0.25,
    telemetry=None,
) -> VirtualizationTimeline:
    """Fig. 7: launch three LDoms in turn, then repartition with ``echo``.

    LDom1 boots and runs 437.leslie3d, LDom2 boots and runs 470.lbm,
    LDom3 boots and runs CacheFlush; after all are up, the operator gives
    LDom1 a dedicated half of the LLC exactly as in the paper's shell
    transcript.
    """
    setup = setup or ColocationSetup()
    config = setup.config()
    if telemetry is not None:
        telemetry.begin_run("fig7")
    server = PardServer(config, telemetry=telemetry)
    firmware = server.firmware
    workload_scale = 1.0 / setup.scale
    boot = lambda: Boot(footprint_bytes=(4 << 20) // setup.scale)
    plan = [
        ("ldom_leslie", 0, Sequence([boot(), leslie3d(scale=workload_scale)])),
        ("ldom_lbm", 1, Sequence([boot(), lbm(scale=workload_scale)])),
        ("ldom_flush", 2, Sequence([boot(), CacheFlush(flush_bytes=(8 << 20) // setup.scale)])),
    ]
    events = []
    server.start()
    monitor = StatisticsMonitor(firmware, period_ps=int(sample_ms * PS_PER_MS))
    phase_ps = max(int(phase_ms * PS_PER_MS), monitor.period_ps)
    ldoms = {}
    for phase in range(len(plan) + 2):  # one phase per launch + two steady phases
        if phase < len(plan):
            name, core, workload = plan[phase]
            ldom = ldoms[name] = firmware.create_ldom(
                name, (core,), setup.ldom_memory_bytes
            )
            for cpa, column in (("cpa0", "capacity"), ("cpa1", "bandwidth")):
                monitor.add_probe(
                    f"{name}.{column}",
                    f"/sys/cpa/{cpa}/ldoms/ldom{ldom.ds_id}/statistics/{column}",
                )
            firmware.launch_ldom(name, {core: workload})
            events.append((server.engine.now / PS_PER_MS, f"launch {name}"))
        elif phase == len(plan) + 1:
            # The paper's manual rebalancing: half the LLC to LDom1.
            half = config.llc_ways // 2
            high_mask = ((1 << half) - 1) << half
            low_mask = (1 << half) - 1
            firmware.sh(
                f"echo {high_mask:#x} > /sys/cpa/cpa0/ldoms/"
                f"ldom{ldoms['ldom_leslie'].ds_id}/parameters/waymask"
            )
            for other in ("ldom_lbm", "ldom_flush"):
                firmware.sh(
                    f"echo {low_mask:#x} > /sys/cpa/cpa0/ldoms/"
                    f"ldom{ldoms[other].ds_id}/parameters/waymask"
                )
            events.append((server.engine.now / PS_PER_MS, "echo waymask repartition"))
        monitor.run(phase_ps)

    times_ps = monitor.probes[f"{plan[0][0]}.capacity"].times_ps

    def padded(probe: str) -> list[int]:
        """A probe's series, zero for the samples before its LDom existed."""
        values = monitor.probes[probe].values
        return [0] * (len(times_ps) - len(values)) + values

    return VirtualizationTimeline(
        times_ms=[t / PS_PER_MS for t in times_ps],
        llc_occupancy_bytes={name: padded(f"{name}.capacity") for name, _, _ in plan},
        memory_bandwidth_bytes={
            name: padded(f"{name}.bandwidth") for name, _, _ in plan
        },
        events=events,
    )


@dataclass
class DiskIsolationTimeline:
    """Fig. 10: per-LDom disk bandwidth share over time."""

    times_ms: list[float] = field(default_factory=list)
    bandwidth_share: dict[str, list[float]] = field(default_factory=dict)
    quota_change_ms: Optional[float] = None


def run_fig10(
    setup: Optional[ColocationSetup] = None,
    phase_ms: float = 160.0,
    sample_ms: float = 20.0,
    block_bytes: int = 4 << 20,
    telemetry=None,
) -> DiskIsolationTimeline:
    """Fig. 10: two LDoms ``dd`` to disk; a quota write shifts the split.

    Both LDoms start with the default fair share (50/50); mid-run the
    operator runs ``echo 80 > .../parameters/bandwidth`` and the split
    moves to 80/20.
    """
    setup = setup or ColocationSetup()
    config = setup.config()
    if telemetry is not None:
        telemetry.begin_run("fig10")
    server = PardServer(config, telemetry=telemetry)
    firmware = server.firmware
    names = ("ldom_a", "ldom_b")
    ldoms = {}
    for index, name in enumerate(names):
        ldoms[name] = firmware.create_ldom(name, (index,), setup.ldom_memory_bytes)
    server.start()
    for index, name in enumerate(names):
        firmware.launch_ldom(
            name, {index: DiskCopy(block_bytes=block_bytes, count=0)}
        )
    monitor = StatisticsMonitor(firmware, period_ps=int(sample_ms * PS_PER_MS))
    for name in names:
        monitor.add_probe(
            name,
            f"/sys/cpa/cpa2/ldoms/ldom{ldoms[name].ds_id}/statistics/bytes_total",
        )
    phase_ps = max(int(phase_ms * PS_PER_MS), monitor.period_ps)
    monitor.run(phase_ps)
    firmware.sh(
        f"echo 80 > /sys/cpa/cpa2/ldoms/ldom{ldoms['ldom_a'].ds_id}/parameters/bandwidth"
    )
    firmware.sh(
        f"echo 20 > /sys/cpa/cpa2/ldoms/ldom{ldoms['ldom_b'].ds_id}/parameters/bandwidth"
    )
    quota_change_ms = server.engine.now / PS_PER_MS
    monitor.run(phase_ps)

    # Bytes written in each sample interval, from the cumulative counter.
    deltas = {}
    for name in names:
        totals = monitor.probes[name].values
        deltas[name] = [now - before for before, now in zip([0] + totals, totals)]
    shares = {name: [] for name in names}
    for interval in zip(*deltas.values()):
        interval_total = sum(interval) or 1
        for name, delta in zip(names, interval):
            shares[name].append(delta / interval_total)
    return DiskIsolationTimeline(
        times_ms=[t / PS_PER_MS for t in monitor.probes[names[0]].times_ps],
        bandwidth_share=shares,
        quota_change_ms=quota_change_ms,
    )


@dataclass
class QueueingResult:
    """Fig. 11: memory queueing delay distributions."""

    baseline_mean_cycles: float
    high_priority_mean_cycles: float
    low_priority_mean_cycles: float
    baseline_cdf: list[tuple[float, float]]
    high_cdf: list[tuple[float, float]]
    low_cdf: list[tuple[float, float]]

    @property
    def high_priority_speedup(self) -> float:
        if self.high_priority_mean_cycles == 0:
            return float("inf")
        return self.baseline_mean_cycles / self.high_priority_mean_cycles

    @property
    def low_priority_slowdown_pct(self) -> float:
        if self.baseline_mean_cycles == 0:
            return 0.0
        return (
            (self.low_priority_mean_cycles - self.baseline_mean_cycles)
            / self.baseline_mean_cycles * 100.0
        )


def _ignore_response(_packet) -> None:
    """The Fig. 11 injector's response callback: nothing waits on it."""


def _finish_injected_span(spans, packet) -> None:
    spans.finish(packet.span)


# The share of Fig. 11's injected requests that go to their bank's hot row.
FIG11_ROW_HIT_FRACTION = 0.5


def fig11_addresses(rng: DeterministicRng, row_hit_fraction: float) -> Iterator[int]:
    """The Fig. 11 injector's request addresses, an endless stream.

    A request goes to a uniform bank: to its hot row with probability
    ``row_hit_fraction``, else to a uniform one of 4096 rows. The
    ``randint`` draws are inlined as its ``_randbelow`` loops (redraw
    ``n.bit_length()`` bits while ``>= n``); ``TestFig11Stream`` pins
    them to the ``randint`` loop, value for value.
    """
    geometry = TABLE2.dram_geometry
    banks, rows, row_bytes = geometry.total_banks, 4096, geometry.row_bytes
    hot_rows = [rng.randint(0, 255) for _ in range(banks)]
    getrandbits, random = rng.getrandbits, rng.random
    bank_bits, row_bits = banks.bit_length(), rows.bit_length()
    while True:
        bank = getrandbits(bank_bits)
        while bank >= banks:
            bank = getrandbits(bank_bits)
        if random() < row_hit_fraction:
            row = hot_rows[bank]
        else:
            row = getrandbits(row_bits)
            while row >= rows:
                row = getrandbits(row_bits)
        yield (row * banks + bank) * row_bytes


def fig11_arrivals(rng: DeterministicRng, rate_req_per_cycle: float, n: int) -> list[int]:
    """Poisson arrival times (ps) of ``n`` requests: each gap is
    ``DeterministicRng.exponential`` inlined, floored, and at least 1."""
    random, log = rng.random, math.log
    rate_per_ps = 1.0 / (DRAM_CLOCK_PS / rate_req_per_cycle)
    time_ps, arrivals = 0, []
    for _ in range(n):
        time_ps += max(1, int(-log(1.0 - random()) / rate_per_ps))
        arrivals.append(time_ps)
    return arrivals


def _drive_controller(
    with_control_plane: bool,
    addresses: list[int],
    arrivals: Optional[list[int]],
    hp_row_buffer: bool,
    telemetry=None,
) -> MemoryController:
    """Replay one Fig. 11 request stream into a controller configuration.

    Request ``i`` reads ``addresses[i]`` at ``arrivals[i]`` ps, DS-id 2
    (high priority) for odd ``i`` and 1 (low) for even. Arrival times
    must rise strictly, as :func:`fig11_arrivals` draws them: each
    arrival front-posts the next one (``Engine.post_first_at``), which
    puts it first among the events at its time, where posting the whole
    stream up front would have put it; the queue then holds only the
    next arrival and the requests in flight. With ``arrivals=None``
    every request is enqueued at t=0 before the run, which measures the
    controller's saturation throughput.
    """
    engine = Engine()
    clock = ClockDomain(engine, DRAM_CLOCK_PS)
    control = None
    if with_control_plane:
        control = MemoryControlPlane(engine)
        control.allocate_ldom(1, priority=0)
        control.allocate_ldom(2, priority=1)
    controller = MemoryController(
        engine, clock,
        timing=TABLE2.dram_timing, geometry=TABLE2.dram_geometry,
        control=control, hp_row_buffer=hp_row_buffer, telemetry=telemetry,
    )
    spans = telemetry.spans if telemetry is not None else None
    finish_span = partial(_finish_injected_span, spans)
    handle_request = controller.handle_request
    post_first_at = engine.post_first_at
    timed = arrivals is not None
    count = len(addresses)
    i = 0

    def arrive() -> None:
        # Request i arrives: packet ids and span samples go in i order.
        nonlocal i
        time_ps = arrivals[i] if timed else 0
        ds_id = 2 if i % 2 else 1  # half high (2), half low (1)
        packet = MemoryPacket(ds_id, addresses[i], time_ps)
        done = _ignore_response
        if spans is not None:
            span = spans.maybe_start(ds_id, packet.packet_id)
            if span is not None:
                span.hop("inject", time_ps)
                packet.span = span
                done = finish_span
        handle_request(packet, done)
        i += 1
        if timed and i < count:
            post_first_at(arrivals[i], arrive)

    if not timed:
        for _ in range(count):
            arrive()
    elif count:
        engine.post_at(arrivals[0], arrive)
    engine.run()
    return controller


def run_fig11_controller_point(
    with_control_plane: bool,
    addresses: list[int],
    arrivals: list[int],
    hp_row_buffer: bool,
    telemetry=None,
) -> dict:
    """One Fig. 11 controller configuration, reduced to picklable stats.

    Returns ``{"mean": {priority: cycles}, "cdf": {priority: [(x, frac)]}}``
    -- the only parts of the driven :class:`MemoryController` the figure
    needs, in a form a sweep worker can ship back to the parent.
    """
    controller = _drive_controller(
        with_control_plane, addresses, arrivals, hp_row_buffer,
        telemetry=telemetry,
    )
    if controller.telemetry is not None:
        controller.telemetry.snapshot(controller.engine.now)
    return {
        "mean": {
            priority: recorder.mean
            for priority, recorder in enumerate(controller.queue_delay)
        },
        "cdf": {
            priority: recorder.cdf(points=range(0, 101, 2))
            for priority, recorder in enumerate(controller.queue_delay)
        },
    }


def _saturation_rate(addresses: list[int]) -> float:
    """Requests/cycle of the baseline controller given all at t=0."""
    controller = _drive_controller(False, addresses, None, hp_row_buffer=False)
    return len(addresses) / (controller.engine.now / DRAM_CLOCK_PS)


def measure_saturation_rate(num_requests: int = 4000, seed: int = 7) -> float:
    """The baseline controller's saturation throughput (requests/cycle)."""
    draw = fig11_addresses(
        DeterministicRng(seed, "fig11").child("addr"), FIG11_ROW_HIT_FRACTION
    )
    return _saturation_rate(list(islice(draw, num_requests)))


def run_fig11(
    inject_rate: float = 0.75,
    num_requests: int = 6000,
    seed: int = 7,
    hp_row_buffer: bool = False,
    telemetry=None,
    jobs: int = 1,
) -> QueueingResult:
    """Fig. 11: queueing delay CDF at a given bandwidth utilization.

    A synthetic injector (the FPGA microbenchmark's role) drives the
    memory controller at ``inject_rate`` of its *measured* saturation
    bandwidth with half high-priority, half low-priority requests,
    against both the baseline controller (no control plane: one queue)
    and the PARD controller (priority queues; optionally also the extra
    high-priority row buffer).

    The default utilization of 0.75 is the operating point where this
    model's baseline mean queueing delay matches the paper's reported
    15.2 cycles; the paper quotes its own inject rate as 0.44 of its
    RTL's peak (see EXPERIMENTS.md for the calibration discussion).
    """
    if not 0 < inject_rate < 1:
        raise ValueError("inject_rate must be a fraction of peak bandwidth")
    from repro.runner.builders import fig11_points
    from repro.runner.sweep import run_sweep

    # One stream for all three runs: saturation is measured on its
    # prefix, and the baseline and PARD controllers replay all of it.
    rng = DeterministicRng(seed, "fig11")
    draw = fig11_addresses(rng.child("addr"), FIG11_ROW_HIT_FRACTION)
    addresses = list(islice(draw, min(num_requests, 4000)))
    saturation = _saturation_rate(addresses)
    addresses.extend(islice(draw, num_requests - len(addresses)))
    arrivals = fig11_arrivals(rng.child("arrival"), inject_rate * saturation, num_requests)
    points = fig11_points(addresses, arrivals, hp_row_buffer)
    sweep = run_sweep(points, jobs=jobs, telemetry=telemetry)
    sweep.raise_on_failure()
    baseline, pard = sweep.values()
    return QueueingResult(
        baseline_mean_cycles=baseline["mean"][0],
        high_priority_mean_cycles=pard["mean"][1],
        low_priority_mean_cycles=pard["mean"][0],
        baseline_cdf=baseline["cdf"][0],
        high_cdf=pard["cdf"][1],
        low_cdf=pard["cdf"][0],
    )
