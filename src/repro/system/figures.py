"""The paper's evaluation (§7) as data: one :class:`Figure` per table or figure.

A record holds a figure's driver, its named grids of driver keywords, its
renderer and its claims, read by ``repro figN``, ``repro all`` and
``benchmarks/bench_figures.py``. ``default`` is what the CLI runs;
``paper`` is what EXPERIMENTS.md reports (``REPRO_BENCH_FULL=1``);
Fig. 8's ``claims`` is the grid its claims are checked on by default:
they compare the modes at the middle load and hold where that is 389k
RPS; at ``default``'s middle load, 444k, trigger p95 is over 3x solo's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.series import ascii_sparkline
from repro.analysis.tables import format_table
from repro.hwcost.fpga import (
    llc_control_plane_cost, memory_control_plane_cost, table_pair_cost,
    tag_array_blockram_overhead, trigger_table_cost,
)
from repro.runner.builders import fig8_points
from repro.runner.sweep import SweepPoint
from repro.system.config import TABLE2
from repro.system.experiments import run_fig7, run_fig8, run_fig9, run_fig10, run_fig11


def _same(value):
    return value


@dataclass(frozen=True)
class Option:
    """A ``repro`` flag that sets one keyword of the driver."""

    flag: str
    kwarg: str
    type: Callable[[str], Any] = float
    help: Optional[str] = None
    # For a flag argparse keeps as text: the text -> the keyword's value,
    # and the grid's value -> the flag's default text.
    parse: Callable[[Any], Any] = _same
    format: Callable[[Any], Any] = _same

    @property
    def dest(self) -> str:  # the argparse attribute
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Figure:
    """One table or figure: driver, named grids, renderer and claims."""

    name: str
    help: str
    driver: Callable[..., Any]
    render: Callable[[Any], None]
    grids: dict[str, dict] = field(default_factory=lambda: {"default": {}})
    options: tuple[Option, ...] = ()
    claims: Optional[Callable[[Any, dict], None]] = None  # asserts on (result, grid)
    jobs: bool = False  # the driver takes ``jobs``, the command ``--jobs``
    simulated: bool = True  # False: a closed-form table, run in-process
    # One sweep point per run (Fig. 8's mode x load) for ``repro all``;
    # the result is then the list of their values.
    split: Optional[Callable[..., list[SweepPoint]]] = None

    def points(self) -> list[SweepPoint]:
        """The ``default`` grid as ``repro all``'s sweep points."""
        grid = self.grids["default"]
        if self.split is not None:
            return self.split(**grid)
        kwargs = {**grid, "jobs": 1} if self.jobs else grid  # serial in a worker
        return [SweepPoint(self.driver, kwargs, label=self.name)] if self.simulated else []

    def collect(self, values: list) -> Any:
        """The driver's result, from the values of :meth:`points`."""
        if not self.simulated:
            return self.driver(**self.grids["default"])
        return values if self.split is not None else values[0]


def _print_fig7(timeline) -> None:
    for name, series in timeline.llc_occupancy_bytes.items():
        kb = [v / 1024 for v in series]
        print(f"{name:12s} LLC KB |{ascii_sparkline(kb)}| last={kb[-1]:.0f}")
    for when, what in timeline.events:
        print(f"  t={when:6.2f} ms  {what}")


def _fig7_claims(timeline, grid: dict) -> None:
    phase_ms = grid["phase_ms"]
    names = ["ldom_leslie", "ldom_lbm", "ldom_flush"]
    samples = len(timeline.times_ms)
    launches = [when for when, what in timeline.events if what.startswith("launch")]
    repartition = [when for when, what in timeline.events if "waymask" in what][0]

    def at(name, t_ms):
        """Occupancy of an LDom at the sample closest to ``t_ms``."""
        index = min(
            range(samples), key=lambda i: abs(timeline.times_ms[i] - t_ms)
        )
        return timeline.llc_occupancy_bytes[name][index]

    # Each LDom's occupancy is zero before its launch and grows after.
    for name, launch in zip(names, launches):
        if launch > timeline.times_ms[0]:
            assert at(name, launch - phase_ms / 2) == 0
        assert at(name, launch + phase_ms) > 0

    # The CacheFlush launch collapses the first LDom's occupancy
    # (the paper's T_CacheFlush moment).
    flush_launch = launches[2]
    before_flush = at("ldom_leslie", flush_launch)
    after_flush = at("ldom_leslie", repartition)
    assert after_flush < before_flush

    # The echo waymask repartition restores LDom0 toward half the LLC
    # while the flusher shrinks.
    end = timeline.times_ms[-1]
    assert at("ldom_leslie", end) > after_flush * 1.5
    assert at("ldom_flush", end) < at("ldom_flush", repartition)


def _print_fig8(results) -> None:
    rows = [
        [r.mode, f"{r.paper_krps:.1f}", f"{r.p95_ms:.3f}", f"{r.mean_ms:.3f}",
         f"{r.cpu_utilization * 100:.0f}%", f"{(r.llc_miss_rate or 0) * 100:.1f}%",
         "yes" if r.trigger_fired else "no"]
        for r in results
    ]
    print(format_table(
        ["mode", "paper-KRPS", "p95 ms", "mean ms", "CPU util", "LLC miss", "trigger"],
        rows,
    ))


def _fig8_claims(results, grid: dict) -> None:
    loads = grid["loads_rps"]
    by_mode = {}
    for r in results:
        by_mode.setdefault(r.mode, []).append(r)
    low, mid, high = loads[0], loads[len(loads) // 2], loads[-1]

    def point(mode, rps):
        return next(r for r in by_mode[mode] if r.rps == rps)

    # Utilization: solo 25%, co-located 100% (the 4x headline).
    assert all(r.cpu_utilization == 0.25 for r in by_mode["solo"])
    assert all(r.cpu_utilization == 1.0 for r in by_mode["shared"])
    assert all(r.cpu_utilization == 1.0 for r in by_mode["trigger"])

    # Naive sharing destroys the tail well before the solo knee: an
    # order of magnitude at the mid load, and several x even at the knee
    # where solo itself has started to queue.
    assert point("shared", mid).p95_ms > 10 * point("solo", mid).p95_ms
    assert point("shared", high).p95_ms > 5 * point("solo", high).p95_ms
    # ... driven by LLC contention:
    assert point("shared", low).llc_miss_rate > 0.10
    assert point("solo", low).llc_miss_rate < 0.05

    # The trigger fires and restores near-solo behaviour at moderate load.
    assert all(r.trigger_fired for r in by_mode["trigger"])
    assert point("trigger", low).llc_miss_rate < 0.05
    assert point("trigger", low).p95_ms < 3 * point("solo", low).p95_ms
    assert point("trigger", mid).p95_ms < 3 * point("solo", mid).p95_ms
    # At every load the trigger curve beats naive sharing.
    for rps in loads:
        assert point("trigger", rps).p95_ms < point("shared", rps).p95_ms


def _print_fig9(timeline) -> None:
    for t, miss in zip(timeline.times_ms, timeline.miss_rates):
        marker = ""
        if timeline.trigger_time_ms is not None and abs(t - timeline.trigger_time_ms) < 0.25:
            marker = "  <-- trigger"
        print(f"t={t:6.2f} ms  miss={miss * 100:5.1f}%{marker}")
    print(f"final waymask: {timeline.final_waymask:#06x}")


def _fig9_claims(timeline, grid: dict) -> None:
    # Quiet before the streams start.
    pre_stream = [
        m for t, m in zip(timeline.times_ms, timeline.miss_rates)
        if t < timeline.stream_start_ms
    ]
    assert all(m < 0.05 for m in pre_stream)

    # The contention excursion crosses the trigger threshold and fires.
    peak = max(timeline.miss_rates)
    assert peak > 0.15
    assert timeline.trigger_time_ms is not None
    assert timeline.trigger_time_ms >= timeline.stream_start_ms

    # The reaction: half the LLC dedicated, miss rate recovered to near
    # solo (the paper: 35% -> ~10%, solo 7%).
    assert timeline.final_waymask == 0xFF00
    assert timeline.miss_rates[-1] < peak / 3
    assert timeline.miss_rates[-1] < 0.05


def _print_fig10(timeline) -> None:
    for i, t in enumerate(timeline.times_ms):
        a = timeline.bandwidth_share["ldom_a"][i] * 100
        b = timeline.bandwidth_share["ldom_b"][i] * 100
        print(f"t={t:7.1f} ms  LDom0={a:5.1f}%  LDom1={b:5.1f}%")
    print(f"quota change at t={timeline.quota_change_ms:.1f} ms")


def _fig10_claims(timeline, grid: dict) -> None:
    change = timeline.quota_change_ms
    shares_a = timeline.bandwidth_share["ldom_a"]
    before = [
        s for t, s in zip(timeline.times_ms, shares_a) if 40 < t <= change
    ]
    after = [
        s for t, s in zip(timeline.times_ms, shares_a) if t > change + 20
    ]
    mean_before = sum(before) / len(before)
    mean_after = sum(after) / len(after)

    # Fair share first, 80/20 after the quota write.
    assert abs(mean_before - 0.5) < 0.08
    assert abs(mean_after - 0.8) < 0.08
    # The sum of shares is always 1 while both are writing.
    for i in range(len(timeline.times_ms)):
        total = (
            timeline.bandwidth_share["ldom_a"][i]
            + timeline.bandwidth_share["ldom_b"][i]
        )
        assert abs(total - 1.0) < 1e-6


def _print_fig11(result) -> None:
    print(format_table(
        ["configuration", "mean delay (cycles)"],
        [
            ["w/o control plane", f"{result.baseline_mean_cycles:.1f}"],
            ["high priority", f"{result.high_priority_mean_cycles:.1f} "
                              f"({result.high_priority_speedup:.1f}x faster)"],
            ["low priority", f"{result.low_priority_mean_cycles:.1f} "
                             f"({result.low_priority_slowdown_pct:+.1f}%)"],
        ],
    ))


def _fig11_claims(result, grid: dict) -> None:
    # Shape assertions against the paper.
    # Baseline operating point ~15 cycles (paper: 15.2).
    assert 8 < result.baseline_mean_cycles < 30
    # High priority wins big (paper: 5.6x; we require >= 2.5x).
    assert result.high_priority_speedup >= 2.5
    # High priority lands in the paper's few-cycle regime.
    assert result.high_priority_mean_cycles < 8
    # Low priority pays relative to high priority.
    assert result.low_priority_mean_cycles > 2 * result.high_priority_mean_cycles
    # The high-priority CDF stochastically dominates the baseline CDF.
    for (_, high_frac), (_, base_frac) in zip(result.high_cdf, result.baseline_cdf):
        assert high_frac >= base_frac - 1e-9


def fpga_rows() -> list[list]:
    """Fig. 12's table: each plane's table and trigger costs by size."""
    rows = []
    for plane in ("LLC", "Memory"):
        for entries in (64, 128, 256):
            cost = table_pair_cost(entries, llc_datapath=(plane == "LLC"))
            rows.append([plane, f"param+stats {entries}", cost.lut, cost.lutram, cost.ff])
        for triggers in (16, 32, 64):
            cost = trigger_table_cost(triggers)
            rows.append([plane, f"trigger {triggers}", cost.lut, cost.lutram, cost.ff])
    return rows


def _print_fig12(rows) -> None:
    print(format_table(["plane", "component", "LUT", "LUTRAM", "FF"], rows))
    memory = memory_control_plane_cost()
    llc = llc_control_plane_cost()
    extra, total = tag_array_blockram_overhead()
    print(f"\nmemory CP: {memory.total.lut_ff} LUT/FF "
          f"({memory.overhead_fraction * 100:.1f}% of MIG)")
    print(f"LLC CP:    {llc.total.lut_ff} LUT/FF "
          f"({llc.overhead_fraction * 100:.1f}% of T1 LLC)")
    print(f"tag array: +{extra} blockRAMs (12 -> {total})")


FIGURES: dict[str, Figure] = {figure.name: figure for figure in (
    Figure("table2", "print Table 2", TABLE2.describe,
           lambda rows: print(format_table(["parameter", "value"], rows)), simulated=False),
    Figure(
        "fig7", "dynamic partitioning timeline", run_fig7, _print_fig7,
        grids={"default": {"phase_ms": 1.0}, "paper": {"phase_ms": 2.0}},
        options=(Option("--phase-ms", "phase_ms"),),
        claims=_fig7_claims,
    ),
    Figure(
        "fig8", "tail latency vs load", run_fig8, _print_fig8,
        grids={
            "default": {"loads_rps": [222_000, 333_000, 444_000, 500_000], "measure_ms": 2.0},
            "claims": {"loads_rps": [222_000, 389_000, 500_000], "measure_ms": 2.0},
            "paper": {"loads_rps": [222_000, 278_000, 333_000, 389_000, 444_000, 500_000],
                      "measure_ms": 2.5},
        },
        options=(
            Option("--loads", "loads_rps", type=str,
                   help="comma-separated RPS values",
                   parse=lambda text: [int(x) for x in text.split(",")],
                   format=lambda loads: ",".join(map(str, loads))),
            Option("--measure-ms", "measure_ms"),
        ),
        claims=_fig8_claims,
        jobs=True,
        split=fig8_points,
    ),
    Figure(
        "fig9", "miss-rate trigger timeline", run_fig9, _print_fig9,
        grids={
            "default": {"rps": 300_000, "total_ms": 5.0},
            "paper": {"rps": 300_000, "total_ms": 8.0},
        },
        options=(Option("--rps", "rps"), Option("--total-ms", "total_ms")),
        claims=_fig9_claims,
    ),
    Figure(
        "fig10", "disk bandwidth isolation", run_fig10, _print_fig10,
        grids={"default": {"phase_ms": 160.0}, "paper": {"phase_ms": 400.0}},
        options=(Option("--phase-ms", "phase_ms"),),
        claims=_fig10_claims,
    ),
    Figure(
        "fig11", "memory queueing delay", run_fig11, _print_fig11,
        grids={
            "default": {"inject_rate": 0.75, "num_requests": 6000, "seed": 7},
            "paper": {"inject_rate": 0.75, "num_requests": 12_000, "seed": 7},
        },
        options=(
            Option("--inject", "inject_rate",
                   help="fraction of measured saturation bandwidth"),
            Option("--requests", "num_requests", type=int),
        ),
        claims=_fig11_claims,
        jobs=True,
    ),
    Figure("fig12", "FPGA resource model", fpga_rows, _print_fig12, simulated=False),
)}
