"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table2
    python -m repro fig8 --loads 222000,333000,500000 --measure-ms 2.0 --jobs 4
    python -m repro fig9
    python -m repro fig10
    python -m repro fig11 --inject 0.75
    python -m repro fig12
    python -m repro all --jobs 4

Each subcommand builds the system, runs the experiment and prints the
same rows/series the benchmark harness does; the benchmarks additionally
assert the expected shapes.

Grid-shaped subcommands (``fig8``, ``fig11``, ``all``) accept
``--jobs N`` to fan independent simulation points out over N worker
processes (default: all cores). Results and telemetry artifacts are
merged by point index, so the output is byte-identical at any ``--jobs``
value; ``--jobs 1`` is the exact serial path. ``all`` runs every figure
even when one fails, prints a per-figure pass/fail summary, and exits
nonzero only at the end.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import traceback
from typing import Optional, Sequence

from repro.analysis.series import ascii_sparkline
from repro.analysis.tables import format_table
from repro.hwcost.fpga import (
    llc_control_plane_cost,
    memory_control_plane_cost,
    table_pair_cost,
    tag_array_blockram_overhead,
    trigger_table_cost,
)
from repro.runner import default_jobs, run_sweep
from repro.runner.builders import all_points
from repro.system.config import TABLE2
from repro.system.experiments import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
)
from repro.telemetry import Telemetry


def _add_telemetry_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group("telemetry")
    group.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                       help="write metric snapshots as JSONL")
    group.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                       help="write sampled packet spans as a Chrome trace")
    group.add_argument("--span-sample", type=int, default=100, metavar="N",
                       help="record every Nth eligible packet (default 100)")
    group.add_argument("--metrics-every-ms", type=float, default=1.0,
                       help="snapshot period in sim ms (default 1.0)")


def _add_jobs_arg(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent grid points "
             "(default: all cores; 1 = exact serial path)",
    )


def _jobs_from(args) -> int:
    jobs = getattr(args, "jobs", None)
    return jobs if jobs is not None else default_jobs()


def _telemetry_from(args) -> Optional[Telemetry]:
    """Build a Telemetry hub only when an export was requested."""
    if not (getattr(args, "metrics_out", None) or getattr(args, "trace_out", None)):
        return None
    return Telemetry(
        span_sample=max(1, args.span_sample),
        snapshot_period_ms=args.metrics_every_ms,
    )


def _export_telemetry(telemetry: Optional[Telemetry], args) -> None:
    if telemetry is None:
        return
    if args.metrics_out:
        rows = telemetry.export_metrics_jsonl(args.metrics_out)
        print(f"wrote {rows} metric rows to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        events = telemetry.export_chrome_trace(args.trace_out)
        print(
            f"wrote {events} trace events ({len(telemetry.spans)} spans, "
            f"{telemetry.spans.dropped} dropped) to {args.trace_out}",
            file=sys.stderr,
        )


# -- per-figure result printers (shared by the subcommands and ``all``) ------


def _print_fig7(timeline) -> None:
    for name, series in timeline.llc_occupancy_bytes.items():
        kb = [v / 1024 for v in series]
        print(f"{name:12s} LLC KB |{ascii_sparkline(kb)}| last={kb[-1]:.0f}")
    for when, what in timeline.events:
        print(f"  t={when:6.2f} ms  {what}")


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


def _print_fig9(timeline) -> None:
    for t, miss in zip(timeline.times_ms, timeline.miss_rates):
        marker = ""
        if timeline.trigger_time_ms is not None and abs(t - timeline.trigger_time_ms) < 0.25:
            marker = "  <-- trigger"
        print(f"t={t:6.2f} ms  miss={miss * 100:5.1f}%{marker}")
    print(f"final waymask: {timeline.final_waymask:#06x}")


def _print_fig10(timeline) -> None:
    for i, t in enumerate(timeline.times_ms):
        a = timeline.bandwidth_share["ldom_a"][i] * 100
        b = timeline.bandwidth_share["ldom_b"][i] * 100
        print(f"t={t:7.1f} ms  LDom0={a:5.1f}%  LDom1={b:5.1f}%")
    print(f"quota change at t={timeline.quota_change_ms:.1f} ms")


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


# -- subcommands -------------------------------------------------------------


def cmd_table2(_args) -> int:
    print(format_table(["parameter", "value"], TABLE2.describe()))
    return 0


def cmd_fig7(args) -> int:
    telemetry = _telemetry_from(args)
    timeline = run_fig7(phase_ms=args.phase_ms, telemetry=telemetry)
    _export_telemetry(telemetry, args)
    _print_fig7(timeline)
    return 0


def cmd_fig8(args) -> int:
    loads = [int(x) for x in args.loads.split(",")] if args.loads else None
    telemetry = _telemetry_from(args)
    results = run_fig8(
        loads_rps=loads, measure_ms=args.measure_ms, telemetry=telemetry,
        jobs=_jobs_from(args),
    )
    _export_telemetry(telemetry, args)
    _print_fig8(results)
    return 0


def cmd_fig9(args) -> int:
    telemetry = _telemetry_from(args)
    timeline = run_fig9(rps=args.rps, total_ms=args.total_ms, telemetry=telemetry)
    _export_telemetry(telemetry, args)
    _print_fig9(timeline)
    return 0


def cmd_fig10(args) -> int:
    telemetry = _telemetry_from(args)
    timeline = run_fig10(phase_ms=args.phase_ms, telemetry=telemetry)
    _export_telemetry(telemetry, args)
    _print_fig10(timeline)
    return 0


def cmd_fig11(args) -> int:
    telemetry = _telemetry_from(args)
    result = run_fig11(
        inject_rate=args.inject, num_requests=args.requests, telemetry=telemetry,
        jobs=_jobs_from(args),
    )
    _export_telemetry(telemetry, args)
    _print_fig11(result)
    return 0


def cmd_fig12(_args) -> int:
    rows = []
    for plane in ("LLC", "Memory"):
        for entries in (64, 128, 256):
            cost = table_pair_cost(entries, llc_datapath=(plane == "LLC"))
            rows.append([plane, f"param+stats {entries}", cost.lut, cost.lutram, cost.ff])
        for triggers in (16, 32, 64):
            cost = trigger_table_cost(triggers)
            rows.append([plane, f"trigger {triggers}", cost.lut, cost.lutram, cost.ff])
    print(format_table(["plane", "component", "LUT", "LUTRAM", "FF"], rows))
    memory = memory_control_plane_cost()
    llc = llc_control_plane_cost()
    extra, total = tag_array_blockram_overhead()
    print(f"\nmemory CP: {memory.total.lut_ff} LUT/FF "
          f"({memory.overhead_fraction * 100:.1f}% of MIG)")
    print(f"LLC CP:    {llc.total.lut_ff} LUT/FF "
          f"({llc.overhead_fraction * 100:.1f}% of T1 LLC)")
    print(f"tag array: +{extra} blockRAMs (12 -> {total})")
    return 0


def cmd_all(args) -> int:
    """Every table and figure; simulation points fan out over ``--jobs``.

    The compute-heavy figures become one sweep grid (Fig. 8 contributes
    a point per mode x load; Figs. 7/9/10/11 one point each), so the
    whole evaluation parallelizes across cores. Every figure runs even
    when another fails; a per-figure pass/fail summary is printed at the
    end and only then does a failure turn into a nonzero exit.
    """
    telemetry = _telemetry_from(args)

    sweep = run_sweep(
        all_points(), jobs=_jobs_from(args), telemetry=telemetry, progress=True
    )
    fig7, *fig8, fig9, fig10, fig11 = sweep.points
    statuses: list[tuple[str, bool, str]] = []

    def banner(name: str) -> None:
        print(f"\n=== {name} " + "=" * (60 - len(name)))

    def report_failure(name: str, exc: Exception) -> None:
        """Print the failing figure's name with its full traceback."""
        print(f"[{name}] failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(textwrap.indent(traceback.format_exc(), f"[{name}] "),
              file=sys.stderr, end="")

    def run_local(name: str, fn) -> None:
        """A figure computed in-process (cheap tables, no simulation)."""
        banner(name)
        try:
            fn()
            statuses.append((name, True, ""))
        # simlint: disable=EXC001 -- same keep-going contract as figure(),
        # for the in-process table/figure renderers
        except Exception as exc:
            report_failure(name, exc)
            statuses.append((name, False, f"{type(exc).__name__}: {exc}"))

    def figure(name: str, point_results, render) -> None:
        banner(name)
        failures = [pr for pr in point_results if not pr.ok]
        if failures:
            for pr in failures:
                print(f"point {pr.label} failed:\n{pr.error}")
            statuses.append(
                (name, False,
                 f"{len(failures)}/{len(point_results)} points failed")
            )
            return
        try:
            render([pr.value for pr in point_results])
            statuses.append((name, True, ""))
        # simlint: disable=EXC001 -- `repro all` keeps going past a failing
        # figure by design; the handler reports the figure name + full
        # traceback and the summary exits nonzero at the end
        except Exception as exc:
            report_failure(name, exc)
            statuses.append((name, False, f"{type(exc).__name__}: {exc}"))

    run_local("table2", lambda: cmd_table2(args))
    figure("fig7", [fig7], lambda v: _print_fig7(v[0]))
    figure("fig8", fig8, _print_fig8)
    figure("fig9", [fig9], lambda v: _print_fig9(v[0]))
    figure("fig10", [fig10], lambda v: _print_fig10(v[0]))
    figure("fig11", [fig11], lambda v: _print_fig11(v[0]))
    run_local("fig12", lambda: cmd_fig12(args))
    _export_telemetry(telemetry, args)

    banner("summary")
    print(format_table(
        ["figure", "status", "detail"],
        [[name, "ok" if ok else "FAILED", detail]
         for name, ok, detail in statuses],
    ))
    return 0 if all(ok for _name, ok, _detail in statuses) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARD (ASPLOS'15) reproduction: regenerate the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="print Table 2").set_defaults(fn=cmd_table2)

    fig7 = sub.add_parser("fig7", help="dynamic partitioning timeline")
    fig7.add_argument("--phase-ms", type=float, default=1.0)
    _add_telemetry_args(fig7)
    fig7.set_defaults(fn=cmd_fig7)

    fig8 = sub.add_parser("fig8", help="tail latency vs load")
    fig8.add_argument("--loads", type=str, default="",
                      help="comma-separated RPS values")
    fig8.add_argument("--measure-ms", type=float, default=2.0)
    _add_jobs_arg(fig8)
    _add_telemetry_args(fig8)
    fig8.set_defaults(fn=cmd_fig8)

    fig9 = sub.add_parser("fig9", help="miss-rate trigger timeline")
    fig9.add_argument("--rps", type=float, default=300_000)
    fig9.add_argument("--total-ms", type=float, default=5.0)
    _add_telemetry_args(fig9)
    fig9.set_defaults(fn=cmd_fig9)

    fig10 = sub.add_parser("fig10", help="disk bandwidth isolation")
    fig10.add_argument("--phase-ms", type=float, default=160.0)
    _add_telemetry_args(fig10)
    fig10.set_defaults(fn=cmd_fig10)

    fig11 = sub.add_parser("fig11", help="memory queueing delay")
    fig11.add_argument("--inject", type=float, default=0.75,
                       help="fraction of measured saturation bandwidth")
    fig11.add_argument("--requests", type=int, default=6000)
    _add_jobs_arg(fig11)
    _add_telemetry_args(fig11)
    fig11.set_defaults(fn=cmd_fig11)

    sub.add_parser("fig12", help="FPGA resource model").set_defaults(fn=cmd_fig12)

    everything = sub.add_parser(
        "all", help="run everything (figures keep going past failures)"
    )
    _add_jobs_arg(everything)
    _add_telemetry_args(everything)
    everything.set_defaults(fn=cmd_all)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
