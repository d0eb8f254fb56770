"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro table2
    python -m repro fig8 --loads 222000,333000,500000 --measure-ms 2.0 --jobs 4
    python -m repro fig9
    python -m repro fig10
    python -m repro fig11 --inject 0.75
    python -m repro fig12
    python -m repro all --jobs 4

Each table and figure is a record in :mod:`repro.system.figures`: the
subcommand's option defaults are the record's ``default`` grid, and the
record's driver and renderer make the output.

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
from functools import partial
from itertools import islice
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.runner.builders import all_points
from repro.runner.sweep import default_jobs, run_sweep
from repro.system.figures import FIGURES, Figure
from repro.telemetry.hub import Telemetry


def _add_telemetry_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group("telemetry")
    group.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                       help="write metric snapshots as JSONL")
    group.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                       help="write sampled packet spans as a Chrome trace")
    group.add_argument("--span-sample", type=int, default=100, metavar="N",
                       help="record every Nth eligible packet (default 100)")
    group.add_argument("--metrics-every-ms", type=float, default=1.0,
                       help="snapshot period in sim ms, counted from machine "
                            "start; a snapshot at t follows every event at t "
                            "(default 1.0; 0 = none)")


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


def _banner(name: str) -> None:
    print(f"\n=== {name} " + "=" * (60 - len(name)))


# -- subcommands -------------------------------------------------------------


def cmd_figure(figure: Figure, args) -> int:
    """Run the driver on the ``default`` grid as the flags override it,
    export telemetry, print the result."""
    kwargs = dict(figure.grids["default"])
    for option in figure.options:
        kwargs[option.kwarg] = option.parse(getattr(args, option.dest))
    if figure.jobs:
        kwargs["jobs"] = _jobs_from(args)
    telemetry = _telemetry_from(args)
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    result = figure.driver(**kwargs)
    _export_telemetry(telemetry, args)
    figure.render(result)
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
    done = iter(sweep.points)
    statuses: list[tuple[str, bool, str]] = []
    for name, figure in FIGURES.items():
        _banner(name)
        point_results = list(islice(done, len(figure.points())))
        failures = [pr for pr in point_results if not pr.ok]
        if failures:
            for pr in failures:
                print(f"point {pr.label} failed:\n{pr.error}")
            statuses.append(
                (name, False,
                 f"{len(failures)}/{len(point_results)} points failed")
            )
            continue
        try:
            figure.render(figure.collect([pr.value for pr in point_results]))
            statuses.append((name, True, ""))
        # simlint: disable=EXC001 -- `repro all` keeps going past a failing
        # figure by design; the handler reports the figure name + full
        # traceback and the summary exits nonzero at the end
        except Exception as exc:
            print(f"[{name}] failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            print(textwrap.indent(traceback.format_exc(), f"[{name}] "),
                  file=sys.stderr, end="")
            statuses.append((name, False, f"{type(exc).__name__}: {exc}"))
    _export_telemetry(telemetry, args)

    _banner("summary")
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

    for name, figure in FIGURES.items():
        command = sub.add_parser(name, help=figure.help)
        default = figure.grids["default"]
        for option in figure.options:
            command.add_argument(
                option.flag, type=option.type, help=option.help,
                default=option.format(default[option.kwarg]),
            )
        if figure.jobs:
            _add_jobs_arg(command)
        if figure.simulated:
            _add_telemetry_args(command)
        command.set_defaults(fn=partial(cmd_figure, figure))

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
