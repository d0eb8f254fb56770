"""Ablations for the design choices DESIGN.md calls out.

Not a paper figure -- these isolate the contribution of individual PARD
mechanisms: way-partition share, the extra high-priority row buffer,
and the statistics-window length that paces trigger reaction time.

Each ablation grid runs through ``repro.runner.sweep.run_sweep``, so
setting ``REPRO_BENCH_JOBS=4`` fans the points out over a process pool; the
default (1) keeps the exact serial behaviour and results are identical
either way.
"""

import os
from itertools import islice

from conftest import banner

from repro.analysis.tables import format_table
from repro.runner.sweep import SweepPoint, run_sweep
from repro.sim.rng import DeterministicRng
from repro.system.experiments import (
    ColocationSetup,
    fig11_addresses,
    fig11_arrivals,
    run_fig9,
    run_fig11_controller_point,
    saturation_rate,
)

JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")


def ablate_partition_share():
    """Fig. 8's mechanism at different dedicated shares."""
    shares = (0.25, 0.5)
    points = [
        SweepPoint(
            run_fig9,
            {
                "rps": 300_000,
                "setup": ColocationSetup(partition_share=share, warmup_ms=1.0),
                "total_ms": 4.0,
                "sample_ms": 0.5,
            },
            label=f"share={share}",
        )
        for share in shares
    ]
    sweep = run_sweep(points, jobs=JOBS)
    sweep.raise_on_failure()
    return [
        (share, timeline.miss_rates[-1], timeline.final_waymask)
        for share, timeline in zip(shares, sweep.values())
    ]


def ablate_hp_row_buffer():
    """Fig. 11's mechanism with and without the extra row buffer."""
    # Both points replay one stream: 4000 requests at 0.75 of the
    # saturation its first 2000 reach.
    rng = DeterministicRng(7, "fig11")
    addresses = list(islice(fig11_addresses(rng.child("addr"), 0.5), 4000))
    saturation = saturation_rate(addresses[:2000])
    arrivals = fig11_arrivals(rng.child("arrival"), 0.75 * saturation, 4000)
    flags = (False, True)
    points = [
        SweepPoint(
            run_fig11_controller_point,
            {
                "with_control_plane": True,
                "addresses": addresses,
                "arrivals": arrivals,
                "hp_row_buffer": hp_row_buffer,
            },
            label=f"hp_row_buffer={hp_row_buffer}",
        )
        for hp_row_buffer in flags
    ]
    sweep = run_sweep(points, jobs=JOBS)
    sweep.raise_on_failure()
    return [
        (hp_row_buffer, stats["mean"][1], stats["mean"][0])
        for hp_row_buffer, stats in zip(flags, sweep.values())
    ]


def ablate_window_length():
    """Trigger reaction time as a function of the statistics window."""
    windows = (0.5, 1.0, 2.0)
    points = [
        SweepPoint(
            run_fig9,
            {
                "rps": 300_000,
                "setup": ColocationSetup(
                    warmup_ms=1.0, control_window_ms=window_ms
                ),
                "total_ms": 6.0,
                "sample_ms": 0.5,
            },
            label=f"window={window_ms}ms",
        )
        for window_ms in windows
    ]
    sweep = run_sweep(points, jobs=JOBS)
    sweep.raise_on_failure()
    rows = []
    for window_ms, timeline in zip(windows, sweep.values()):
        reaction = (
            timeline.trigger_time_ms - timeline.stream_start_ms
            if timeline.trigger_time_ms is not None else float("inf")
        )
        rows.append((window_ms, reaction, timeline.final_waymask))
    return rows


def test_ablations(benchmark):
    def run_all():
        return {
            "partition": ablate_partition_share(),
            "rowbuf": ablate_hp_row_buffer(),
            "window": ablate_window_length(),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    banner("Ablation: dedicated LLC share after trigger")
    print(format_table(
        ["share", "final miss rate", "final waymask"],
        [[f"{s * 100:.0f}%", f"{m * 100:.2f}%", hex(w)] for s, m, w in results["partition"]],
    ))
    banner("Ablation: extra high-priority row buffer (util 0.75)")
    print(format_table(
        ["hp row buffer", "high-pri delay (cyc)", "low-pri delay (cyc)"],
        [[str(on), f"{h:.1f}", f"{l:.1f}"] for on, h, l in results["rowbuf"]],
    ))
    banner("Ablation: statistics window vs trigger reaction time")
    print(format_table(
        ["window (ms)", "reaction (ms)", "final waymask"],
        [[w, f"{r:.2f}", hex(m)] for w, r, m in results["window"]],
    ))

    # The finding: a 50% share holds the working set and recovers the
    # miss rate; a 25% share (128KB < the 224KB working set) cannot.
    shares = {share: miss for share, miss, _mask in results["partition"]}
    assert shares[0.5] < 0.1
    assert shares[0.25] > shares[0.5]
    for _share, _miss, mask in results["partition"]:
        assert mask != (1 << 16) - 1  # both fired and repartitioned
    # The row buffer helps the high-priority class.
    (off_high, _off_low) = results["rowbuf"][0][1], results["rowbuf"][0][2]
    (on_high, _on_low) = results["rowbuf"][1][1], results["rowbuf"][1][2]
    assert on_high <= off_high
    # Reaction time grows with the window (coarser windows react later).
    reactions = [r for _w, r, _m in results["window"]]
    assert all(r != float("inf") for r in reactions)
    assert reactions[0] <= reactions[-1] + 0.5
