"""The paper's experiment grids as data: lists of :class:`SweepPoint`.

Each point names a driver from :mod:`repro.system.experiments` and the
keyword arguments of one run; :func:`repro.runner.run_sweep` executes
the list. Setups travel as :class:`ColocationSetup` objects and the
workload seed is one of the kwargs, so a point's result depends on
nothing but its spec, at any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.sweep import SweepPoint
from repro.system.experiments import (
    FIG8_DEFAULT_LOADS,
    ColocationSetup,
    run_colocation_point,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig11_controller_point,
)


def fig8_points(
    loads_rps: Optional[list[float]] = None,
    modes: tuple[str, ...] = ("solo", "shared", "trigger"),
    setup: Optional[ColocationSetup] = None,
    measure_ms: float = 2.5,
) -> list[SweepPoint]:
    """The Fig. 8 mode x load grid, one point per (mode, load)."""
    setup = setup or ColocationSetup()
    return [
        SweepPoint(
            run_colocation_point,
            {"mode": mode, "rps": rps, "setup": setup,
             "measure_ms": measure_ms, "seed": setup.seed},
            label=f"{mode}@{rps:g}rps",
        )
        for mode in modes
        for rps in loads_rps or FIG8_DEFAULT_LOADS
    ]


def fig11_points(
    rate_req_per_cycle: float,
    num_requests: int,
    seed: int,
    row_hit_fraction: float,
    hp_row_buffer: bool,
) -> list[SweepPoint]:
    """Fig. 11's baseline controller and PARD controller at one rate."""
    common = {
        "rate_req_per_cycle": rate_req_per_cycle,
        "num_requests": num_requests,
        "seed": seed,
        "row_hit_fraction": row_hit_fraction,
    }
    return [
        SweepPoint(
            run_fig11_controller_point,
            {**common, "with_control_plane": False, "hp_row_buffer": False},
            label="fig11-baseline",
        ),
        SweepPoint(
            run_fig11_controller_point,
            {**common, "with_control_plane": True,
             "hp_row_buffer": hp_row_buffer},
            label="fig11-pard",
        ),
    ]


def all_points() -> list[SweepPoint]:
    """The ``repro all`` grid: fig7, the Fig. 8 grid, fig9, fig10, fig11.

    Fig. 11 is one point that runs its controller pair serially inside
    the worker.
    """
    return [
        SweepPoint(run_fig7, {"phase_ms": 1.0}, label="fig7"),
        *fig8_points(measure_ms=2.0),
        SweepPoint(run_fig9, {"rps": 300_000, "total_ms": 5.0}, label="fig9"),
        SweepPoint(run_fig10, {"phase_ms": 160.0}, label="fig10"),
        SweepPoint(
            run_fig11,
            {"inject_rate": 0.75, "num_requests": 6000, "seed": 7, "jobs": 1},
            label="fig11",
        ),
    ]
