"""The paper's experiment grids as data: lists of :class:`SweepPoint`.

Each point names a driver from :mod:`repro.system.experiments` and the
keyword arguments of one run; :func:`repro.runner.sweep.run_sweep`
executes the list. Setups travel as :class:`ColocationSetup` objects and the
workload seed is one of the kwargs, so a point's result depends on
nothing but its spec, at any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.sweep import SweepPoint
from repro.system.experiments import (
    ColocationSetup,
    run_colocation_point,
    run_fig11_controller_point,
)


def fig8_points(
    loads_rps: list[float],
    modes: tuple[str, ...] = ("solo", "shared", "trigger"),
    setup: Optional[ColocationSetup] = None,
    measure_ms: float = 2.0,
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
        for rps in loads_rps
    ]


def fig11_points(
    addresses: list[int], arrivals: list[int], hp_row_buffer: bool
) -> list[SweepPoint]:
    """Fig. 11's baseline and PARD controllers, replaying one request stream."""
    common = {"addresses": addresses, "arrivals": arrivals}
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
    """The ``repro all`` grid: every figure record's ``default`` grid, in
    record order (Table 2 and Fig. 12 run in-process and add no point)."""
    from repro.system.figures import FIGURES  # late: it imports this module

    return [point for figure in FIGURES.values() for point in figure.points()]
