"""Figs. 7-11 (§7): run each figure record's grid, print it, check its claims.

The records live in :mod:`repro.system.figures`. The default run takes a
record's ``claims`` grid if it has one, else its ``default`` grid;
``REPRO_BENCH_FULL=1`` runs ``paper``, the grids EXPERIMENTS.md reports.
"""

import pytest
from conftest import banner, full_resolution

from repro.system.figures import FIGURES

CLAIMED = [name for name, figure in FIGURES.items() if figure.claims is not None]


@pytest.mark.parametrize("name", CLAIMED)
def test_figure_claims(benchmark, name):
    figure = FIGURES[name]
    grids = figure.grids
    grid = grids["paper"] if full_resolution() else grids.get("claims", grids["default"])
    result = benchmark.pedantic(figure.driver, kwargs=grid, rounds=1, iterations=1)

    banner(f"{name}: {figure.help}")
    figure.render(result)
    figure.claims(result, grid)
