"""The figure records are the only source of each figure's grids."""

import inspect

import pytest

from repro.cli import build_parser
from repro.runner.builders import all_points
from repro.system.figures import FIGURES


@pytest.mark.parametrize("name", list(FIGURES))
def test_cli_defaults_are_the_default_grid(name):
    figure = FIGURES[name]
    default = figure.grids["default"]
    args = build_parser().parse_args([name])
    for option in figure.options:
        assert option.parse(getattr(args, option.dest)) == default[option.kwarg]


def test_repro_all_runs_the_default_grids():
    kwargs = {point.label: dict(point.kwargs) for point in all_points()}
    for name in ("fig7", "fig9", "fig10", "fig11"):
        kwargs[name].pop("jobs", None)
        assert kwargs[name] == FIGURES[name].grids["default"]
    fig8 = FIGURES["fig8"].grids["default"]
    points = [k for label, k in kwargs.items() if "@" in label]
    assert len(points) == 3 * len(fig8["loads_rps"])
    assert sorted({k["rps"] for k in points}) == fig8["loads_rps"]
    assert {k["measure_ms"] for k in points} == {fig8["measure_ms"]}


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_grid_fits_its_driver(name):
    """Each grid binds to the driver, and a driver default the ``default``
    grid also sets agrees with it."""
    figure = FIGURES[name]
    signature = inspect.signature(figure.driver)
    for grid in figure.grids.values():
        signature.bind(**grid)
    for key, value in figure.grids["default"].items():
        driver_default = signature.parameters[key].default
        if driver_default is not inspect.Parameter.empty:
            assert driver_default == value, key
