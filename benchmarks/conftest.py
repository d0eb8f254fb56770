"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (§7): it runs the corresponding experiment, prints the
rows/series the paper reports (run pytest with ``-s`` to see them), and
asserts the qualitative shape -- who wins, by roughly what factor --
so the harness doubles as a reproduction check.

Set ``REPRO_BENCH_FULL=1`` for the full-resolution sweeps (more load
points, longer simulated windows); the default configuration keeps the
whole harness to a few minutes.
"""

from __future__ import annotations

import os

import pytest

# The figure claims are plain asserts in the figure records; rewrite them
# so a failing claim reports the values it compared.
pytest.register_assert_rewrite("repro.system.figures")


def full_resolution() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
