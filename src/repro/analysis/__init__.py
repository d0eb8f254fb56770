"""Analysis tooling: result reporting helpers and the static linter.

Two halves share this package: the series/table helpers experiments and
benchmarks print with, and :mod:`repro.analysis.lint`, the four-rule
AST linter for simulation safety (run it as ``python -m repro.analysis``).
"""

from repro.analysis.series import ascii_sparkline, downsample, share_of_total
from repro.analysis.tables import format_table

__all__ = ["ascii_sparkline", "downsample", "format_table", "share_of_total"]
