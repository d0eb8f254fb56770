"""Analysis tooling: result reporting helpers and the static linter.

Two halves share this package: the series/table helpers experiments and
benchmarks print with, and :mod:`repro.analysis.lint`, the four-rule
AST linter for simulation safety (run it as ``python -m repro.analysis``).
"""
