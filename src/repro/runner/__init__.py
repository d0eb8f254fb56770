"""repro.runner: parallel sweep execution for experiment grids.

Expresses a grid as independent :class:`~repro.runner.sweep.SweepPoint`
jobs (a module-level function plus its keyword arguments), fans them out
over a process pool, and merges results -- values, labelled metric
snapshots, spans -- deterministically by point index, so ``--jobs N``
output is byte-identical to serial. The paper's grids are built in
:mod:`repro.runner.builders`. See DESIGN.md ("Parallel sweep execution").
"""
