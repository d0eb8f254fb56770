"""``python -m repro.analysis [paths...]``: run the simulation-safety linter.

With no paths it lints ``src/repro``, ``tests`` and ``benchmarks``; it
exits 1 if any finding is not covered by a ``# simlint: disable``
comment. See :mod:`repro.analysis.lint`.
"""

import sys

from repro.analysis.lint import main

sys.exit(main())
