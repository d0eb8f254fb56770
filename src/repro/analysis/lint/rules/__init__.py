"""The initial rule pack. Importing this package registers every rule.

Modules group rules by hazard family: determinism (DET), event-model
(EVT), telemetry (TEL) and exception hygiene (EXC).
"""

from repro.analysis.lint.rules import (  # noqa: F401
    determinism,
    event_model,
    exceptions,
    telemetry,
)
