"""Stock sweep-point builders: one per experiment driver.

Each builder reconstructs an experiment from a :class:`SweepPoint`'s
picklable params -- dataclass setups travel as ``asdict`` dicts -- runs
it with a worker-local telemetry hub, and returns a picklable value
(result dataclasses of plain floats/lists, or plain dicts). Builders
must never consult global state: everything a point needs is in its
spec, which is what makes results identical at any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Optional

from repro.runner.registry import register_builder
from repro.system.experiments import (
    ColocationSetup,
    run_colocation_point,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig11_controller_point,
)


def _setup_from(params: dict) -> Optional[ColocationSetup]:
    raw = params.get("setup")
    return ColocationSetup(**raw) if raw is not None else None


@register_builder("colocation_point")
def build_colocation_point(point, telemetry):
    """One (mode, load) point of the Fig. 8 grid."""
    params = point.params
    return run_colocation_point(
        params["mode"],
        params["rps"],
        setup=_setup_from(params),
        measure_ms=params.get("measure_ms", 2.5),
        telemetry=telemetry,
        seed=point.seed,
    )


@register_builder("fig7")
def build_fig7(point, telemetry):
    params = point.params
    return run_fig7(
        setup=_setup_from(params),
        phase_ms=params.get("phase_ms", 1.0),
        sample_ms=params.get("sample_ms", 0.25),
        telemetry=telemetry,
    )


@register_builder("fig9")
def build_fig9(point, telemetry):
    params = point.params
    return run_fig9(
        rps=params.get("rps", 300_000),
        setup=_setup_from(params),
        stream_delay_ms=params.get("stream_delay_ms", 1.0),
        total_ms=params.get("total_ms", 5.0),
        sample_ms=params.get("sample_ms", 0.25),
        telemetry=telemetry,
    )


@register_builder("fig10")
def build_fig10(point, telemetry):
    params = point.params
    return run_fig10(
        setup=_setup_from(params),
        phase_ms=params.get("phase_ms", 200.0),
        sample_ms=params.get("sample_ms", 20.0),
        block_bytes=params.get("block_bytes", 4 << 20),
        telemetry=telemetry,
    )


@register_builder("fig11")
def build_fig11(point, telemetry):
    """The whole Fig. 11 comparison as one job (serial inside the worker)."""
    params = point.params
    return run_fig11(
        inject_rate=params.get("inject_rate", 0.75),
        num_requests=params.get("num_requests", 6000),
        seed=point.seed or params.get("seed", 7),
        row_hit_fraction=params.get("row_hit_fraction", 0.5),
        hp_row_buffer=params.get("hp_row_buffer", False),
        telemetry=telemetry,
        jobs=1,
    )


@register_builder("fig11_controller")
def build_fig11_controller(point, telemetry):
    """One Fig. 11 controller configuration at a precomputed inject rate."""
    params = point.params
    return run_fig11_controller_point(
        with_control_plane=params["with_control_plane"],
        rate_req_per_cycle=params["rate_req_per_cycle"],
        num_requests=params["num_requests"],
        seed=point.seed,
        row_hit_fraction=params["row_hit_fraction"],
        hp_row_buffer=params["hp_row_buffer"],
        telemetry=telemetry,
    )
