"""The sweep runner: process-pool fan-out with a deterministic merge.

The paper's evaluation is dominated by *grids* of independent
simulations -- Fig. 8 is modes x offered loads, Fig. 11 compares
controller configurations, ``repro all`` chains every figure -- and each
grid point builds its own engine, server and RNGs from an explicit seed.
That makes a sweep embarrassingly parallel, provided two contracts hold:

1. **Determinism.** Results are merged *by point index*, never by
   completion order, so a sweep's output is byte-identical between
   ``jobs=1`` (the exact serial fallback: no pool, points executed
   in index order in the calling process) and any ``jobs=N``. Worker
   telemetry is shipped back as a picklable payload and merged into the
   parent hub in index order too (see ``Telemetry.merge_payload``).

2. **Robustness.** A point that raises is captured with its traceback;
   a worker crash or a chunk timeout marks the affected points failed;
   surviving points still merge. Failed (non-timed-out) points are
   retried once *in the parent process* before being reported, so one
   bad seed cannot lose a 20-minute sweep. Timed-out points are not
   retried in the parent -- a hang would stall the whole sweep with no
   way to preempt it.

Points travel as picklable specs (:class:`SweepPoint`: builder name +
params + seed), resolved in the worker via :mod:`repro.runner.registry`.
Scheduling is chunked: points are split into contiguous chunks (default
~4 chunks per worker) so pool IPC amortizes over many short points.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.runner.registry import resolve_builder
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable recipe for building one worker-local Telemetry hub."""

    span_sample: int = 100
    span_capacity: int = 10_000
    snapshot_period_ms: float = 1.0

    @classmethod
    def from_hub(cls, hub: Telemetry) -> "TelemetryConfig":
        return cls(
            span_sample=hub.spans.sample_every,
            span_capacity=hub.spans.capacity,
            snapshot_period_ms=hub.snapshot_period_ms,
        )

    def build(self) -> Telemetry:
        return Telemetry(
            span_sample=self.span_sample,
            span_capacity=self.span_capacity,
            snapshot_period_ms=self.snapshot_period_ms,
        )


@dataclass(frozen=True)
class SweepPoint:
    """One independent job of an experiment grid (picklable spec).

    ``seed`` is the point's *explicit* workload seed: every RNG the
    point's builder creates must derive from it (or from other spec
    fields), never from global or run-order state, so the point produces
    the same result serially, in any worker, and in any order.
    """

    index: int
    builder: str
    params: dict
    seed: int = 0
    label: str = ""

    def display_label(self) -> str:
        return self.label or f"{self.builder}[{self.index}]"


@dataclass
class PointResult:
    """Outcome of one sweep point (always present, even on failure)."""

    index: int
    label: str
    ok: bool
    value: Any = None
    error: Optional[str] = None  # traceback / reason text when not ok
    attempts: int = 1
    retried: bool = False
    timed_out: bool = False
    duration_s: float = 0.0
    telemetry: Optional[dict] = None  # worker hub payload (ok points only)


class SweepError(RuntimeError):
    """Raised by :meth:`SweepResult.raise_on_failure`; carries the result."""

    def __init__(self, result: "SweepResult"):
        self.result = result
        failed = result.failed
        lines = [f"{len(failed)}/{len(result.points)} sweep points failed:"]
        for pr in failed:
            reason = (pr.error or "unknown error").strip().splitlines()[-1]
            lines.append(f"  #{pr.index} {pr.label}: {reason}")
        super().__init__("\n".join(lines))


@dataclass
class SweepResult:
    """All point results, ordered by point index (the merge order)."""

    points: list[PointResult]
    jobs: int
    elapsed_s: float = 0.0

    @property
    def failed(self) -> list[PointResult]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def values(self) -> list[Any]:
        """Values of successful points, in index order."""
        return [p.value for p in self.points if p.ok]

    def raise_on_failure(self) -> "SweepResult":
        if not self.ok:
            raise SweepError(self)
        return self


# -- point / chunk execution (runs in workers and in the parent) ------------


def _execute_point(
    point: SweepPoint, tconf: Optional[TelemetryConfig]
) -> PointResult:
    """Run one point with a fresh telemetry hub; never raises."""
    from repro.sim.packet import reset_packet_ids

    # Packet ids are embedded in span payloads; restarting the counter
    # makes the payload a pure function of the point spec, so serial and
    # pooled execution merge to identical bytes.
    reset_packet_ids()
    started = time.perf_counter()
    label = point.display_label()
    try:
        builder = resolve_builder(point.builder)
        telemetry = tconf.build() if tconf is not None else None
        if telemetry is not None:
            telemetry.begin_run(label)
        value = builder(point, telemetry)
        return PointResult(
            index=point.index,
            label=label,
            ok=True,
            value=value,
            duration_s=time.perf_counter() - started,
            telemetry=telemetry.dump_payload() if telemetry is not None else None,
        )
    except BaseException:  # simlint: disable=EXC001 -- see below
        # KeyboardInterrupt in a worker should surface as a failed point,
        # not tear down the pool protocol mid-message.
        return PointResult(
            index=point.index,
            label=label,
            ok=False,
            error=traceback.format_exc(),
            duration_s=time.perf_counter() - started,
        )


def _execute_chunk(
    chunk: Sequence[SweepPoint], tconf: Optional[TelemetryConfig]
) -> list[PointResult]:
    return [_execute_point(point, tconf) for point in chunk]


# -- the runner --------------------------------------------------------------


def default_jobs() -> int:
    return os.cpu_count() or 1


def _validate_points(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    ordered = sorted(points, key=lambda p: p.index)
    seen: set[int] = set()
    for p in ordered:
        if p.index in seen:
            raise ValueError(f"duplicate sweep point index {p.index}")
        seen.add(p.index)
    return ordered


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    chunk_size: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: bool = False,
    on_result: Optional[Callable[[PointResult], None]] = None,
) -> SweepResult:
    """Execute ``points`` and return results merged by point index.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` is the exact
    serial fallback (no pool, no pickling of results). ``timeout_s`` is
    a per-point budget; a chunk gets ``timeout_s * len(chunk)`` and its
    uncollected points are marked timed out when it expires. ``retries``
    failed (non-timed-out) points are re-run in the parent process.
    ``on_result`` is invoked once per point in collection order (chunk
    submission order -- deterministic, not completion order).
    """
    ordered = _validate_points(points)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not ordered:
        return SweepResult(points=[], jobs=jobs)

    hub = telemetry if (telemetry is not None and telemetry.enabled) else None
    tconf = TelemetryConfig.from_hub(hub) if hub is not None else None
    started = time.perf_counter()

    def note(pr: PointResult) -> None:
        if progress:
            state = "ok" if pr.ok else ("timeout" if pr.timed_out else "FAILED")
            print(
                f"[sweep] point #{pr.index} {pr.label}: {state} "
                f"({pr.duration_s:.1f}s)",
                file=sys.stderr,
            )
        if on_result is not None:
            on_result(pr)

    results: dict[int, PointResult] = {}
    if jobs == 1:
        for point in ordered:
            pr = _execute_point(point, tconf)
            results[point.index] = pr
            note(pr)
    else:
        for pr in _pool_pass(ordered, jobs, tconf, chunk_size, timeout_s):
            results[pr.index] = pr
            note(pr)

    # In-parent retry of failed points (never timed-out ones: a hang
    # would stall the sweep with no way to preempt the parent).
    by_index = {p.index: p for p in ordered}
    for index in sorted(results):
        pr = results[index]
        budget = retries
        while not pr.ok and not pr.timed_out and budget > 0:
            budget -= 1
            prior = pr
            pr = _execute_point(by_index[index], tconf)
            pr.retried = True
            pr.attempts = prior.attempts + 1
            if not pr.ok:
                pr.error = (
                    f"{pr.error}\n(earlier attempt failed with)\n{prior.error}"
                )
            results[index] = pr
            note(pr)

    merged = [results[p.index] for p in ordered]
    if hub is not None:
        # Index order, never completion order: the merged artifact must
        # be byte-identical for every jobs value.
        for pr in merged:
            if pr.ok and pr.telemetry is not None:
                hub.merge_payload(pr.telemetry)
    return SweepResult(
        points=merged, jobs=jobs, elapsed_s=time.perf_counter() - started
    )


def _pool_pass(
    ordered: list[SweepPoint],
    jobs: int,
    tconf: Optional[TelemetryConfig],
    chunk_size: Optional[int],
    timeout_s: Optional[float],
):
    """Fan chunks out over a process pool; yield one result per point.

    Yields in chunk submission order (index order across chunks). A
    broken pool (hard worker crash) fails the affected chunks' points;
    the caller's retry pass re-runs them in the parent.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    if chunk_size is None:
        chunk_size = max(1, -(-len(ordered) // (jobs * 4)))
    chunks = [
        ordered[i:i + chunk_size] for i in range(0, len(ordered), chunk_size)
    ]
    executor = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)))
    clean = True
    try:
        futures = [
            executor.submit(_execute_chunk, chunk, tconf) for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            budget = None if timeout_s is None else timeout_s * len(chunk)
            try:
                for pr in future.result(timeout=budget):
                    yield pr
            except FuturesTimeoutError:
                future.cancel()
                clean = False
                for point in chunk:
                    yield PointResult(
                        index=point.index,
                        label=point.display_label(),
                        ok=False,
                        timed_out=True,
                        error=(
                            f"timed out after {budget:.1f}s "
                            f"({timeout_s:.1f}s/point x {len(chunk)} points)"
                        ),
                    )
            except BrokenProcessPool as exc:
                clean = False
                for point in chunk:
                    yield PointResult(
                        index=point.index,
                        label=point.display_label(),
                        ok=False,
                        error=f"worker process died: {exc!r}",
                    )
    finally:
        # After a timeout/crash don't block on stragglers; the leaked
        # worker exits when its current point finishes.
        executor.shutdown(wait=clean, cancel_futures=True)
