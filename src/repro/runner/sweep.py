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
   telemetry is shipped back as a picklable payload -- the point's
   labelled snapshots and its spans -- and merged into the parent hub in
   index order too (see ``Telemetry.merge_payload``). The parent's
   registry stays empty: a point's values live only under its own run
   label, so no merged metric can mix points.

2. **Robustness.** A point that raises is captured with its traceback;
   a worker crash marks the affected points failed; surviving points
   still merge. Failed points are retried once *in the parent process*
   before being reported, so one bad seed cannot lose a 20-minute sweep.

A point is a module-level function plus its keyword arguments
(:class:`SweepPoint`); pickle sends the function by reference, so a
point travels to a worker without a name registry. A point's index is
its position in the list. Scheduling is chunked: points are split into
contiguous chunks (~4 chunks per worker) so pool IPC amortizes over many
short points.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.telemetry.hub import Telemetry


@dataclass(frozen=True)
class SweepPoint:
    """One independent job of an experiment grid: ``fn(**kwargs)``.

    ``fn`` must be a module-level function, because pickle sends it to
    a worker by reference; a lambda or a nested ``def`` is rejected here,
    so a bad point fails at construction for every ``jobs`` value.
    Everything the result depends on -- the workload seed included --
    is in ``kwargs``, never in global or run-order state, so the point
    produces the same result serially, in any worker, and in any order.
    The runner passes ``telemetry=`` on top of ``kwargs``.
    """

    fn: Callable[..., Any]
    kwargs: dict
    label: str = ""

    def __post_init__(self) -> None:
        module = sys.modules.get(getattr(self.fn, "__module__", None))
        qualname = getattr(self.fn, "__qualname__", repr(self.fn))
        if getattr(module, qualname, None) is not self.fn:
            raise TypeError(
                f"SweepPoint fn must be a module-level function, got {qualname!r}"
            )

    def display_label(self, index: int) -> str:
        return self.label or f"{self.fn.__name__}[{index}]"


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
    index: int, point: SweepPoint, template: Optional[Telemetry]
) -> PointResult:
    """Run one point with a fresh copy of ``template``; never raises."""
    from repro.sim.packet import reset_packet_ids

    # Packet ids are embedded in span payloads; restarting the counter
    # makes the payload a pure function of the point spec, so serial and
    # pooled execution merge to identical bytes.
    reset_packet_ids()
    started = time.perf_counter()
    label = point.display_label(index)
    try:
        telemetry = template.fresh() if template is not None else None
        if telemetry is not None:
            telemetry.begin_run(label)
        value = point.fn(**point.kwargs, telemetry=telemetry)
        return PointResult(
            index=index,
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
            index=index,
            label=label,
            ok=False,
            error=traceback.format_exc(),
            duration_s=time.perf_counter() - started,
        )


def _execute_chunk(
    chunk: Sequence[tuple[int, SweepPoint]], template: Optional[Telemetry]
) -> list[PointResult]:
    return [_execute_point(index, point, template) for index, point in chunk]


# -- the runner --------------------------------------------------------------


def default_jobs() -> int:
    return os.cpu_count() or 1


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    progress: bool = False,
) -> SweepResult:
    """Execute ``points`` and return results merged by point index.

    ``jobs=None`` uses ``os.cpu_count()``; ``jobs=1`` is the exact
    serial fallback (no pool, no pickling of results). A failed point is
    run once more in the parent process. ``progress`` prints one line
    per point to stderr, in collection order (index order).
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    indexed = list(enumerate(points))
    if not indexed:
        return SweepResult(points=[], jobs=jobs)

    template = telemetry.fresh() if telemetry is not None else None
    started = time.perf_counter()

    def note(pr: PointResult) -> None:
        if progress:
            print(
                f"[sweep] point #{pr.index} {pr.label}: "
                f"{'ok' if pr.ok else 'FAILED'} ({pr.duration_s:.1f}s)",
                file=sys.stderr,
            )

    if jobs == 1:
        collected = (_execute_point(i, p, template) for i, p in indexed)
    else:
        collected = _pool_pass(indexed, jobs, template)
    results: list[PointResult] = []
    for pr in collected:
        results.append(pr)
        note(pr)

    for index, pr in enumerate(results):
        if not pr.ok:
            retry = _execute_point(index, points[index], template)
            retry.retried = True
            retry.attempts = pr.attempts + 1
            if not retry.ok:
                retry.error = (
                    f"{retry.error}\n(earlier attempt failed with)\n{pr.error}"
                )
            results[index] = retry
            note(retry)

    if telemetry is not None:
        # Index order, never completion order: the merged artifact must
        # be byte-identical for every jobs value.
        for pr in results:
            if pr.ok and pr.telemetry is not None:
                telemetry.merge_payload(pr.telemetry)
    return SweepResult(
        points=results, jobs=jobs, elapsed_s=time.perf_counter() - started
    )


def _pool_pass(
    indexed: list[tuple[int, SweepPoint]],
    jobs: int,
    template: Optional[Telemetry],
):
    """Fan chunks out over a process pool; yield one result per point.

    Yields in chunk submission order (index order across chunks). A
    broken pool (hard worker crash) fails the affected chunks' points;
    the caller's retry pass re-runs them in the parent.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    chunk_size = max(1, -(-len(indexed) // (jobs * 4)))
    chunks = [
        indexed[i:i + chunk_size] for i in range(0, len(indexed), chunk_size)
    ]
    executor = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)))
    try:
        futures = [
            executor.submit(_execute_chunk, chunk, template) for chunk in chunks
        ]
        for chunk, future in zip(chunks, futures):
            try:
                yield from future.result()
            except BrokenProcessPool as exc:
                for index, point in chunk:
                    yield PointResult(
                        index=index,
                        label=point.display_label(index),
                        ok=False,
                        error=f"worker process died: {exc!r}",
                    )
    finally:
        executor.shutdown(cancel_futures=True)
