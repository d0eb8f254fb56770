"""End-to-end benchmark of the PARD simulator on three figure workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload fig8-trigger --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seconds 10

``--trace 0`` times repeated untraced runs of the workload (telemetry
off, ``jobs=1``) and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced runs with runs traced by
``layertrace.LayerTrace`` and reports the per-layer metrics. Every run's
simulated result is digested and checked; the last line printed is one
JSON object, and the exit code is nonzero when any check fails. The
workloads and metrics are described in e2ebench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e2ebench: no simulator sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import repro.runner.builders  # noqa: E402,F401  (imported lazily by the drivers)
import repro.runner.sweep  # noqa: E402,F401
from layertrace import LayerTrace  # noqa: E402
from repro.sim.engine import Engine, PS_PER_US  # noqa: E402
from repro.system.experiments import (  # noqa: E402
    ColocationSetup,
    run_colocation_point,
    run_fig11,
)

DEFAULT_SEED = 1
FIG8_RPS = 444_000  # paper 20 KRPS
MIN_REPS = 3
# Set-up alone is sampled between runs, within this share of the run time.
SETUP_SHARE = 0.1
SETUP_SAMPLES_PER_REP = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int], object]  # seed -> the driver's result dataclass
    check: Callable[[object], Optional[str]]  # result -> problem, or None
    working_set: str  # the HostSpeed loop that slows like this workload


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks them for the tests."""
    # 0.5 ms of simulated time: the first 0.25 ms warm the caches and
    # close the first control window (where the miss-rate trigger
    # fires), the second 0.25 ms is the measured window. Short runs let
    # one invocation take the median of many.
    span_ms = 0.05 if tiny else 0.25
    setup = ColocationSetup(warmup_ms=span_ms, control_window_ms=span_ms)
    requests = 600 if tiny else 6000

    def colocation(mode: str) -> Callable[[int], object]:
        return lambda seed: run_colocation_point(
            mode, FIG8_RPS, setup=setup, measure_ms=span_ms, seed=seed
        )

    table = [
        Workload("fig8-trigger", colocation("trigger"), _check_trigger, "large"),
        Workload("fig8-solo", colocation("solo"), _check_solo, "large"),
        Workload(
            "fig11-dram",
            lambda seed: run_fig11(
                inject_rate=0.75, num_requests=requests, seed=seed, jobs=1
            ),
            _check_fig11,
            "small",
        ),
    ]
    return {w.name: w for w in table}


def _check_colocation(result) -> Optional[str]:
    if not result.throughput_rps > 0 or not result.p95_ms > 0:
        return f"memcached served nothing: {result}"
    return None


def _check_trigger(result) -> Optional[str]:
    if not result.trigger_fired:
        return "the LLC miss-rate trigger never fired"
    return _check_colocation(result)


def _check_solo(result) -> Optional[str]:
    if result.trigger_fired:
        return "a trigger fired in solo mode"
    return _check_colocation(result)


def _check_fig11(result) -> Optional[str]:
    if not 0 < result.high_priority_mean_cycles < result.baseline_mean_cycles:
        return (
            f"high priority ({result.high_priority_mean_cycles:.2f} cycles) "
            f"not faster than baseline ({result.baseline_mean_cycles:.2f})"
        )
    for cdf in (result.baseline_cdf, result.high_cdf, result.low_cdf):
        fractions = [frac for _x, frac in cdf]
        if fractions != sorted(fractions) or not 0 < fractions[-1] <= 1:
            return f"malformed queueing-delay CDF {cdf}"
    return None


def digest(result) -> str:
    """sha256 of the simulated result's fields (floats at full precision)."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- host speed -----------------------------------------------------------------


class _Slot:
    __slots__ = ("tag", "hits")

    def __init__(self, tag: int):
        self.tag = tag
        self.hits = 0


class HostSpeed:
    """Times a fixed pure-Python loop that never touches ``repro``.

    A host whose cores are shared can run everything up to ~60% slower
    for minutes at a time. The loop does the simulator's kind of work --
    slotted objects, dict lookups, heap operations, closures -- so it
    slows by about the same factor, while a change to the simulator
    cannot change it. How much a run slows depends on its working set,
    so there are two loops: ``"large"`` scans several MB, like the
    simulated caches of the fig8 machine; ``"small"`` stays in the
    core's own caches, like the fig11 controller. Each one tracked its
    workloads' slowdowns to ~3% and the other's to only 7-11%.
    """

    # Each loop's time between runs on an idle 2-vCPU host (Python 3.11):
    # the speed that reported host times are scaled to.
    REFERENCE_S = {"large": 0.08, "small": 0.035}

    def __init__(self, working_set: str):
        self.reference_s = self.REFERENCE_S[working_set]
        self._loop = getattr(self, f"_{working_set}_loop")
        if working_set == "large":
            self._table = {key: _Slot(key) for key in range(1 << 16)}
            self._rows = [[_Slot(way) for way in range(16)] for _ in range(1 << 12)]

    def calibration_s(self) -> float:
        """Host seconds for one pass of the loop."""
        start = time.perf_counter()
        self._loop()
        return time.perf_counter() - start

    def scale(self, *calibrations: float) -> float:
        """Factor that turns host seconds measured next to ``calibrations``
        into seconds at the reference host speed."""
        return self.reference_s / statistics.mean(calibrations)

    def _large_loop(self) -> int:
        table, rows = self._table, self._rows
        heap: list = []
        total = 0
        for i in range(30_000):
            key = (i * 2654435761) % 65536
            table[key].hits += 1
            for slot in rows[(i * 40503) & 4095]:
                if slot.tag == 99:
                    break
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            if len(heap) > 64:
                total += heapq.heappop(heap)[1]
            total += (lambda x, k=key: x + k)(i)
        return total

    def _small_loop(self) -> int:
        heap: list = []
        table: dict = {}
        total = 0
        for i in range(30_000):
            key = (i * 2654435761) % 8192
            slot = table.get(key)
            if slot is None:
                slot = table[key] = _Slot(key)
            slot.hits += 1
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            if len(heap) > 64:
                total += heapq.heappop(heap)[1]
            total += (lambda x, k=key: x + k)(i)
        return total


# -- one run ------------------------------------------------------------------


class _StopAtFirstRun(Exception):
    """Ends a set-up-only sample at the first engine run."""


@contextmanager
def _engine_runs(stop: bool = False):
    """Record (engine, start time) of every ``Engine.run`` call in the block.

    A class-level wrapper, so it costs one extra call per ``run`` -- a
    handful per workload -- and nothing per event.
    """
    runs: list = []
    original = Engine.__dict__["run"]

    def run(engine, until_ps=None):
        runs.append((engine, time.perf_counter()))
        if stop:
            raise _StopAtFirstRun
        return original(engine, until_ps)

    Engine.run = run
    try:
        yield runs
    finally:
        Engine.run = original


@dataclasses.dataclass
class Rep:
    result: object
    setup_s: float  # driver call until the first engine run
    wall_s: float  # first engine run until the driver returns
    sim_us: float  # simulated time advanced, summed over the engines

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s


def timed_rep(workload: Workload, seed: int) -> Rep:
    gc.collect()
    with _engine_runs() as runs:
        start = time.perf_counter()
        result = workload.run(seed)
        end = time.perf_counter()
    first_run = runs[0][1]
    engines = {id(engine): engine for engine, _ in runs}.values()
    return Rep(
        result=result,
        setup_s=first_run - start,
        wall_s=end - first_run,
        sim_us=sum(engine.now for engine in engines) / PS_PER_US,
    )


def setup_sample(workload: Workload, seed: int) -> float:
    with _engine_runs(stop=True) as runs:
        start = time.perf_counter()
        try:
            workload.run(seed)
        except _StopAtFirstRun:
            pass
        else:
            raise RuntimeError(f"{workload.name} never ran the engine")
    return runs[0][1] - start


def traced_rep(workload: Workload, seed: int) -> tuple[object, LayerTrace, float]:
    gc.collect()
    trace = LayerTrace()
    with trace.attached():
        start = time.perf_counter()
        result = trace.span("system", workload.run, seed)
        wall_s = time.perf_counter() - start
    return result, trace, wall_s


# -- one measurement ---------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    values: dict = dataclasses.field(default_factory=dict)
    samples: dict = dataclasses.field(default_factory=dict)  # metric -> count

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


class _Judge:
    """Checks each run's result against the reference or the first run."""

    def __init__(self, workload: Workload, seed: int, outcome: Outcome):
        self.workload = workload
        self.outcome = outcome
        self.expected = reference_digest(workload.name, seed)

    def judge(self, result, extra: Optional[list] = None) -> None:
        outcome = self.outcome
        outcome.attempted += 1
        problems = list(extra or [])
        problem = self.workload.check(result)
        if problem:
            problems.append(problem)
        got = digest(result)
        if self.expected is None:
            self.expected = got  # every later run must reproduce the first
        elif got != self.expected:
            problems.append(f"result digest {got[:16]} != expected {self.expected[:16]}")
        if problems:
            outcome.failed += 1
            outcome.problems.extend(problems)

    def crashed(self) -> None:
        self.outcome.attempted += 1
        self.outcome.failed += 1
        self.outcome.problems.append(traceback.format_exc())


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    judge = _Judge(workload, seed, outcome)
    (_measure_traced if trace else _measure_untraced)(workload, seed, seconds, judge)
    return outcome


def _measure_untraced(workload, seed, seconds, judge) -> None:
    outcome = judge.outcome
    walls: list[float] = []  # at the reference host speed, as are setups
    setups: list[float] = []
    rates: list[float] = []
    setup_spent = 0.0
    host = HostSpeed(workload.working_set)
    start = time.perf_counter()
    calibration = host.calibration_s()
    while outcome.attempted < MIN_REPS or time.perf_counter() - start < seconds:
        gc.collect()
        for _ in range(SETUP_SAMPLES_PER_REP):
            if setup_spent > SETUP_SHARE * (time.perf_counter() - start):
                break
            sample_start = time.perf_counter()
            try:
                setups.append(setup_sample(workload, seed) * host.scale(calibration))
            except Exception:
                judge.crashed()
            setup_spent += time.perf_counter() - sample_start
        try:
            rep = timed_rep(workload, seed)
        except Exception:
            judge.crashed()
            continue
        judge.judge(rep.result)
        previous, calibration = calibration, host.calibration_s()
        scale = host.scale(previous, calibration)
        walls.append(rep.wall_s * scale)
        setups.append(rep.setup_s * scale)
        rates.append(rep.sim_us / walls[-1])
    if not walls:
        return
    outcome.values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "sim_us_per_wall_s": statistics.median(rates),
        # ru_maxrss is in KiB on Linux: the process peak over these runs.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outcome.samples = {
        "wall_s": len(walls), "setup_s": len(setups),
        "sim_us_per_wall_s": len(rates), "peak_rss_mb": 1,
    }


def _measure_traced(workload, seed, seconds, judge) -> None:
    outcome = judge.outcome
    untraced_s: list[float] = []
    traced_s: list[float] = []
    per_rep: list[dict] = []
    start = time.perf_counter()
    while outcome.attempted < 2 or time.perf_counter() - start < seconds:
        try:
            rep = timed_rep(workload, seed)
        except Exception:
            judge.crashed()
            continue
        judge.judge(rep.result)
        untraced_s.append(rep.total_s)
        try:
            result, trace, wall_s = traced_rep(workload, seed)
        except Exception:
            judge.crashed()
            continue
        judge.judge(result, trace.count_mismatches())
        values = trace.metrics()
        attributed = sum(trace.self_s.values())
        values["trace.unattributed_frac"] = (wall_s - attributed) / wall_s
        per_rep.append(values)
        traced_s.append(wall_s)
    if not per_rep:
        return
    outcome.values = {
        name: statistics.median(values[name] for values in per_rep)
        for name in per_rep[0]
    }
    outcome.values["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1
    )
    outcome.samples = dict.fromkeys(outcome.values, len(per_rep))


# -- references and reporting -------------------------------------------------------


def reference_digest(name: str, seed: int) -> Optional[str]:
    if not REFERENCE.is_file():
        return None
    reference = json.loads(REFERENCE.read_text())
    if reference["seed"] != seed:
        return None
    return reference["digests"][name]


def write_reference(table: dict[str, Workload], seed: int) -> None:
    digests = {}
    for name, workload in table.items():
        result = workload.run(seed)
        problem = workload.check(result)
        if problem:
            raise SystemExit(f"{name}: {problem}")
        digests[name] = digest(result)
        print(f"{name}: {digests[name]} {result}")
    REFERENCE.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n")


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(name: str, seed: int, outcome: Outcome, trace: bool, out=sys.stdout) -> None:
    mode = "traced" if trace else "untraced"
    print(
        f"{name} seed={seed} {mode}: {outcome.attempted} runs, "
        f"{outcome.failed} failed", file=out,
    )
    for problem in outcome.problems[:5]:
        print(f"  FAILED: {problem.strip()}", file=out)
    metrics = {}
    if outcome.values:
        for metric in declared_metrics(trace):
            value = outcome.values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(
                f"  {metric['name']:<27} {value:>14.6g} {metric['unit']:<9} "
                f"median of {outcome.samples[metric['name']]}", file=out,
            )
    record = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(record), file=out, flush=True)


def main(argv=None, table: Optional[dict[str, Workload]] = None, out=sys.stdout) -> int:
    table = workloads() if table is None else table
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*table, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the result digests of --seed in e2ebench/reference.json",
    )
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(table, args.seed)
        return 0
    names = list(table) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        outcome = measure(table[name], args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, outcome, bool(args.trace), out=out)
        all_correct = all_correct and outcome.correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
