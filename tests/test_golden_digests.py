"""Pinned sha256 digests of every figure's result object (Figs. 7-11).

The determinism suite only proves self-consistency (same seed twice,
calendar == heapq, ``--jobs 1`` == ``--jobs N``). These digests pin what
the numbers *are*: a refactor that shifts any figure by one event fails
here. Each digest is ``sha256(repr(result))`` of a reduced run at the
``TINY`` colocation scale, checked into ``tests/golden/digests.json``.

The fig8 grids and the full-system colocation are pinned where the
determinism suite already computes them (``test_determinism_golden``),
so they are not run twice.

Nor may a digest depend on hash order: a few entries are recomputed in
fresh interpreters under two ``PYTHONHASHSEED`` values, which change
the hash of every string and so the iteration order of sets of them.

A digest may change only with a behaviour change that is named in
CHANGES.md. Regenerate every entry, fast and slow, with:

    python tests/test_golden_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: make `repro` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.sim.engine import make_engine
from repro.sim.rng import DeterministicRng
from repro.system.config import TABLE2
from repro.system.experiments import (
    ColocationSetup,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
)
from repro.system.server import PardServer
from repro.telemetry import Telemetry
from repro.workloads.memcached import MemcachedServer
from repro.workloads.stream import Stream

GOLDEN_PATH = Path(__file__).with_name("golden") / "digests.json"
REPO_ROOT = Path(__file__).resolve().parents[1]

TINY = ColocationSetup(
    scale=32, mc_working_set_bytes=56 << 10, mc_loads_per_request=60,
    stream_array_bytes=256 << 10, warmup_ms=0.5,
)

FIG8_SOLO_PAIR = dict(modes=("solo",), loads=(150_000, 250_000), measure_ms=0.5)
FIG8_FULL_GRID = dict(
    modes=("solo", "shared", "trigger"), loads=(150_000, 250_000),
    measure_ms=0.5,
)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def pinned(name: str) -> str:
    return json.loads(GOLDEN_PATH.read_text())[name]


def run_colocation(kind: str, seed: int = 7) -> str:
    """Run a small memcached+STREAM colocation; return its stats digest."""
    server = PardServer(TABLE2.scaled(16), engine=make_engine(kind))
    fw = server.firmware
    fw.create_ldom("mc", (0,), 1 << 20)
    mc = MemcachedServer(
        server.engine, rps=150_000, working_set_bytes=64 << 10,
        loads_per_request=20, warmup_ps=0,
        rng=DeterministicRng(seed, name="mc"),
    )
    server.start()
    fw.launch_ldom("mc", {0: mc})
    for i in (1, 2):
        fw.create_ldom(f"st{i}", (i,), 1 << 20)
        fw.launch_ldom(f"st{i}", {i: Stream(array_bytes=128 << 10)})
    server.run_ms(1.0)

    return digest((
        server.engine.now,
        server.engine.executed_total,
        mc.requests_arrived,
        mc.requests_served,
        mc.requests_dropped,
        tuple(mc.latencies.samples),
        server.llc.total_hits,
        server.llc.total_misses,
        server.memory_controller.served_requests,
        server.memory_controller.served_bytes,
        tuple(
            tuple(recorder.samples)
            for recorder in server.memory_controller.queue_delay
        ),
        tuple((core.busy_ps, core.memory_accesses) for core in server.cores),
        tuple(
            server.llc.occupancy_blocks(ds_id) for ds_id in range(4)
        ),
    ))


def fig8_digest(jobs: int, modes, loads, measure_ms: float) -> str:
    """Digest of a fig8 grid's results plus its merged telemetry."""
    hub = Telemetry(span_sample=1, snapshot_period_ms=0.25)
    results = run_fig8(
        loads_rps=list(loads), modes=modes, setup=TINY,
        measure_ms=measure_ms, telemetry=hub, jobs=jobs,
    )
    return digest((
        repr(results),
        repr(hub.registry.dump()),
        repr(hub.spans.dump()),
        repr(hub.snapshots),
    ))


def fig7():
    return run_fig7(setup=TINY, phase_ms=0.25, sample_ms=0.125)


def fig9():
    return run_fig9(rps=150_000, setup=TINY, total_ms=1.5, stream_delay_ms=0.5)


def fig10():
    return run_fig10(setup=TINY, phase_ms=20.0, sample_ms=5.0)


def fig11():
    return run_fig11(num_requests=1000)


# Every pinned entry, by name -> zero-argument digest producer.
PRODUCERS = {
    "fig7": lambda: digest(fig7()),
    "fig8_solo_pair": lambda: fig8_digest(1, **FIG8_SOLO_PAIR),
    "fig8_full_grid": lambda: fig8_digest(1, **FIG8_FULL_GRID),
    "fig9": lambda: digest(fig9()),
    "fig10": lambda: digest(fig10()),
    "fig11": lambda: digest(fig11()),
    "colocation_calendar": lambda: run_colocation("calendar"),
    "colocation_heapq": lambda: run_colocation("heapq"),
}


def test_every_producer_is_pinned():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(PRODUCERS)


def test_fig9_digest():
    """The trigger fires and the firmware repartitions: the PRM path runs."""
    timeline = fig9()
    assert timeline.trigger_time_ms == 1.0
    assert timeline.final_waymask == 0xFF00
    assert digest(timeline) == pinned("fig9")


def test_fig10_digest():
    assert digest(fig10()) == pinned("fig10")


def test_fig11_digest():
    assert digest(fig11()) == pinned("fig11")


@pytest.mark.slow
def test_fig7_digest():
    assert digest(fig7()) == pinned("fig7")


def digests_under_hash_seed(seed: str, names) -> dict[str, str]:
    """Recompute pinned entries in a fresh interpreter with ``seed`` as
    its ``PYTHONHASHSEED``."""
    code = (
        "import json, sys\n"
        "from tests.test_golden_digests import PRODUCERS\n"
        "print(json.dumps({n: PRODUCERS[n]() for n in sys.argv[1:]}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *names],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONHASHSEED": seed,
             "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_digests_ignore_hash_seed(seed):
    names = ("fig10", "fig11")
    assert digests_under_hash_seed(seed, names) == {n: pinned(n) for n in names}


@pytest.mark.slow
@pytest.mark.parametrize("seed", ["0", "1"])
def test_slow_digests_ignore_hash_seed(seed):
    names = ("fig9", "fig8_solo_pair")
    assert digests_under_hash_seed(seed, names) == {n: pinned(n) for n in names}


def main(argv: list[str]) -> int:
    if argv != ["--regen"]:
        print(f"usage: python {sys.argv[0]} --regen", file=sys.stderr)
        return 2
    digests = {}
    for name, produce in PRODUCERS.items():
        digests[name] = produce()
        print(f"{name}: {digests[name]}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
