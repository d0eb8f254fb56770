"""The memory controller against queueing theory, not against itself.

One bank with one row (and no refresh model) makes every access after the
first a row hit, so the controller is a single server with a
deterministic service time ``S`` (``t_cl + t_burst`` = 15 cycles).
Poisson arrivals then give closed-form waits:

- the baseline FIFO (no control plane) is M/D/1:
  ``Wq = rho * S / (2 * (1 - rho))``;
- two priority classes split by an independent fair coin follow
  Cobham's non-preemptive formula, ``W_k = W0 / ((1 - s_{k-1})(1 - s_k))``
  with ``W0 = rho * S / 2`` and ``s_k`` the load of classes 1..k;
- Kleinrock's conservation law: with equal service times the priority
  controller only reorders the same busy periods, so over the same
  arrivals the mean wait of all requests equals the FIFO's exactly.

The tolerances are four standard deviations of the relative error over
30 seeds at this request count (largest spread: the low class at
rho=0.7, sd 0.051); the error means over those seeds were within
0.013 of zero.
"""

from functools import partial

import pytest

from repro.dram.control_plane import MemoryControlPlane
from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry, DramTiming
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket
from repro.sim.rng import DeterministicRng

REQUESTS = 20_000
SEED = 1
LOW, HIGH = 1, 2  # DS-ids; HIGH gets priority 1 from the control plane
SERVICE = DramTiming().row_hit_latency  # cycles
# rho -> relative tolerance for (FIFO, high class, low class).
TOLERANCE = {
    0.3: (0.08, 0.08, 0.12),
    0.5: (0.11, 0.08, 0.15),
    0.7: (0.16, 0.09, 0.20),
}


def _arrivals(rho: float) -> list[tuple[int, int]]:
    """Poisson arrivals at load ``rho``, each with a fair-coin class."""
    rng = DeterministicRng(SEED, "queueing-theory")
    gaps, coin = rng.child("arrival"), rng.child("class")
    mean_gap_ps = SERVICE * DRAM_CLOCK_PS / rho
    time_ps = 0
    arrivals = []
    for _ in range(REQUESTS):
        time_ps += max(1, int(gaps.exponential(mean_gap_ps)))
        arrivals.append((time_ps, HIGH if coin.random() < 0.5 else LOW))
    return arrivals


def _waits(arrivals, with_priorities: bool) -> list:
    """Drive one controller; return its per-priority delay recorders."""
    engine = Engine()
    control = None
    if with_priorities:
        control = MemoryControlPlane(engine)
        control.allocate_ldom(LOW, priority=0)
        control.allocate_ldom(HIGH, priority=1)
    controller = MemoryController(
        engine,
        ClockDomain(engine, DRAM_CLOCK_PS),
        geometry=DramGeometry(ranks=1, banks_per_rank=1),
        control=control,
        hp_row_buffer=False,
    )
    for time_ps, ds_id in arrivals:
        packet = MemoryPacket(ds_id=ds_id, addr=0)
        engine.post_at(
            time_ps, partial(controller.handle_request, packet, _ignore)
        )
    engine.run()
    assert controller.served_requests == len(arrivals)
    return controller.queue_delay


def _ignore(_packet) -> None:
    pass


@pytest.mark.parametrize("rho", sorted(TOLERANCE))
def test_dram_waits_match_md1_cobham_and_conservation(rho):
    fifo_tol, high_tol, low_tol = TOLERANCE[rho]
    arrivals = _arrivals(rho)
    (fifo,) = _waits(arrivals, with_priorities=False)
    low, high = _waits(arrivals, with_priorities=True)

    w0 = rho * SERVICE / 2
    high_load = rho / 2  # the fair coin's share of the load
    assert fifo.mean == pytest.approx(w0 / (1 - rho), rel=fifo_tol)
    assert high.mean == pytest.approx(w0 / (1 - high_load), rel=high_tol)
    assert low.mean == pytest.approx(
        w0 / ((1 - high_load) * (1 - rho)), rel=low_tol
    )
    # Conservation is a sample-path identity here, not a statistical one.
    class_mean = (high.total + low.total) / (high.count + low.count)
    assert class_mean == pytest.approx(fifo.mean, rel=1e-9)
