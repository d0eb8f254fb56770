"""Unit tests for clock domains."""

import pytest

from repro.sim.clock import ClockDomain, CPU_CLOCK_PS, DRAM_CLOCK_PS
from repro.sim.engine import Engine


def test_cpu_and_dram_periods_match_table2():
    # Table 2: 2 GHz CPU, DDR3-1600 (tCK = 1.25 ns).
    assert CPU_CLOCK_PS == 500
    assert DRAM_CLOCK_PS == 1250


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        ClockDomain(Engine(), 0)


def fire_time(clock: ClockDomain, start_ps: int, cycles: int) -> int:
    """When ``post_cycles(cycles)`` issued at ``start_ps`` fires."""
    engine = clock.engine
    fired = []
    engine.post_at(
        start_ps, lambda: clock.post_cycles(cycles, lambda: fired.append(engine.now))
    )
    engine.run()
    return fired[0]


def test_cycle_conversions():
    # From an edge, 4 cycles of a 500 ps clock are 2000 ps.
    assert fire_time(ClockDomain(Engine(), 500), 0, 4) == 2000


def test_next_edge_on_edge_is_now():
    assert fire_time(ClockDomain(Engine(), 500), 0, 0) == 0
    assert fire_time(ClockDomain(Engine(), 500), 1500, 0) == 1500


def test_next_edge_rounds_up():
    assert fire_time(ClockDomain(Engine(), 500), 123, 0) == 500


def test_schedule_cycles_aligns_to_edges():
    engine = Engine()
    clock = ClockDomain(engine, 1250)
    fired = []
    # Move to an unaligned time first.
    engine.post(100, lambda: clock.post_cycles(2, lambda: fired.append(engine.now)))
    engine.run()
    # Next edge after 100 ps is 1250; two cycles later is 3750.
    assert fired == [3750]
