"""Unit tests for clock domains."""

import pytest

from repro.sim.clock import ClockDomain, CPU_CLOCK_PS, DRAM_CLOCK_PS
from repro.sim.engine import Engine


def test_cpu_and_dram_periods_match_table2():
    # Table 2: 2 GHz CPU, DDR3-1600 (tCK = 1.25 ns).
    assert CPU_CLOCK_PS == 500
    assert DRAM_CLOCK_PS == 1250


def test_frequency_property():
    engine = Engine()
    cpu = ClockDomain(engine, CPU_CLOCK_PS)
    assert cpu.frequency_ghz == pytest.approx(2.0)
    dram = ClockDomain(engine, DRAM_CLOCK_PS)
    assert dram.frequency_ghz == pytest.approx(0.8)


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        ClockDomain(Engine(), 0)


def test_cycle_conversions():
    clock = ClockDomain(Engine(), 500)
    assert clock.cycles_to_ps(4) == 2000
    assert clock.ps_to_cycles(2000) == pytest.approx(4.0)


def test_next_edge_on_edge_is_now():
    engine = Engine()
    clock = ClockDomain(engine, 500)
    assert clock.next_edge_ps() == 0


def test_next_edge_rounds_up():
    engine = Engine()
    clock = ClockDomain(engine, 500)
    engine.post(123, lambda: None)
    engine.run()
    assert engine.now == 123
    assert clock.next_edge_ps() == 500


def test_schedule_cycles_aligns_to_edges():
    engine = Engine()
    clock = ClockDomain(engine, 1250)
    fired = []
    # Move to an unaligned time first.
    engine.post(100, lambda: clock.post_cycles(2, lambda: fired.append(engine.now)))
    engine.run()
    # Next edge after 100 ps is 1250; two cycles later is 3750.
    assert fired == [3750]


def test_now_cycles_counts_completed_cycles():
    engine = Engine()
    clock = ClockDomain(engine, 500)
    engine.post(1600, lambda: None)
    engine.run()
    assert clock.now_cycles == 3
