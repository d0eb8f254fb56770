"""Unit tests for DDR3 timing, address decomposition and bank state."""

import pytest
from hypothesis import given, strategies as st

from tests.helpers import decompose_address
from repro.dram.bank import BankState
from repro.dram.controller import MemoryController
from repro.dram.timing import DramGeometry, DramTiming
from repro.sim.clock import ClockDomain, DRAM_CLOCK_PS
from repro.sim.engine import Engine


class TestDramTiming:
    def test_table2_defaults(self):
        timing = DramTiming()
        # 13.75 ns at tCK = 1.25 ns -> 11 cycles; 35 ns -> 28 cycles.
        assert timing.t_rcd == 11
        assert timing.t_cl == 11
        assert timing.t_rp == 11
        assert timing.t_ras == 28
        assert timing.t_burst == 4  # BL8 on a DDR bus

    def test_latency_composition(self):
        timing = DramTiming()
        assert timing.row_hit_latency == 15
        assert timing.row_closed_latency == 26
        assert timing.row_conflict_latency == 37
        assert timing.row_hit_latency < timing.row_closed_latency < timing.row_conflict_latency

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(t_cl=0)


class TestDramGeometry:
    def test_table2_defaults(self):
        geometry = DramGeometry()
        assert geometry.total_banks == 16  # 2 ranks x 8 banks
        assert geometry.row_bytes == 1024
        assert geometry.capacity_bytes == 8 * 1024 ** 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DramGeometry(row_bytes=1000)  # not a power of two
        with pytest.raises(ValueError):
            DramGeometry(ranks=0)


class TestAddressDecomposition:
    def test_sequential_addresses_interleave_banks(self):
        geometry = DramGeometry()
        banks = [decompose_address(i * 1024, geometry)[0] for i in range(16)]
        assert banks == list(range(16))

    def test_same_row_same_bank_for_row_bytes(self):
        geometry = DramGeometry()
        bank0, row0, col0 = decompose_address(0, geometry)
        bank1, row1, col1 = decompose_address(1023, geometry)
        assert (bank0, row0) == (bank1, row1)
        assert (col0, col1) == (0, 1023)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose_address(-1, DramGeometry())

    @given(st.integers(min_value=0, max_value=2**33))
    def test_property_decomposition_is_bijective(self, addr):
        geometry = DramGeometry()
        bank, row, col = decompose_address(addr, geometry)
        assert 0 <= bank < geometry.total_banks
        assert 0 <= col < geometry.row_bytes
        rebuilt = (row * geometry.total_banks + bank) * geometry.row_bytes + col
        assert rebuilt == addr


CYCLE_PS = 1250


def timing_ps(timing, cycle_ps):
    """``BankState``'s timing tuple, as the memory controller builds it."""
    return (
        timing.row_hit_latency * cycle_ps,
        timing.row_closed_latency * cycle_ps,
        timing.row_conflict_latency * cycle_ps,
        timing.t_burst * cycle_ps,
        timing.t_ras * cycle_ps,
    )


TIMING_PS = timing_ps(DramTiming(), CYCLE_PS)


def row_state(bank, row):
    """'hit', 'closed' or 'conflict' for an access to ``row``: the
    classification ``BankState.issue`` inlines."""
    if row == bank.open_row:
        return "hit"
    if bank.hp_row_buffer and row == bank.hp_open_row:
        return "hit"
    if bank.open_row is None:
        return "closed"
    return "conflict"


class TestBankState:
    def latency_cycles(self, bank, row, issue_ps, high_priority=False):
        """Issue ``row`` on a free data bus; its burst then ends the
        access latency after the issue."""
        data_end = bank.issue(row, issue_ps, 0, high_priority)
        return (data_end - issue_ps) // CYCLE_PS

    def test_initially_closed(self):
        bank = BankState(0, TIMING_PS)
        assert row_state(bank, 5) == "closed"

    def test_hit_after_access(self):
        bank = BankState(0, TIMING_PS)
        bank.issue(5, 0, 0, high_priority=False)
        assert row_state(bank, 5) == "hit"
        assert row_state(bank, 6) == "conflict"

    def test_access_latency_by_state(self):
        bank = BankState(0, TIMING_PS)
        timing = DramTiming()
        assert self.latency_cycles(bank, 5, 0) == timing.row_closed_latency
        assert self.latency_cycles(bank, 5, 100_000) == timing.row_hit_latency
        assert self.latency_cycles(bank, 6, 200_000) == timing.row_conflict_latency

    def test_burst_waits_for_the_data_bus(self):
        bank = BankState(0, TIMING_PS)
        timing = DramTiming()
        burst_ps = timing.t_burst * CYCLE_PS
        data_end = bank.issue(5, 0, 10**6, high_priority=False)
        assert data_end == 10**6 + burst_ps
        assert bank.ready_at_ps == data_end

    def test_tras_extends_conflict_completion(self):
        bank = BankState(0, TIMING_PS)
        timing = DramTiming()
        bank.issue(5, 0, 0, high_priority=False)
        # Conflicting access issued immediately: the old row was activated
        # at 0 and cannot precharge before tRAS.
        data_end = bank.issue(6, 1000, 0, high_priority=False)
        done = bank.ready_at_ps
        assert done > data_end
        assert done - 1000 >= (timing.t_ras * CYCLE_PS - 1000)

    def test_hp_row_buffer_avoids_conflict(self):
        # PARD §4.2: the extra per-bank row buffer lets a high-priority
        # request activate without closing the low-priority row.
        bank = BankState(0, TIMING_PS, hp_row_buffer=True)
        timing = DramTiming()
        bank.issue(5, 0, 0, high_priority=False)
        assert self.latency_cycles(bank, 6, 2000, True) == timing.row_closed_latency
        # Both rows are now hot.
        assert row_state(bank, 5) == "hit"
        assert row_state(bank, 6) == "hit"

    def test_without_hp_buffer_high_priority_conflicts(self):
        bank = BankState(0, TIMING_PS, hp_row_buffer=False)
        timing = DramTiming()
        bank.issue(5, 0, 0, high_priority=False)
        assert self.latency_cycles(bank, 6, 2000, True) == timing.row_conflict_latency

    def test_controller_hands_every_bank_its_timing_in_ps(self):
        engine = Engine()
        timing = DramTiming(t_rcd=12, t_cl=10, t_rp=9, t_ras=30, t_burst=4)
        controller = MemoryController(
            engine, ClockDomain(engine, DRAM_CLOCK_PS), timing=timing
        )
        expected = (
            (10 + 4) * DRAM_CLOCK_PS,
            (12 + 10 + 4) * DRAM_CLOCK_PS,
            (9 + 12 + 10 + 4) * DRAM_CLOCK_PS,
            4 * DRAM_CLOCK_PS,
            30 * DRAM_CLOCK_PS,
        )
        for bank in controller.banks:
            assert (
                bank.hit_ps, bank.closed_ps, bank.conflict_ps,
                bank.burst_ps, bank.tras_ps,
            ) == expected


def cycle_formula_issue(bank, row, issue_ps, bus_free_ps, timing, cycle_ps, high_priority):
    """The bank timing as it was written in memory cycles, kept as the
    oracle of the picosecond :meth:`BankState.issue`: latencies and
    tRAS multiplied by the cycle time on every issue. ``bank`` is a
    plain dict of the row-buffer state; returns ``data_end_ps``."""
    hp_row_buffer = bank["hp_row_buffer"]
    hit = row == bank["open_row"] or (hp_row_buffer and row == bank["hp_open_row"])
    if hit:
        latency_cycles = timing.row_hit_latency
    elif bank["open_row"] is None or (high_priority and hp_row_buffer):
        latency_cycles = timing.row_closed_latency
    else:
        latency_cycles = timing.row_conflict_latency
    burst_ps = timing.t_burst * cycle_ps
    data_start_ps = max(issue_ps + latency_cycles * cycle_ps - burst_ps, bus_free_ps)
    data_end_ps = data_start_ps + burst_ps
    done_ps = data_end_ps
    if not hit:
        if high_priority and hp_row_buffer:
            bank["hp_open_row"] = row
        else:
            if bank["open_row"] is not None:
                min_precharge = bank["activated_at_ps"] + timing.t_ras * cycle_ps
                done_ps += max(min_precharge - issue_ps, 0)
            bank["open_row"] = row
            bank["activated_at_ps"] = issue_ps
    bank["ready_at_ps"] = done_ps
    return data_end_ps


class TestBankIssueAgainstCycleFormula:
    """The picosecond ``issue`` against the cycle formula, case by case.

    Each case opens row 5 at t=0 (a regular activation), optionally
    opens row 9 in the high-priority buffer, then issues the probe.
    """

    # (prior high-priority row or None, probe row, high_priority,
    # issue_ps, bus_free_ps). The first access (row 5 at t=0) is the
    # closed-bank case in every run.
    CASES = {
        "hit": (None, 5, False, 100_000, 0),
        "hit, busy bus": (None, 5, False, 100_000, 10**6),
        "hit on a high-priority row": (9, 9, False, 100_000, 0),
        "conflict after tRAS": (None, 6, False, 100_000, 0),
        "conflict within tRAS": (None, 6, False, 1_000, 0),
        "conflict within tRAS, busy bus": (None, 6, False, 1_000, 10**6),
        # With the extra row buffer a high-priority miss opens it (closed
        # latency, no tRAS); without it the miss is a conflict.
        "high-priority miss": (None, 6, True, 1_000, 0),
        "high-priority miss, busy bus": (None, 6, True, 1_000, 10**6),
        "high-priority miss after a high-priority row": (9, 7, True, 100_000, 0),
    }

    @pytest.mark.parametrize("hp_row_buffer", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, case, hp_row_buffer):
        prior_hp_row, row, high_priority, issue_ps, bus_free_ps = self.CASES[case]
        timing = DramTiming()
        bank = BankState(0, TIMING_PS, hp_row_buffer)
        oracle = {
            "hp_row_buffer": hp_row_buffer, "open_row": None,
            "hp_open_row": None, "activated_at_ps": 0, "ready_at_ps": 0,
        }
        steps = [(5, 0, 0, False)]
        if prior_hp_row is not None:
            steps.append((prior_hp_row, 50_000, 0, True))
        steps.append((row, issue_ps, bus_free_ps, high_priority))
        for step_row, step_ps, step_bus_ps, step_high in steps:
            expected = cycle_formula_issue(
                oracle, step_row, step_ps, step_bus_ps, timing, CYCLE_PS, step_high
            )
            assert bank.issue(step_row, step_ps, step_bus_ps, step_high) == expected
            assert (
                bank.open_row, bank.hp_open_row, bank.activated_at_ps, bank.ready_at_ps
            ) == (
                oracle["open_row"], oracle["hp_open_row"],
                oracle["activated_at_ps"], oracle["ready_at_ps"],
            )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # row
                st.integers(min_value=0, max_value=60),  # gap, cycles
                st.integers(min_value=0, max_value=40),  # bus busy, cycles
                st.booleans(),  # high priority
            ),
            min_size=1, max_size=30,
        ),
        st.booleans(),
        st.sampled_from([1250, 1000, 937]),
    )
    def test_property_sequences_match(self, steps, hp_row_buffer, cycle_ps):
        timing = DramTiming()
        bank = BankState(0, timing_ps(timing, cycle_ps), hp_row_buffer)
        oracle = {
            "hp_row_buffer": hp_row_buffer, "open_row": None,
            "hp_open_row": None, "activated_at_ps": 0, "ready_at_ps": 0,
        }
        now = 0
        for row, gap, busy, high_priority in steps:
            now += gap * cycle_ps
            bus_free_ps = now + busy * cycle_ps
            expected = cycle_formula_issue(
                oracle, row, now, bus_free_ps, timing, cycle_ps, high_priority
            )
            assert bank.issue(row, now, bus_free_ps, high_priority) == expected
            assert bank.ready_at_ps == oracle["ready_at_ps"]
