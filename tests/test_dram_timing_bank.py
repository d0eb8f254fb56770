"""Unit tests for DDR3 timing, address decomposition and bank state."""

import pytest
from hypothesis import given, strategies as st

from repro.dram.bank import BankState
from repro.dram.timing import DramGeometry, DramTiming, decompose_address


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


class TestBankState:
    CYCLE_PS = 1250

    def latency_cycles(self, bank, row, issue_ps, high_priority=False):
        """Issue ``row`` on a free data bus; its burst then ends the
        access latency after the issue."""
        timing = DramTiming()
        data_end = bank.issue(row, issue_ps, 0, timing, self.CYCLE_PS, high_priority)
        return (data_end - issue_ps) // self.CYCLE_PS

    def test_initially_closed(self):
        bank = BankState(0)
        assert bank.row_state(5) == "closed"

    def test_hit_after_access(self):
        bank = BankState(0)
        timing = DramTiming()
        bank.issue(5, 0, 0, timing, 1250, high_priority=False)
        assert bank.row_state(5) == "hit"
        assert bank.row_state(6) == "conflict"

    def test_access_latency_by_state(self):
        bank = BankState(0)
        timing = DramTiming()
        assert self.latency_cycles(bank, 5, 0) == timing.row_closed_latency
        assert self.latency_cycles(bank, 5, 100_000) == timing.row_hit_latency
        assert self.latency_cycles(bank, 6, 200_000) == timing.row_conflict_latency

    def test_burst_waits_for_the_data_bus(self):
        bank = BankState(0)
        timing = DramTiming()
        burst_ps = timing.t_burst * self.CYCLE_PS
        data_end = bank.issue(5, 0, 10**6, timing, self.CYCLE_PS, high_priority=False)
        assert data_end == 10**6 + burst_ps
        assert bank.ready_at_ps == data_end

    def test_tras_extends_conflict_completion(self):
        bank = BankState(0)
        timing = DramTiming()
        cycle_ps = 1250
        bank.issue(5, 0, 0, timing, cycle_ps, high_priority=False)
        # Conflicting access issued immediately: the old row was activated
        # at 0 and cannot precharge before tRAS.
        data_end = bank.issue(6, 1000, 0, timing, cycle_ps, high_priority=False)
        done = bank.ready_at_ps
        assert done > data_end
        assert done - 1000 >= (timing.t_ras * cycle_ps - 1000)

    def test_hp_row_buffer_avoids_conflict(self):
        # PARD §4.2: the extra per-bank row buffer lets a high-priority
        # request activate without closing the low-priority row.
        bank = BankState(0, hp_row_buffer=True)
        timing = DramTiming()
        bank.issue(5, 0, 0, timing, 1250, high_priority=False)
        assert self.latency_cycles(bank, 6, 2000, True) == timing.row_closed_latency
        # Both rows are now hot.
        assert bank.row_state(5) == "hit"
        assert bank.row_state(6) == "hit"

    def test_without_hp_buffer_high_priority_conflicts(self):
        bank = BankState(0, hp_row_buffer=False)
        timing = DramTiming()
        bank.issue(5, 0, 0, timing, 1250, high_priority=False)
        assert self.latency_cycles(bank, 6, 2000, True) == timing.row_conflict_latency
