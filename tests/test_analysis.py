"""Unit tests for analysis helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.series import ascii_sparkline, downsample
from repro.analysis.tables import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "22" in lines[3]

    def test_floats_two_decimals(self):
        out = format_table(["x"], [[1.2345]])
        assert "1.23" in out

    def test_integral_floats_as_ints(self):
        out = format_table(["x"], [[4.0]])
        assert "4" in out and "4.00" not in out

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_numeric_columns_right_aligned(self):
        out = format_table(["n"], [[1], [100]])
        lines = out.splitlines()
        assert lines[2].endswith("1")
        assert lines[3].endswith("100")

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert out.splitlines()[0] == "a"


class TestDownsample:
    def test_short_series_untouched(self):
        assert downsample([1, 2, 3], 10) == [1, 2, 3]

    def test_bucket_averaging(self):
        assert downsample([0, 2, 4, 6], 2) == [1.0, 5.0]

    def test_invalid_points(self):
        with pytest.raises(ValueError):
            downsample([1], 0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300),
           st.integers(min_value=1, max_value=50))
    def test_property_length_and_bounds(self, series, max_points):
        result = downsample(series, max_points)
        assert len(result) == min(len(series), max_points)
        assert min(series) - 1e-6 <= min(result)
        assert max(result) <= max(series) + 1e-6


class TestSparkline:
    def test_empty(self):
        assert ascii_sparkline([]) == ""

    def test_flat_series(self):
        line = ascii_sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_extremes_use_extreme_levels(self):
        line = ascii_sparkline([0, 10])
        assert line[0] == " "
        assert line[-1] == "@"

    def test_width_cap(self):
        line = ascii_sparkline(list(range(500)), width=40)
        assert len(line) == 40
