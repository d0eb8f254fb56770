"""Unit and property tests for DS-id indexed tables."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tables import DsidTable, TableError, TableSchema


def waymask_schema():
    return TableSchema([("waymask", 0xFFFF), ("priority", 0)])


class TestTableSchema:
    def test_column_order_defines_offsets(self):
        schema = waymask_schema()
        assert schema.offset_of("waymask") == 0
        assert schema.offset_of("priority") == 1
        assert schema.column_at(0) == "waymask"
        assert schema.column_at(1) == "priority"

    def test_unknown_column_raises(self):
        with pytest.raises(TableError):
            waymask_schema().offset_of("nope")

    def test_offset_out_of_range_raises(self):
        with pytest.raises(TableError):
            waymask_schema().column_at(2)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema([("a", 0), ("a", 1)])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            TableSchema([])

    def test_defaults_are_fresh_copies(self):
        schema = waymask_schema()
        d1 = schema.defaults
        d1["waymask"] = 0
        assert schema.defaults["waymask"] == 0xFFFF


class TestDsidTable:
    def test_allocate_uses_defaults(self):
        table = DsidTable("t", TableSchema([("waymask", 0xFFFF)]))
        row = table.allocate(1)
        assert row == {"waymask": 0xFFFF}

    def test_allocate_with_overrides(self):
        table = DsidTable("t", TableSchema([("waymask", 0xFFFF), ("priority", 0)]))
        table.allocate(2, priority=1)
        assert table.get(2, "priority") == 1
        assert table.get(2, "waymask") == 0xFFFF

    def test_allocate_unknown_override_rejected(self):
        table = DsidTable("t", TableSchema([("a", 0)]))
        with pytest.raises(TableError):
            table.allocate(1, b=2)

    def test_double_allocate_rejected(self):
        table = DsidTable("t", TableSchema([("a", 0)]))
        table.allocate(1)
        with pytest.raises(TableError):
            table.allocate(1)

    def test_capacity_enforced(self):
        # Fig. 12 sizes the hardware tables; overflowing must fail loudly.
        table = DsidTable("t", TableSchema([("a", 0)]), max_entries=2)
        table.allocate(0)
        table.allocate(1)
        with pytest.raises(TableError):
            table.allocate(2)

    def test_free_releases_capacity(self):
        table = DsidTable("t", TableSchema([("a", 0)]), max_entries=1)
        table.allocate(0)
        table.free(0)
        table.allocate(1)
        assert table.ds_ids == [1]

    def test_free_unallocated_raises(self):
        with pytest.raises(TableError):
            DsidTable("t", TableSchema([("a", 0)])).free(5)

    def test_get_set(self):
        table = DsidTable("t", TableSchema([("a", 0)]))
        table.allocate(3)
        table.set(3, "a", 42)
        assert table.get(3, "a") == 42

    def test_get_unallocated_raises(self):
        with pytest.raises(TableError):
            DsidTable("t", TableSchema([("a", 0)])).get(9, "a")

    def test_get_default_for_missing_row(self):
        table = DsidTable("t", TableSchema([("a", 7)]))
        assert table.get_default(9, "a", 123) == 123
        table.allocate(9)
        assert table.get_default(9, "a", 123) == 7

    def test_add_increments(self):
        table = DsidTable("t", TableSchema([("hits", 0)]))
        table.allocate(1)
        table.add(1, "hits", 3)
        assert table.add(1, "hits", 2) == 5

    def test_values_coerced_to_int(self):
        table = DsidTable("t", TableSchema([("a", 0)]))
        table.allocate(1)
        table.set(1, "a", 7.0)
        assert table.get(1, "a") == 7
        assert isinstance(table.get(1, "a"), int)

    def test_row_returns_copy(self):
        table = DsidTable("t", TableSchema([("a", 1)]))
        row = table.allocate(1)
        row["a"] = 99
        assert table.get(1, "a") == 1

    def test_rows_iteration_sorted(self):
        table = DsidTable("t", TableSchema([("a", 0)]))
        for ds_id in (3, 1, 2):
            table.allocate(ds_id)
        assert table.ds_ids == [1, 2, 3]

    def test_cell_access_by_offset(self):
        table = DsidTable("t", TableSchema([("a", 0), ("b", 5)]))
        table.allocate(1)
        table.write_cell(1, 1, 77)
        assert table.read_cell(1, 1) == 77
        assert table.get(1, "b") == 77

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            DsidTable("t", waymask_schema(), max_entries=0)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=2**63 - 1)),
        min_size=1,
        max_size=60,
    )
)
def test_property_read_after_write_by_offset(writes):
    """Any sequence of writes is observable: last write per cell wins."""
    table = DsidTable("t", TableSchema([("c0", 0), ("c1", 0)]), max_entries=64)
    expected = {}
    for ds_id, value in writes:
        if not table.has(ds_id):
            table.allocate(ds_id)
        offset = value % 2
        table.write_cell(ds_id, offset, value)
        expected[(ds_id, offset)] = value
    for (ds_id, offset), value in expected.items():
        assert table.read_cell(ds_id, offset) == value


@given(st.sets(st.integers(min_value=0, max_value=1000), min_size=1, max_size=64))
def test_property_allocation_capacity_invariant(ds_ids):
    table = DsidTable("t", TableSchema([("a", 0)]), max_entries=32)
    allocated = 0
    for ds_id in sorted(ds_ids):
        if allocated < 32:
            table.allocate(ds_id)
            allocated += 1
        else:
            with pytest.raises(TableError):
                table.allocate(ds_id)
    assert len(table.ds_ids) == min(len(ds_ids), 32)
