"""DS-id indexed tables.

Every PARD control plane carries three tables indexed by DS-id (Fig. 2):

- a **parameter table** storing resource-allocation policy (way masks,
  priorities, address mappings, bandwidth quotas),
- a **statistics table** storing usage information (hit/miss counts,
  bandwidth, queueing latency),
- a **trigger table** storing performance triggers.

A :class:`DsidTable` is a bounded, schema-checked mapping from DS-id to a
row of named integer cells. All cells are integers by convention so they
round-trip exactly through the 64-bit ``data`` register of the CPA
programming protocol; rates are stored in basis points (1/100 of a
percent) and latencies in hundredths of a cycle.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence


class TableError(KeyError):
    """Raised for unknown columns, unknown DS-ids, or a full table."""


class TableSchema:
    """Ordered column names with per-column defaults.

    The column *order* defines the register-protocol offsets: offset ``i``
    selects the ``i``-th column of the table.
    """

    def __init__(self, columns: Sequence[tuple[str, int]]):
        if not columns:
            raise ValueError("a table schema needs at least one column")
        names = [name for name, _ in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        self._columns = list(columns)
        self._index = {name: i for i, (name, _) in enumerate(columns)}
        self.column_names: tuple[str, ...] = tuple(names)

    @property
    def defaults(self) -> dict[str, int]:
        return {name: default for name, default in self._columns}

    def offset_of(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise TableError(f"unknown column {column!r}; have {self.column_names}")

    def column_at(self, offset: int) -> str:
        if not 0 <= offset < len(self._columns):
            raise TableError(
                f"offset {offset} out of range for {len(self._columns)}-column table"
            )
        return self._columns[offset][0]

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, column: str) -> bool:
        return column in self._index


class DsidTable:
    """A bounded table of per-DS-id rows.

    ``max_entries`` models the hardware table size (Fig. 12 evaluates 64,
    128 and 256 entries); allocating a row for one more DS-id than the
    hardware provides raises :class:`TableError`, which is exactly the
    resource-exhaustion behaviour an operator would hit on silicon.
    """

    def __init__(self, name: str, schema: TableSchema, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.schema = schema
        self.max_entries = max_entries
        self._rows: dict[int, dict[str, int]] = {}
        self._column_names = frozenset(schema.column_names)
        # A live view of the rows for hardware-side code on the
        # per-access path, where a method call per cell is measurable:
        # policy reads, and in-place updates of live statistics counters
        # (the LLC's ``capacity``). Nothing else mutates rows through it.
        self.row_view: Mapping[int, dict[str, int]] = MappingProxyType(self._rows)

    # -- row management -------------------------------------------------

    def allocate(self, ds_id: int, **overrides: int) -> dict[str, int]:
        """Create the row for ``ds_id`` with schema defaults plus overrides."""
        if ds_id in self._rows:
            raise TableError(f"{self.name}: DS-id {ds_id} already allocated")
        if len(self._rows) >= self.max_entries:
            raise TableError(
                f"{self.name}: table full ({self.max_entries} entries), "
                f"cannot allocate DS-id {ds_id}"
            )
        row = self.schema.defaults
        for column, value in overrides.items():
            if column not in self.schema:
                raise TableError(f"{self.name}: unknown column {column!r}")
            row[column] = int(value)
        self._rows[ds_id] = row
        return dict(row)

    def free(self, ds_id: int) -> None:
        """Remove the row (LDom destruction)."""
        if ds_id not in self._rows:
            raise TableError(f"{self.name}: DS-id {ds_id} not allocated")
        del self._rows[ds_id]

    def has(self, ds_id: int) -> bool:
        return ds_id in self._rows

    @property
    def ds_ids(self) -> list[int]:
        return sorted(self._rows)

    # -- cell access ----------------------------------------------------

    def get(self, ds_id: int, column: str) -> int:
        row = self._row(ds_id)
        if column not in self._column_names:
            raise TableError(f"{self.name}: unknown column {column!r}")
        return row[column]

    def get_default(self, ds_id: int, column: str, default: int) -> int:
        """Like :meth:`get`, but returns ``default`` for missing rows.

        Hardware reads with an unallocated DS-id fall back to default
        behaviour rather than faulting.
        """
        row = self._rows.get(ds_id)
        if row is None:
            return default
        if column not in self._column_names:
            raise TableError(f"{self.name}: unknown column {column!r}")
        return row[column]

    def set(self, ds_id: int, column: str, value: int) -> None:
        row = self._row(ds_id)
        if column not in self._column_names:
            raise TableError(f"{self.name}: unknown column {column!r}")
        row[column] = int(value)

    def add(self, ds_id: int, column: str, delta: int) -> int:
        """In-place increment used by hardware statistics updates."""
        row = self._row(ds_id)
        row[column] = row.get(column, 0) + int(delta)
        return row[column]

    # -- register-protocol access (by offset) ----------------------------

    def read_cell(self, ds_id: int, offset: int) -> int:
        return self.get(ds_id, self.schema.column_at(offset))

    def write_cell(self, ds_id: int, offset: int, value: int) -> None:
        self.set(ds_id, self.schema.column_at(offset), value)

    def _row(self, ds_id: int) -> dict[str, int]:
        try:
            return self._rows[ds_id]
        except KeyError:
            raise TableError(f"{self.name}: DS-id {ds_id} not allocated")

    def __repr__(self) -> str:
        return f"DsidTable({self.name}, {len(self._rows)}/{self.max_entries} rows)"
