"""The LLC control plane (PARD Fig. 4, Table 3).

Parameter table:  ``waymask`` -- way-partitioning mask bits per DS-id
                  (e.g. ``0xFF00`` = the leftmost 8 of 16 ways).
Statistics table: ``miss_rate`` (basis points, windowed), ``capacity``
                  (bytes currently owned, updated live on every fill
                  and eviction), plus cumulative ``hit_cnt`` /
                  ``miss_cnt``.
Trigger table:    e.g. the paper's running rule
                  ``LLC.MissRate > 30% => increase way allocation``.

The plane is bound to a :class:`~repro.cache.cache.Cache`; the cache
pushes accounting events in (off the critical path) and pulls the current
way mask out during victim selection.
"""

from __future__ import annotations

from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.sim.engine import Engine, PS_PER_MS
from repro.sim.stats import WindowedRate

BASIS_POINTS = 10_000


class LlcControlPlane(ControlPlane):
    """Programmable control plane for the shared last-level cache."""

    IDENT = "CACHE_CP"
    TYPE_CODE = "C"
    STATISTICS_COLUMNS = (
        ("miss_rate", 0),
        ("capacity", 0),
        ("hit_cnt", 0),
        ("miss_cnt", 0),
    )

    def __init__(
        self,
        engine: Engine,
        name: str = "cpa_cache",
        num_ways: int = 16,
        max_entries: int = 256,
        max_triggers: int = 64,
        window_ps: int = PS_PER_MS,
    ):
        self.num_ways = num_ways
        self.full_mask = (1 << num_ways) - 1
        # The schema default for new LDoms is "share everything".
        self.PARAMETER_COLUMNS = (("waymask", self.full_mask),)
        super().__init__(
            engine, name,
            max_entries=max_entries, max_triggers=max_triggers,
            window_ps=window_ps,
        )
        self._parameter_rows = self.parameters.row_view
        self._statistics_rows = self.statistics.row_view
        self._cache = None
        self._window_hits: dict[int, WindowedRate] = {}
        self._window_misses: dict[int, WindowedRate] = {}
        self._line_size = 64

    def bind_cache(self, cache) -> None:
        """Called by the Cache constructor when this plane is attached."""
        self._cache = cache
        self._line_size = cache.config.line_size
        if cache.config.ways != self.num_ways:
            raise ValueError(
                f"{self.name}: plane sized for {self.num_ways} ways but "
                f"cache {cache.name} has {cache.config.ways}"
            )

    # -- policy reads (hardware side) -----------------------------------------

    def waymask(self, ds_id: int) -> int:
        """The way-partition mask for a DS-id; untracked DS-ids share all ways."""
        rows = self._parameter_rows
        if ds_id in rows:
            return rows[ds_id]["waymask"]
        return self.full_mask

    # -- accounting (hardware side, off the critical path) ----------------------

    def record_access(self, ds_id: int, hit: bool) -> None:
        table = self._window_hits if hit else self._window_misses
        if ds_id in table:
            table[ds_id].current += 1
        else:
            self._window(table, ds_id).add(1)

    def record_fill(self, ds_id: int) -> None:
        rows = self._statistics_rows
        if ds_id in rows:
            rows[ds_id]["capacity"] += self._line_size

    def record_eviction(self, owner_ds_id: int) -> None:
        rows = self._statistics_rows
        if owner_ds_id in rows:
            row = rows[owner_ds_id]
            if row["capacity"] > 0:
                row["capacity"] -= self._line_size

    def occupancy_bytes(self, ds_id: int) -> int:
        return self.statistics.get_default(ds_id, "capacity", 0)

    # -- window publication -------------------------------------------------------

    def on_window(self) -> None:
        """Publish the windowed miss rate per DS-id."""
        for ds_id in self.statistics.ds_ids:
            hits = self._window(self._window_hits, ds_id).roll()
            misses = self._window(self._window_misses, ds_id).roll()
            total = hits + misses
            if total:
                miss_rate = misses * BASIS_POINTS // total
                self.statistics.set(ds_id, "miss_rate", miss_rate)
            # A window with no accesses keeps the previous published rate,
            # which avoids spuriously clearing a trigger condition while an
            # LDom is momentarily idle.
            self.statistics.add(ds_id, "hit_cnt", hits)
            self.statistics.add(ds_id, "miss_cnt", misses)

    def last_window_miss_rate(self, ds_id: int) -> Optional[float]:
        """Miss rate of the last published window as a fraction, or None."""
        if not self.statistics.has(ds_id):
            return None
        return self.statistics.get(ds_id, "miss_rate") / BASIS_POINTS

    def _window(self, table: dict[int, WindowedRate], ds_id: int) -> WindowedRate:
        rate = table.get(ds_id)
        if rate is None:
            rate = WindowedRate(f"{self.name}.dsid{ds_id}")
            table[ds_id] = rate
        return rate
