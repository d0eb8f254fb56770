"""The LLC control plane (PARD Fig. 4, Table 3).

Parameter table:  ``waymask`` -- way-partitioning mask bits per DS-id
                  (e.g. ``0xFF00`` = the leftmost 8 of 16 ways).
Statistics table: ``miss_rate`` (basis points, windowed), ``capacity``
                  (bytes currently owned, updated live on every fill
                  and eviction), plus cumulative ``hit_cnt`` /
                  ``miss_cnt``.
Trigger table:    e.g. the paper's running rule
                  ``LLC.MissRate > 30% => increase way allocation``.

The plane is bound to a :class:`~repro.cache.cache.Cache`, which uses
the tables in place, beside its data path (PARD §4.1: "no extra
cycles"): it reads a DS-id's way mask from the parameter rows during
victim selection, counts hits and misses into :attr:`window_hits` /
:attr:`window_misses`, and keeps the ``capacity`` cell current on every
fill and eviction. The plane's own work is publication: at each window
it turns the open counts into ``miss_rate``, ``hit_cnt`` and
``miss_cnt``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.control_plane import ControlPlane
from repro.sim.engine import Engine, PS_PER_MS

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
        # DS-id -> hits / misses of the open window, counted by the cache
        # for every DS-id it sees (allocated or not); on_window publishes
        # and clears the entries of allocated DS-ids.
        self.window_hits: dict[int, int] = {}
        self.window_misses: dict[int, int] = {}

    def bind_cache(self, cache) -> None:
        """Called by the Cache constructor when this plane is attached."""
        if cache.config.ways != self.num_ways:
            raise ValueError(
                f"{self.name}: plane sized for {self.num_ways} ways but "
                f"cache {cache.name} has {cache.config.ways}"
            )

    def on_parameter_write(self, ds_id: int, column: str, value: int) -> None:
        """Reject a way mask that selects no way or names ways the cache
        does not have."""
        if value == 0 or value & ~self.full_mask:
            raise ValueError(
                f"{self.name}: waymask {value:#x} must select ways within "
                f"{self.full_mask:#x}"
            )

    def occupancy_bytes(self, ds_id: int) -> int:
        return self.statistics.get_default(ds_id, "capacity", 0)

    # -- window publication -------------------------------------------------------

    def on_window(self) -> None:
        """Publish the windowed miss rate per DS-id."""
        for ds_id in self.statistics.ds_ids:
            hits = self.window_hits.pop(ds_id, 0)
            misses = self.window_misses.pop(ds_id, 0)
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
