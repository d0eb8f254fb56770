"""Logical domains (LDoms).

An LDom is a hardware-virtualized submachine: some CPU cores, a slice of
memory capacity, a slice of storage, and a DS-id that identifies all of
its traffic on the intra-computer network. LDoms run unmodified guest
software because the memory control plane translates their 0-based
physical address spaces (PARD §3 footnote 3, §4.2).

The firmware (:mod:`repro.prm.firmware`) creates LDoms; this module only
defines the model object and its lifecycle states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.address import AddressMapping


class LDomState(Enum):
    CREATED = "created"
    RUNNING = "running"
    DESTROYED = "destroyed"


_VALID_TRANSITIONS = {
    LDomState.CREATED: {LDomState.RUNNING, LDomState.DESTROYED},
    LDomState.RUNNING: {LDomState.DESTROYED},
    LDomState.DESTROYED: set(),
}


class LDomLifecycleError(RuntimeError):
    """Raised on an invalid LDom state transition."""


@dataclass
class LDom:
    """A logical domain: DS-id + resource assignment.

    Its policy (memory priority, LLC way mask, disk quota) lives only in
    the control planes' parameter tables, where ``echo`` changes it.
    """

    ds_id: int
    name: str
    core_ids: tuple[int, ...]
    memory: AddressMapping
    state: LDomState = field(default=LDomState.CREATED)

    def __post_init__(self) -> None:
        if self.ds_id < 0:
            raise ValueError("DS-id must be non-negative")
        if not self.core_ids:
            raise ValueError(f"LDom {self.name} needs at least one core")

    def _transition(self, new_state: LDomState) -> None:
        if new_state not in _VALID_TRANSITIONS[self.state]:
            raise LDomLifecycleError(
                f"LDom {self.name}: cannot go {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def launch(self) -> None:
        self._transition(LDomState.RUNNING)

    def destroy(self) -> None:
        self._transition(LDomState.DESTROYED)
