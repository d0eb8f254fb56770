"""The PRM firmware.

A Linux-like management stack (the paper runs a tailored 2.6.28 kernel
with Busybox on a 100 MHz embedded core): it mounts every control plane
adaptor under ``/sys/cpa``, manages LDom lifecycles, implements the
``echo`` / ``cat`` / ``ls`` / ``pardtrigger`` commands of Fig. 6, and
dispatches trigger interrupts to installed action scripts.

Every table access the firmware performs goes through the CPA register
protocol (addr/cmd/data), exactly like the hardware interface; the only
direct connections are the ones the paper gives the PRM by construction
-- tag registers and the APIC route tables (the dashed control-plane
network of Fig. 2).

Trigger reactions are not instantaneous: an interrupt is serviced after
``reaction_latency_ps`` of modeled firmware latency (interrupt entry,
script startup, file I/O on the 100 MHz core) before the handler's
parameter writes land.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.address import AddressMapping
from repro.core.control_plane import ControlPlane
from repro.core.ldom import LDom
from repro.core.programming import (
    TABLE_PARAMETER,
    TABLE_STATISTICS,
    TABLE_TRIGGER,
)
from repro.core.triggers import TriggerOp, TriggerRule
from repro.io.dma import DISK_INTERRUPT_VECTOR
from repro.prm.allocator import OutOfMemoryError, WindowAllocator
from repro.prm.cpa import ControlPlaneAdaptor, PrmIoSpace
from repro.prm.sysfs import SysfsError, SysfsTree
from repro.sim.engine import Engine, PS_PER_US

# Columns whose sysfs/pardtrigger values are expressed in percent but
# stored scaled (miss_rate is kept in basis points in the hardware).
STAT_SCALES = {"miss_rate": 100}

# Control-plane type code -> telemetry metric prefix (llc.ds1.misses ...).
TELEMETRY_PREFIXES = {
    "C": "llc",
    "M": "memory",
    "I": "ide",
    "B": "bridge",
}

# Statistics-column renames for the telemetry namespace.
TELEMETRY_STAT_NAMES = {"hit_cnt": "hits", "miss_cnt": "misses"}

# An action script: fn(firmware, context_dict) -> None.
ActionScript = Callable[["Firmware", dict], None]


class FirmwareError(RuntimeError):
    """Configuration or shell errors raised by the firmware."""


@dataclass
class HardwareInventory:
    """What the PRM is wired to (the dashed lines in Fig. 2)."""

    control_planes: list[ControlPlane]
    cores: list = field(default_factory=list)
    apic: Optional[object] = None
    caches: list = field(default_factory=list)  # flushable on LDom destroy
    memory_capacity_bytes: int = 8 << 30


class Firmware:
    """The management firmware running on the PRM."""

    def __init__(
        self,
        engine: Engine,
        inventory: HardwareInventory,
        reaction_latency_ps: int = 20 * PS_PER_US,
        telemetry=None,
    ):
        self.engine = engine
        self.inventory = inventory
        self.reaction_latency_ps = reaction_latency_ps
        self.io_space = PrmIoSpace()
        self.sysfs = SysfsTree()
        self.ldoms: dict[str, LDom] = {}
        self._next_ds_id = 1  # DS-id 0 is the default/untagged domain
        self.memory_allocator = WindowAllocator(inventory.memory_capacity_bytes)
        self._scripts: dict[str, ActionScript] = {}
        self._bindings: dict[tuple[str, int, int], str] = {}
        self.trigger_log: list[tuple[int, str, int, str]] = []
        self.scripts_run = 0
        self.telemetry = telemetry
        self._ldom_metrics: dict[int, list[str]] = {}
        self.sysfs.mkdir("/sys/cpa")
        self.sysfs.mkdir("/log")
        for control_plane in inventory.control_planes:
            self._attach(control_plane)
        if self.telemetry is not None:
            self._register_prm_metrics()

    def _register_prm_metrics(self) -> None:
        """Register the PRM's own instruments (``prm.*``)."""
        registry = self.telemetry.registry
        registry.gauge_fn("prm.triggers_fired", lambda: len(self.trigger_log))
        registry.gauge_fn("prm.scripts_run", lambda: self.scripts_run)
        registry.gauge_fn("prm.ldoms", lambda: len(self.ldoms))

    # -- CPA attachment and sysfs construction -------------------------------

    def _attach(self, control_plane: ControlPlane) -> ControlPlaneAdaptor:
        adaptor = self.io_space.attach(control_plane)
        control_plane.attach_interrupt(self._on_trigger_interrupt)
        rf = adaptor.register_file
        self.sysfs.add_tree(
            f"/sys/cpa/{adaptor.name}",
            {
                "ident": (lambda: rf.ident, None),
                "type": (lambda: f"{ord(rf.type_code):#x} '{rf.type_code}'", None),
                "ldoms": {},
            },
        )
        return adaptor

    def _build_ldom_subtree(self, adaptor: ControlPlaneAdaptor, ds_id: int) -> None:
        cp = adaptor.control_plane
        rf = adaptor.register_file
        parameters = {
            column: (
                lambda o=offset: str(rf.read_cell(ds_id, o, TABLE_PARAMETER)),
                lambda text, o=offset: rf.write_cell(
                    ds_id, o, TABLE_PARAMETER, _parse_int(text)
                ),
            )
            for offset, column in enumerate(cp.parameters.schema.column_names)
        }
        statistics = {
            column: (
                lambda o=offset: str(rf.read_cell(ds_id, o, TABLE_STATISTICS)),
                None,
            )
            for offset, column in enumerate(cp.statistics.schema.column_names)
        }
        self.sysfs.add_tree(
            f"/sys/cpa/{adaptor.name}/ldoms/ldom{ds_id}",
            {"parameters": parameters, "statistics": statistics, "triggers": {}},
        )

    # -- LDom lifecycle --------------------------------------------------------

    def create_ldom(
        self,
        name: str,
        core_ids: tuple[int, ...],
        memory_bytes: int,
        priority: int = 0,
        disk_share: int = 0,
    ) -> LDom:
        """Create a logical domain and program every control plane for it.

        Mirrors the operator flow of Fig. 3: pick a DS-id, allocate table
        rows, program the address mapping / priority / quotas, set the
        cores' tag registers and the LDom's interrupt routes.

        All or nothing: if a plane rejects a value (or the interrupt
        route cannot be set), the rows, sysfs subtrees, route and memory
        window built so far are undone before the error propagates, no
        core's tag changes, and the DS-id is not used up -- the next
        create takes it.
        """
        if name in self.ldoms:
            raise FirmwareError(f"LDom {name!r} already exists")
        for core_id in core_ids:
            self._core(core_id)
            owner = self._core_owner(core_id)
            if owner is not None:
                raise FirmwareError(f"core {core_id} already belongs to {owner.name}")
        try:
            base = self.memory_allocator.allocate(memory_bytes)
        except OutOfMemoryError as error:
            raise FirmwareError(f"out of memory: {error}")
        ds_id = self._next_ds_id
        apic = self.inventory.apic
        try:
            ldom = LDom(
                ds_id=ds_id,
                name=name,
                core_ids=tuple(core_ids),
                memory=AddressMapping(base, memory_bytes),
            )
            defaults = {
                "addr_base": base,
                "addr_size": memory_bytes,
                "priority": priority,
                "bandwidth": disk_share,
            }
            for adaptor in self.io_space:
                adaptor.control_plane.allocate_ldom(ds_id)
                self._build_ldom_subtree(adaptor, ds_id)
                self._program_defaults(adaptor, ds_id, defaults)
            if apic is not None and core_ids:
                apic.set_route(ds_id, DISK_INTERRUPT_VECTOR, core_ids[0])
        except Exception:
            self._release_rows(ds_id)
            if apic is not None:
                apic.clear_routes(ds_id)
            self.memory_allocator.free(base)
            raise
        self._next_ds_id += 1
        if self.telemetry is not None:
            self._register_ldom_metrics(ds_id)
        for core_id in core_ids:
            self._core(core_id).tag.write(ds_id)
        self.ldoms[name] = ldom
        return ldom

    def _program_defaults(
        self, adaptor: ControlPlaneAdaptor, ds_id: int, defaults: dict[str, int]
    ) -> None:
        """Write an LDom's policy into one control plane, by column name."""
        columns = adaptor.control_plane.parameters.schema
        for column, value in defaults.items():
            if column in columns:
                adaptor.register_file.write_cell(
                    ds_id, columns.offset_of(column), TABLE_PARAMETER, value
                )

    def _register_ldom_metrics(self, ds_id: int) -> None:
        """Expose each control plane's per-DS-id statistics as gauges.

        Reads go through the CPA register protocol exactly like the
        ``/sys/cpa`` statistics files, but only at snapshot time --
        nothing touches the hardware between exports. Percent-scaled
        columns (basis points in hardware) are reported in percent.
        """
        registry = self.telemetry.registry
        names = self._ldom_metrics.setdefault(ds_id, [])
        for adaptor in self.io_space:
            cp = adaptor.control_plane
            prefix = TELEMETRY_PREFIXES.get(cp.TYPE_CODE, "cpa")
            for offset, column in enumerate(cp.statistics.schema.column_names):
                leaf = TELEMETRY_STAT_NAMES.get(column, column)
                metric = f"{prefix}.ds{ds_id}.{leaf}"
                scale = STAT_SCALES.get(column, 1)

                def read(rf=adaptor.register_file, o=offset, s=scale):
                    return rf.read_cell(ds_id, o, TABLE_STATISTICS) / s

                registry.gauge_fn(metric, read)
                names.append(metric)

    def launch_ldom(self, name: str, workloads: dict[int, object]) -> LDom:
        """Launch an LDom: assign per-core workloads and mark it running."""
        ldom = self._ldom(name)
        for core_id in workloads:
            if core_id not in ldom.core_ids:
                raise FirmwareError(f"core {core_id} is not part of {name}")
            if self._core(core_id).is_busy:
                raise FirmwareError(f"core {core_id} is still running a workload")
        ldom.launch()
        for core_id, workload in workloads.items():
            self._core(core_id).assign(workload)
        return ldom

    def destroy_ldom(self, name: str) -> None:
        """Take an LDom's resources back: halt its cores, flush its cache
        footprint, free its window, rows, interrupt route and metrics.

        A halted core stays busy until its in-flight accesses drain;
        then a new LDom can launch on it.
        """
        ldom = self._ldom(name)
        ldom.destroy()
        # Flush the LDom's cache footprint before recycling its DRAM
        # window: dirty lines write back under its DS-id, stale lines
        # cannot leak to the window's next tenant.
        for cache in self.inventory.caches:
            cache.flush_dsid(ldom.ds_id)
        self.memory_allocator.free(ldom.memory.base)
        self._release_rows(ldom.ds_id)
        for core_id in ldom.core_ids:
            core = self._core(core_id)
            core.halt()
            core.tag.write(0)
        if self.inventory.apic is not None:
            self.inventory.apic.clear_routes(ldom.ds_id)
        if self.telemetry is not None:
            for metric in self._ldom_metrics.pop(ldom.ds_id, []):
                self.telemetry.registry.remove(metric)
        del self.ldoms[name]

    def _release_rows(self, ds_id: int) -> None:
        """Free ``ds_id``'s rows in every plane and its sysfs subtrees."""
        for adaptor in self.io_space:
            if adaptor.control_plane.parameters.has(ds_id):
                adaptor.control_plane.free_ldom(ds_id)
            try:
                self.sysfs.remove(f"/sys/cpa/{adaptor.name}/ldoms/ldom{ds_id}")
            except SysfsError:
                pass  # a failed create stopped before this plane's subtree

    def _ldom(self, name: str) -> LDom:
        try:
            return self.ldoms[name]
        except KeyError:
            raise FirmwareError(f"no LDom named {name!r}")

    def _core(self, core_id: int):
        try:
            return self.inventory.cores[core_id]
        except IndexError:
            raise FirmwareError(f"no core {core_id}")

    def _core_owner(self, core_id: int) -> Optional[LDom]:
        for ldom in self.ldoms.values():
            if core_id in ldom.core_ids:
                return ldom
        return None

    # -- trigger => action ---------------------------------------------------------

    def register_script(self, path: str, script: ActionScript) -> None:
        """Install a handler script under a filesystem-like path."""
        self._scripts[path] = script

    def install_trigger(
        self,
        cpa_name: str,
        ds_id: int,
        stat_column: str,
        condition: str,
        action_id: int = 0,
    ) -> None:
        """The ``pardtrigger`` command: program a trigger row and expose
        ``.../triggers/<action_id>`` for the script binding.

        ``condition`` is ``"<op>,<value>"`` (e.g. ``"gt,30"``); values for
        percent-scaled statistics (miss_rate) are given in percent. The
        plane must hold a row for ``ds_id``: a rule for a DS-id no LDom
        holds would be inherited, armed, by the LDom that takes it next.
        Every check runs before the first register write, so a refused
        install (a full trigger table included) leaves the slot as it was.
        """
        adaptor = self.io_space.by_name(cpa_name)
        cp = adaptor.control_plane
        if not cp.parameters.has(ds_id):
            raise FirmwareError(f"{cpa_name} holds no LDom with DS-id {ds_id}")
        op_text, _, value_text = condition.partition(",")
        if not value_text:
            raise FirmwareError(f"malformed condition {condition!r}")
        op = TriggerOp.from_symbol(op_text)
        threshold = _parse_int(value_text) * STAT_SCALES.get(stat_column, 1)
        cp.triggers.check_room(ds_id, action_id)
        fields = {
            "stat_col": cp.statistics.schema.offset_of(stat_column),
            "op": int(op),
            "threshold": threshold,
            "action_id": action_id,
            "enabled": 1,
        }
        for field_name, value in fields.items():
            offset = cp.triggers.offset_of(field_name, slot=action_id)
            adaptor.register_file.write_cell(ds_id, offset, TABLE_TRIGGER, value)
        trigger_path = f"/sys/cpa/{cpa_name}/ldoms/ldom{ds_id}/triggers/{action_id}"
        if not self.sysfs.exists(trigger_path):
            key = (cpa_name, ds_id, action_id)
            self.sysfs.add_file(
                trigger_path,
                read_handler=lambda k=key: self._bindings.get(k, ""),
                write_handler=lambda text, k=key: self._bind_action(k, text.strip()),
            )

    def _bind_action(self, key: tuple[str, int, int], script_path: str) -> None:
        if script_path and script_path not in self._scripts:
            raise FirmwareError(f"no registered script {script_path!r}")
        self._bindings[key] = script_path

    def _on_trigger_interrupt(
        self, control_plane: ControlPlane, ds_id: int, rule: TriggerRule
    ) -> None:
        adaptor = self.io_space.find(control_plane)
        if adaptor is None:
            return
        key = (adaptor.name, ds_id, rule.action_id)
        script_path = self._bindings.get(key, "")
        self.trigger_log.append(
            (self.engine.now, adaptor.name, ds_id, rule.describe())
        )
        if not script_path:
            return
        script = self._scripts[script_path]
        context = {
            "cpa": adaptor.name,
            "ds_id": ds_id,
            "ldom_path": f"/sys/cpa/{adaptor.name}/ldoms/ldom{ds_id}",
            "rule": rule,
        }
        self.engine.post(
            self.reaction_latency_ps, lambda: self._run_script(script, context)
        )

    def _run_script(self, script: ActionScript, context: dict) -> None:
        self.scripts_run += 1
        script(self, context)

    # -- the shell (echo / cat / ls / pardtrigger) --------------------------------

    def cat(self, path: str) -> str:
        return self.sysfs.read(path)

    def echo(self, value: str, path: str) -> None:
        self.sysfs.write(path, value)

    def ls(self, path: str) -> list[str]:
        return sorted(self.sysfs.listdir(path))

    def sh(self, command_line: str) -> str:
        """Execute one shell command against the device file tree.

        Supports the forms used in the paper's examples:
        ``echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask``,
        ``cat <path>``, ``ls <path>``, and
        ``pardtrigger /dev/cpa0 -ldom=0 -action=0 -stats=miss_rate -cond=gt,30``.
        """
        command_line = command_line.strip()
        echo_match = re.match(r"^echo\s+(\S+)\s*>{1,2}\s*(\S+)$", command_line)
        if echo_match:
            self.echo(echo_match.group(1).strip("\"'"), echo_match.group(2))
            return ""
        cat_match = re.match(r"^cat\s+(\S+)$", command_line)
        if cat_match:
            return self.cat(cat_match.group(1))
        ls_match = re.match(r"^ls\s+(\S+)$", command_line)
        if ls_match:
            return "\n".join(self.ls(ls_match.group(1)))
        if command_line.startswith("pardtrigger"):
            return self._sh_pardtrigger(command_line)
        raise FirmwareError(f"unknown command: {command_line!r}")

    def _sh_pardtrigger(self, command_line: str) -> str:
        tokens = command_line.split()
        if len(tokens) < 2:
            raise FirmwareError("pardtrigger: missing device argument")
        device = tokens[1]
        cpa_name = device.rsplit("/", 1)[-1]
        args = {}
        for token in tokens[2:]:
            match = re.match(r"^-(\w+)=(.+)$", token)
            if not match:
                raise FirmwareError(f"pardtrigger: bad argument {token!r}")
            args[match.group(1)] = match.group(2)
        try:
            ds_id = int(args["ldom"])
            stats = args["stats"]
            condition = args["cond"]
        except KeyError as missing:
            raise FirmwareError(f"pardtrigger: missing -{missing.args[0]}")
        action_id = int(args.get("action", 0))
        self.install_trigger(cpa_name, ds_id, stats, condition, action_id)
        return ""


def _parse_int(text: str) -> int:
    """Parse decimal or 0x-hex the way ``echo`` inputs arrive."""
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise FirmwareError(f"not a number: {text!r}")
