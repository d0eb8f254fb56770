"""Property-based invariants of firmware LDom management."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from tests.helpers import FakeMemory
from repro.cache.control_plane import LlcControlPlane
from repro.core.address import AddressTranslationError
from repro.core.ldom import LDomLifecycleError
from repro.core.tables import TableError
from repro.core.triggers import TriggerOp
from repro.cpu.core import CpuCore
from repro.dram.control_plane import MemoryControlPlane
from repro.io.dma import DISK_INTERRUPT_VECTOR
from repro.prm.firmware import Firmware, FirmwareError, HardwareInventory
from repro.prm.sysfs import SysfsError
from repro.sim.clock import ClockDomain, CPU_CLOCK_PS
from repro.sim.engine import Engine, PS_PER_S, PS_PER_US
from repro.system.config import TABLE2
from repro.system.invariants import check_invariants
from repro.system.server import PardServer
from repro.workloads.diskio import DiskCopy
from repro.workloads.stream import Stream

# An action sequence: create (core set, size index) or destroy (index of
# live LDom modulo the live count).
ACTION = st.one_of(
    st.tuples(st.just("create"),
              st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
              st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("destroy"), st.integers(min_value=0, max_value=10)),
)


def make_firmware():
    engine = Engine()
    clock = ClockDomain(engine, CPU_CLOCK_PS)
    memory = FakeMemory(engine)
    cores = [CpuCore(engine, clock, i, memory) for i in range(4)]
    planes = [LlcControlPlane(engine), MemoryControlPlane(engine)]
    inventory = HardwareInventory(
        control_planes=planes, cores=cores,
        memory_capacity_bytes=64 << 20,
    )
    return Firmware(engine, inventory), planes, cores


@settings(max_examples=40, deadline=None)
@given(st.lists(ACTION, min_size=1, max_size=25))
def test_ldom_management_invariants(actions):
    """Under any create/destroy sequence, the firmware keeps:

    - DS-ids unique among live LDoms;
    - every core owned by at most one live LDom;
    - live memory windows pairwise disjoint;
    - control-plane rows and sysfs subtrees exactly for live DS-ids.
    """
    firmware, planes, cores = make_firmware()
    counter = 0
    for action in actions:
        if action[0] == "create":
            _, core_set, size_mb = action
            counter += 1
            try:
                firmware.create_ldom(
                    f"ldom-{counter}", tuple(sorted(core_set)), size_mb << 20
                )
            except FirmwareError:
                pass  # core conflict or out of memory: both legal refusals
        else:
            _, index = action
            names = sorted(firmware.ldoms)
            if names:
                firmware.destroy_ldom(names[index % len(names)])

    live = list(firmware.ldoms.values())
    ds_ids = [ldom.ds_id for ldom in live]
    assert len(ds_ids) == len(set(ds_ids))

    owned_cores = [c for ldom in live for c in ldom.core_ids]
    assert len(owned_cores) == len(set(owned_cores))

    for i, first in enumerate(live):
        for second in live[i + 1:]:
            assert not first.memory.overlaps(second.memory)

    for plane in planes:
        assert sorted(plane.parameters.ds_ids) == sorted(ds_ids)
    for adaptor_name in firmware.ls("/sys/cpa"):
        nodes = firmware.ls(f"/sys/cpa/{adaptor_name}/ldoms")
        assert sorted(nodes) == sorted(f"ldom{d}" for d in ds_ids)

    # Cores of destroyed LDoms were retagged to the default domain.
    for core in cores:
        if core.core_id not in owned_cores:
            assert core.tag.ds_id == 0


# -- a stateful model of the whole operator surface ----------------------------

MIB = 1 << 20
NAMES = ("a", "b", "c", "d")
# Core 4 does not exist on the rig, so a create naming it is refused.
CORE_SETS = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (4,), ()]
# Draws of ``pick`` below this choose a live LDom (when there is one),
# the others a name or DS-id that no LDom holds.
PICK_LIVE = 7
PICK = st.integers(min_value=0, max_value=9)
# Small trigger tables, so that installs run past ``max_triggers``.
MAX_TRIGGERS = 2
# The rig's planes, in CPA order: cpa0 LLC, cpa1 memory, cpa2 IDE.
STATS_COLUMNS = (
    ("miss_rate", "capacity", "hit_cnt", "miss_cnt"),
    ("bandwidth", "avg_qlat", "serv_cnt"),
    ("bandwidth", "io_cnt", "bytes_total"),
)
# (plane, table, column): every parameter file of an LDom's subtree.
PARAMETER_FILES = [
    (0, "parameters", "waymask"),
    (1, "parameters", "addr_base"),
    (1, "parameters", "addr_size"),
    (1, "parameters", "priority"),
    (1, "parameters", "rowbuf"),
    (2, "parameters", "bandwidth"),
]
STATISTICS_FILES = [
    (p, "statistics", c) for p, columns in enumerate(STATS_COLUMNS) for c in columns
]
MISSING_FILE = (2, "parameters", "weight")
ECHO_VALUES = [
    "0", "1", "-1", "20", "50", "80", "101", "0xFF00", "0x1FFFF",
    str(MIB), str(2 * MIB), str(5 * MIB), str(400 * MIB), "banana",
]


# Cells pass through the CPA's 64-bit data register: -1 lands as 2**64 - 1.
DATA_MASK = (1 << 64) - 1

# The timed rig: Table 2 scaled 1/32 (2 KiB L1s, a 128 KiB LLC) with a
# 1 GiB DRAM, so that 400 MiB windows run it out of memory, and a disk
# that serves a 512-byte chunk in 0.12 us, so that runs of a few tens of
# microseconds see its round robin turn many times.
_SCALED = TABLE2.scaled(32)
DISK_CHUNK_BYTES = 512
RIG = replace(
    _SCALED,
    dram_geometry=replace(_SCALED.dram_geometry, capacity_bytes=1 << 30),
    disk_bandwidth_bytes_per_s=4000 * 1024 * 1024,
    disk_chunk_bytes=DISK_CHUNK_BYTES,
)
CHUNK_PS = DISK_CHUNK_BYTES * PS_PER_S // RIG.disk_bandwidth_bytes_per_s
# A launched LDom runs this Stream on each of its cores: it misses the
# L1 all the time, so accesses are in flight at any instant. A window
# smaller than its array would fault its accesses, so the model leaves
# the window of a launched LDom alone and launches none into a smaller one.
STREAM_BYTES = 16 << 10
WINDOW_COLUMNS = ("addr_base", "addr_size")
# A destroyed LDom's cores finish their in-flight accesses within this.
DRAIN_BOUND_PS = 20 * PS_PER_US
# A waiting disk queue completes a chunk within this. Under deficit round
# robin a queue of the least weight (1 of 100) waits about 100 chunks:
# each of its turns adds a hundredth of what a turn of all the queues
# adds, and the others serve about one chunk per turn each.
DISK_WAIT_BOUND_PS = 160 * CHUNK_PS


def make_stream():
    return Stream(array_bytes=STREAM_BYTES, mlp=4, compute_cycles_per_batch=20)


def make_disk_copy():
    # count=0 writes forever: two chunks per block, a microsecond between.
    return DiskCopy(
        block_bytes=2 * DISK_CHUNK_BYTES, count=0, compute_cycles_between=2_000
    )


class DmaLog:
    """Stands between the IDE's DMA engine and memory, and keeps the
    time and DS-id of every request the engine issues."""

    def __init__(self, engine, memory):
        self.engine = engine
        self.memory = memory
        self.requests: list[tuple[int, int]] = []

    def handle_request(self, packet, on_response):
        self.requests.append((self.engine.now, packet.ds_id))
        self.memory.handle_request(packet, on_response)


def _parse(text):
    try:
        return int(text, 0) & DATA_MASK
    except ValueError:
        return None


def _overlaps(base, size, other_base, other_size):
    return base < other_base + other_size and other_base < base + size


class FirmwareModel(RuleBasedStateMachine):
    """A scaled PARD server's firmware driven through create, launch,
    destroy, echo, cat and pardtrigger, with the machine running in
    between, against a plain-dict model.

    After every step the plane rows, armed triggers, the sysfs tree,
    the allocator's windows, the core tags and the APIC routes must
    match the model; a command that raised must change nothing that
    ``cat`` can read. The server's runtime invariants hold, no core of
    a destroyed LDom issues another access, and it drains within
    ``DRAIN_BOUND_PS``; once its cores have drained, no cache holds a
    block of its DS-id. The disk issues no DMA request of a destroyed
    DS-id after the chunk it had in service, and a waiting disk queue
    completes a chunk within ``DISK_WAIT_BOUND_PS``.
    """

    def __init__(self):
        super().__init__()
        self.server = PardServer(RIG)
        self.engine = self.server.engine
        self.firmware = self.server.firmware
        # cpa0 LLC, cpa1 memory, cpa2 IDE; the model leaves cpa3, the
        # I/O bridge, alone.
        self.planes = self.server.control_planes[:3]
        self.cores = self.server.cores
        self.apic = self.server.apic
        for plane in self.planes:
            plane.triggers.max_triggers = MAX_TRIGGERS
        self.capacity = self.firmware.memory_allocator.free_bytes
        self.defaults = [plane.parameters.schema.defaults for plane in self.planes]
        # name -> (ds_id, cores, base, size)
        self.ldoms: dict[str, tuple] = {}
        # plane -> ds_id -> parameter row
        self.params: list[dict[int, dict]] = [{} for _ in self.planes]
        # (plane, ds_id, slot) -> (stat column, op, threshold)
        self.triggers: dict[tuple, tuple] = {}
        self.next_ds_id = 1
        # Names of live LDoms that were launched.
        self.launched: set[str] = set()
        # core id -> (its memory accesses, the time) when its LDom was
        # destroyed; it leaves when a new LDom launches on the core.
        self.halted: dict[int, tuple[int, int]] = {}
        # ds_id -> (its cores, the time) of every destroyed LDom.
        self.destroyed: dict[int, tuple[tuple[int, ...], int]] = {}
        self.dma = self.server.ide.dma
        self.dma.memory = DmaLog(self.engine, self.dma.memory)

    # -- the model's predictions -------------------------------------------------

    def _live(self):
        return {ds_id: name for name, (ds_id, *_) in self.ldoms.items()}

    def _pick_name(self, pick):
        names = sorted(self.ldoms)
        if pick < PICK_LIVE and names:
            return names[pick % len(names)]
        return NAMES[pick % len(NAMES)]

    def _pick_ds_id(self, pick):
        ds_ids = sorted(self._live())
        if pick < PICK_LIVE and ds_ids:
            return ds_ids[pick % len(ds_ids)]
        return (0, self.next_ds_id, 99)[pick % 3]

    def _first_fit(self, size):
        cursor = 0
        for _, _, base, length in sorted(self.ldoms.values(), key=lambda e: e[2]):
            if base - cursor >= size:
                return cursor
            cursor = base + length
        return cursor if self.capacity - cursor >= size else None

    def _window_error(self, ds_id, base, size):
        """What the memory plane raises for DS-id's window (base, size)."""
        if base + size > self.planes[1].capacity_bytes:
            return AddressTranslationError
        if size == 0:
            return None
        for other, row in self.params[1].items():
            if other != ds_id and row["addr_size"] and _overlaps(
                base, size, row["addr_base"], row["addr_size"]
            ):
                return AddressTranslationError
        return None

    def _quota_error(self, ds_id, share):
        if not 0 <= share <= 100:
            return ValueError
        others = sum(r["bandwidth"] for d, r in self.params[2].items() if d != ds_id)
        return ValueError if others + share > 100 else None

    def _write_error(self, plane, ds_id, column, value):
        if plane == 0:
            return ValueError if value == 0 or value & ~0xFFFF else None
        if plane == 2:
            return self._quota_error(ds_id, value)
        row = self.params[1][ds_id]
        if column == "addr_base":
            return self._window_error(ds_id, value, row["addr_size"])
        if column == "addr_size":
            return self._window_error(ds_id, row["addr_base"], value)
        return None

    # -- running a command --------------------------------------------------------

    def _dump(self):
        """Every path of the tree, and the ``cat`` of every file."""
        sysfs = self.firmware.sysfs
        seen = {}
        pending = ["/"]
        while pending:
            path = pending.pop()
            for name in sysfs.listdir(path):
                child = f"{path.rstrip('/')}/{name}"
                try:
                    sysfs.listdir(child)
                except SysfsError:  # a file
                    seen[child] = sysfs.read(child)
                else:
                    seen[child] = None
                    pending.append(child)
        return seen

    def _run(self, error, command):
        """Run ``command``; it must raise exactly ``error`` (a class) or
        nothing, and a command that raised must leave the tree as it was."""
        if error is None:
            command()
            return
        before = self._dump()
        with pytest.raises(error) as raised:
            command()
        assert type(raised.value) is error
        assert self._dump() == before

    # -- rules ---------------------------------------------------------------------

    @initialize(
        core_ids=st.sampled_from(CORE_SETS[:4]),
        disk_share=st.sampled_from([0, 1, 50, 80]),
    )
    def first_ldom(self, core_ids, disk_share):
        self.create(NAMES[0], core_ids, 1, 0, disk_share)

    @rule(
        name=st.sampled_from(NAMES),
        core_ids=st.sampled_from(CORE_SETS),
        size_mb=st.sampled_from([1, 2, 3, 400]),
        priority=st.integers(min_value=0, max_value=2),
        disk_share=st.sampled_from([0, 1, 20, 30, 50, 80, 101, -1]),
    )
    def create(self, name, core_ids, size_mb, priority, disk_share):
        size = size_mb * MIB
        owned = {c for _, owner_cores, _, _ in self.ldoms.values() for c in owner_cores}
        ds_id = self.next_ds_id
        base = self._first_fit(size)
        if name in self.ldoms or any(
            c >= len(self.cores) or c in owned for c in core_ids
        ) or base is None:
            error = FirmwareError
        elif not core_ids:
            error = ValueError
        else:
            error = self._window_error(ds_id, base, size) or self._quota_error(
                ds_id, disk_share & DATA_MASK
            )
        self._run(error, lambda: self.firmware.create_ldom(
            name, core_ids, size, priority=priority, disk_share=disk_share
        ))
        if error is None:
            self.ldoms[name] = (ds_id, core_ids, base, size)
            programmed = {
                "addr_base": base, "addr_size": size,
                "priority": priority, "bandwidth": disk_share,
            }
            for plane, defaults in enumerate(self.defaults):
                self.params[plane][ds_id] = {
                    column: programmed.get(column, default)
                    for column, default in defaults.items()
                }
            self.next_ds_id += 1

    @rule(pick=PICK)
    def destroy(self, pick):
        name = self._pick_name(pick)
        error = None if name in self.ldoms else FirmwareError
        self._run(error, lambda: self.firmware.destroy_ldom(name))
        if error is None:
            ds_id, core_ids, _, _ = self.ldoms.pop(name)
            self.launched.discard(name)
            for core_id in core_ids:
                self.halted[core_id] = (
                    self.cores[core_id].memory_accesses, self.engine.now
                )
            self.destroyed[ds_id] = (core_ids, self.engine.now)
            for rows in self.params:
                del rows[ds_id]
            for key in [k for k in self.triggers if k[1] == ds_id]:
                del self.triggers[key]

    @rule(
        file=st.sampled_from([*PARAMETER_FILES, STATISTICS_FILES[0], MISSING_FILE]),
        pick=PICK,
        text=st.sampled_from(ECHO_VALUES),
    )
    def echo(self, file, pick, text):
        plane, table, column = file
        ds_id = self._pick_ds_id(pick)
        if column in WINDOW_COLUMNS and self._live().get(ds_id) in self.launched:
            return  # would fault the running Stream (see STREAM_BYTES)
        value = _parse(text)
        if ds_id not in self._live() or table != "parameters" or file == MISSING_FILE:
            error = SysfsError
        elif value is None:
            error = FirmwareError
        else:
            error = self._write_error(plane, ds_id, column, value)
        path = f"/sys/cpa/cpa{plane}/ldoms/ldom{ds_id}/{table}/{column}"
        self._run(error, lambda: self.firmware.sh(f"echo {text} > {path}"))
        if error is None:
            self.params[plane][ds_id][column] = value

    @rule(
        file=st.sampled_from([*PARAMETER_FILES, *STATISTICS_FILES, MISSING_FILE]),
        pick=PICK,
    )
    def cat(self, file, pick):
        plane, table, column = file
        ds_id = self._pick_ds_id(pick)
        path = f"/sys/cpa/cpa{plane}/ldoms/ldom{ds_id}/{table}/{column}"
        if ds_id not in self._live() or file == MISSING_FILE:
            self._run(SysfsError, lambda: self.firmware.sh(f"cat {path}"))
            return
        if table == "parameters":
            expected = self.params[plane][ds_id][column]
        else:
            expected = self._statistics(plane, ds_id)[column]
        assert self.firmware.sh(f"cat {path}") == str(expected)

    @rule(
        plane=st.integers(min_value=0, max_value=2),
        pick=PICK,
        slot=st.integers(min_value=0, max_value=2),
        column=st.integers(min_value=0, max_value=3),
        op=st.sampled_from(["gt", "le", "ge", "xx"]),
        value=st.integers(min_value=0, max_value=50),
    )
    def pardtrigger(self, plane, pick, slot, column, op, value):
        ds_id = self._pick_ds_id(pick)
        columns = STATS_COLUMNS[plane]
        stat = columns[column] if column < len(columns) else "weight"
        key = (plane, ds_id, slot)
        armed = sum(k[0] == plane for k in self.triggers)
        if ds_id not in self._live():
            error = FirmwareError
        elif op == "xx":
            error = ValueError
        elif stat not in STATS_COLUMNS[plane]:
            error = TableError
        elif key not in self.triggers and armed >= MAX_TRIGGERS:
            error = TableError
        else:
            error = None
        self._run(error, lambda: self.firmware.sh(
            f"pardtrigger /dev/cpa{plane} -ldom={ds_id} -action={slot} "
            f"-stats={stat} -cond={op},{value}"
        ))
        if error is None:
            scale = 100 if stat == "miss_rate" else 1
            self.triggers[key] = (stat, TriggerOp.from_symbol(op), value * scale)

    @rule(pick=PICK)
    def launch(self, pick):
        self._launch(pick, make_stream)

    @rule(pick=PICK)
    def launch_disk(self, pick):
        # Its DMA requests address the window's first bytes, which any
        # window holds.
        self._launch(pick, make_disk_copy)

    def _launch(self, pick, make_workload):
        name = self._pick_name(pick)
        ds_id, core_ids, _, _ = self.ldoms.get(name, (None, (0,), None, None))
        if name not in self.ldoms:
            error = FirmwareError
        elif make_workload is make_stream and (
            0 < self.params[1][ds_id]["addr_size"] < STREAM_BYTES
        ):
            return  # the Stream would fault (see STREAM_BYTES)
        elif any(self.cores[c].is_busy for c in core_ids):
            error = FirmwareError  # running, or a destroyed LDom drains
        elif name in self.launched:
            error = LDomLifecycleError
        else:
            error = None
        self._run(error, lambda: self.firmware.launch_ldom(
            name, {c: make_workload() for c in core_ids}
        ))
        if error is None:
            self.launched.add(name)
            for core_id in core_ids:
                self.halted.pop(core_id, None)

    @rule(span_us=st.integers(min_value=1, max_value=40))
    def run(self, span_us):
        self.engine.run(until_ps=self.engine.now + span_us * PS_PER_US)

    # -- the comparison ------------------------------------------------------------

    def _statistics(self, plane, ds_id):
        """A live DS-id's statistics row: zero, because the planes'
        windows never start, but for the LLC's ``capacity``, which
        ``check_invariants`` holds to the tag array."""
        row = dict.fromkeys(STATS_COLUMNS[plane], 0)
        if plane == 0:
            row["capacity"] = self.planes[0].statistics.get(ds_id, "capacity")
        return row

    @invariant()
    def machine_runs_safely(self):
        check_invariants(self.server)
        for core_id, (accesses, halted_at) in self.halted.items():
            core = self.cores[core_id]
            assert core.memory_accesses == accesses, f"core {core_id} runs on"
            if self.engine.now - halted_at >= DRAIN_BOUND_PS:
                assert not core.is_busy, f"core {core_id} never drains"
        for name in self.launched:
            assert all(self.cores[c].is_busy for c in self.ldoms[name][1])
        caches = [self.server.llc] + self.server.l1s
        for ds_id, (core_ids, _) in self.destroyed.items():
            if not any(c in self.halted and self.cores[c].is_busy for c in core_ids):
                assert [cache.occupancy_blocks(ds_id) for cache in caches] == [
                    0 for _ in caches
                ], f"DS-id {ds_id} owns blocks after its cores drained"

    @invariant()
    def disk_serves_live_queues_only(self):
        now = self.engine.now
        last_chunk = {}
        late = {}
        for at, ds_id in self.dma.memory.requests:
            last_chunk[ds_id] = at
            if ds_id in self.destroyed and at >= self.destroyed[ds_id][1]:
                late.setdefault(ds_id, []).append(at)
        for ds_id, times in late.items():
            # Only the chunk in service at the destroy may still finish.
            destroyed_at = self.destroyed[ds_id][1]
            assert len(times) == 1 and times[0] <= destroyed_at + CHUNK_PS, (
                f"DS-id {ds_id}: DMA at {times} after its destroy at {destroyed_at}"
            )
        for ds_id, queue in self.server.ide._queues.items():
            if queue:
                waiting_since = max(queue[0].started_at_ps, last_chunk.get(ds_id, 0))
                assert now - waiting_since <= DISK_WAIT_BOUND_PS, (
                    f"DS-id {ds_id} has waited {now - waiting_since} ps for a chunk"
                )

    @invariant()
    def machine_matches_model(self):
        firmware = self.firmware
        live = self._live()
        assert {
            name: (ldom.ds_id, ldom.core_ids, ldom.memory.base, ldom.memory.size)
            for name, ldom in firmware.ldoms.items()
        } == self.ldoms
        sizes = sum(size for *_, size in self.ldoms.values())
        assert firmware.memory_allocator.free_bytes == self.capacity - sizes
        for plane, cp in enumerate(self.planes):
            assert {d: dict(r) for d, r in cp.parameters.row_view.items()} == (
                self.params[plane]
            )
            assert {d: dict(r) for d, r in cp.statistics.row_view.items()} == {
                d: self._statistics(plane, d) for d in live
            }
            assert [
                ((plane, d, s), (r.stat_column, r.op, r.threshold), r.action_id)
                for d, s, r in cp.triggers.rules()
            ] == [
                (key, rule, key[2])
                for key, rule in sorted(self.triggers.items()) if key[0] == plane
            ]
            ldoms = f"/sys/cpa/cpa{plane}/ldoms"
            assert firmware.ls(ldoms) == sorted(f"ldom{d}" for d in live)
            for d in live:
                assert firmware.ls(f"{ldoms}/ldom{d}") == [
                    "parameters", "statistics", "triggers"
                ]
                assert firmware.ls(f"{ldoms}/ldom{d}/parameters") == sorted(
                    self.params[plane][d]
                )
                assert firmware.ls(f"{ldoms}/ldom{d}/statistics") == sorted(
                    STATS_COLUMNS[plane]
                )
                assert firmware.ls(f"{ldoms}/ldom{d}/triggers") == sorted(
                    str(s) for p, dd, s in self.triggers if (p, dd) == (plane, d)
                )
        owner = {c: ds_id for ds_id, name in live.items() for c in self.ldoms[name][1]}
        assert [core.tag.ds_id for core in self.cores] == [
            owner.get(core.core_id, 0) for core in self.cores
        ]
        for ds_id in range(8):
            first_core = self.ldoms[live[ds_id]][1][0] if ds_id in live else None
            assert self.apic.route_of(ds_id, DISK_INTERRUPT_VECTOR) == first_core


TestFirmwareModel = FirmwareModel.TestCase
TestFirmwareModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


@pytest.mark.slow
def test_firmware_model_long_run():
    run_state_machine_as_test(
        FirmwareModel,
        settings=settings(max_examples=400, stateful_step_count=50, deadline=None),
    )
