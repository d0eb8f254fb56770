"""Unit tests for CPA space and the sysfs tree."""

import pytest

from repro.cache.control_plane import LlcControlPlane
from repro.core.programming import CPA_SIZE_BYTES, TABLE_PARAMETER
from repro.dram.control_plane import MemoryControlPlane
from repro.prm.cpa import CpaSpaceError, PrmIoSpace
from repro.prm.sysfs import SysfsError, SysfsTree
from repro.sim.engine import Engine


class TestPrmIoSpace:
    def test_attach_assigns_sequential_blocks(self):
        engine = Engine()
        space = PrmIoSpace()
        a = space.attach(LlcControlPlane(engine))
        b = space.attach(MemoryControlPlane(engine))
        assert (a.name, b.name) == ("cpa0", "cpa1")
        assert a.base_addr == 0
        assert b.base_addr == CPA_SIZE_BYTES

    def test_capacity_is_64kb_window(self):
        space = PrmIoSpace()
        assert space.capacity == 2048  # 64KB / 32B

    def test_capacity_enforced(self):
        engine = Engine()
        space = PrmIoSpace(size_bytes=64)  # room for two
        space.attach(LlcControlPlane(engine))
        space.attach(MemoryControlPlane(engine))
        with pytest.raises(CpaSpaceError):
            space.attach(LlcControlPlane(engine, name="extra"))

    def test_lookup_by_name_and_index(self):
        engine = Engine()
        space = PrmIoSpace()
        plane = LlcControlPlane(engine)
        adaptor = space.attach(plane)
        assert space.by_name("cpa0") is adaptor
        assert adaptor.index == 0 and list(space) == [adaptor]
        assert space.find(plane) is adaptor
        with pytest.raises(CpaSpaceError):
            space.by_name("cpa9")

    def test_driver_cell_roundtrip(self):
        engine = Engine()
        space = PrmIoSpace()
        plane = LlcControlPlane(engine)
        plane.allocate_ldom(1)
        adaptor = space.attach(plane)
        adaptor.register_file.write_cell(1, 0, TABLE_PARAMETER, 0x00FF)
        assert adaptor.register_file.read_cell(1, 0, TABLE_PARAMETER) == 0x00FF
        assert plane.parameters.get(1, "waymask") == 0x00FF

    def test_mmio_address_decoding(self):
        engine = Engine()
        space = PrmIoSpace()
        space.attach(LlcControlPlane(engine))
        space.attach(MemoryControlPlane(engine))
        # type register of cpa1 sits at base 32 + offset 12.
        assert space.mmio_read(CPA_SIZE_BYTES + 12) == ord("M")
        with pytest.raises(CpaSpaceError):
            space.mmio_read(5 * CPA_SIZE_BYTES)
        with pytest.raises(CpaSpaceError):
            space.mmio_read(-1)


class TestSysfsTree:
    def test_mkdir_and_listdir(self):
        tree = SysfsTree()
        tree.mkdir("/sys/cpa/cpa0")
        assert tree.listdir("/sys") == ["cpa"]
        assert tree.listdir("/sys/cpa") == ["cpa0"]

    def test_mkdir_is_idempotent(self):
        tree = SysfsTree()
        tree.mkdir("/a/b")
        tree.mkdir("/a/b")
        assert tree.exists("/a/b")

    def test_file_read_write_handlers(self):
        tree = SysfsTree()
        cell = {"v": 5}
        tree.add_file(
            "/sys/x/value",
            read_handler=lambda: str(cell["v"]),
            write_handler=lambda text: cell.update(v=int(text)),
        )
        assert tree.read("/sys/x/value") == "5"
        tree.write("/sys/x/value", "42")
        assert cell["v"] == 42

    def test_read_only_file(self):
        tree = SysfsTree()
        tree.add_file("/info", read_handler=lambda: "hi")
        with pytest.raises(SysfsError):
            tree.write("/info", "x")

    def test_write_only_file(self):
        tree = SysfsTree()
        tree.add_file("/sink", write_handler=lambda text: None)
        with pytest.raises(SysfsError):
            tree.read("/sink")

    def test_missing_path(self):
        tree = SysfsTree()
        with pytest.raises(SysfsError):
            tree.read("/nope")
        assert not tree.exists("/nope")

    def test_duplicate_file_rejected(self):
        tree = SysfsTree()
        tree.add_file("/a/f", read_handler=lambda: "")
        with pytest.raises(SysfsError):
            tree.add_file("/a/f", read_handler=lambda: "")

    def test_remove(self):
        tree = SysfsTree()
        tree.add_file("/a/f", read_handler=lambda: "")
        tree.remove("/a/f")
        assert not tree.exists("/a/f")
        with pytest.raises(SysfsError):
            tree.remove("/a/f")

    def test_dir_vs_file_errors(self):
        tree = SysfsTree()
        tree.mkdir("/d")
        with pytest.raises(SysfsError):
            tree.read("/d")
        tree.add_file("/f", read_handler=lambda: "")
        with pytest.raises(SysfsError):
            tree.listdir("/f")

    def test_relative_path_rejected(self):
        tree = SysfsTree()
        with pytest.raises(SysfsError):
            tree.read("sys/x")
