"""Unit tests for the DiskCopy (dd) workload."""

import itertools

import pytest

from repro.sim.packet import IoOp
from repro.workloads.diskio import DiskCopy


class TestDiskCopy:
    def test_emits_io_ops_with_block_size(self):
        dd = DiskCopy(block_bytes=1 << 20, count=3, compute_cycles_between=0)
        ops = list(dd.ops())
        io_ops = [op for op in ops if op[0] == "io"]
        assert len(io_ops) == 3
        assert all(op[1].value == 1 << 20 for op in io_ops)
        assert all(op[1].op is IoOp.PIO_WRITE for op in io_ops)

    def test_compute_between_blocks(self):
        dd = DiskCopy(count=2, compute_cycles_between=500)
        kinds = [op[0] for op in dd.ops()]
        assert kinds == ["io", "compute", "io", "compute"]

    def test_infinite_mode(self):
        dd = DiskCopy(count=0, compute_cycles_between=0)
        ops = list(itertools.islice(dd.ops(), 50))
        assert len(ops) == 50

    def test_progress_tracking(self):
        dd = DiskCopy(block_bytes=100, count=2, compute_cycles_between=0)
        list(dd.ops())
        assert dd.blocks_written == 2
        assert dd.blocks_written * dd.block_bytes == 200

    def test_device_name(self):
        dd = DiskCopy(count=1, device="ide7")
        packet = next(op[1] for op in dd.ops() if op[0] == "io")
        assert packet.device == "ide7"

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskCopy(block_bytes=0)
        with pytest.raises(ValueError):
            DiskCopy(count=-1)
