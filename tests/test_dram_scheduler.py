"""Unit tests for the priority request queues."""

import pytest

from repro.dram.scheduler import PriorityFrFcfsScheduler


class TestPriorityQueues:
    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            PriorityFrFcfsScheduler(0)
