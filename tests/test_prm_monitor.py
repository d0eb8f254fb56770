"""Unit tests for the firmware statistics monitor."""

import pytest

from repro.prm.monitor import StatisticsMonitor
from repro.sim.engine import PS_PER_MS
from repro.system.config import TABLE2
from repro.system.server import PardServer
from repro.workloads.stream import Stream


def make_monitored_server():
    server = PardServer(TABLE2.scaled(32))
    fw = server.firmware
    ldom = fw.create_ldom("a", (0,), 4 << 20)
    server.start()
    fw.launch_ldom("a", {0: Stream(array_bytes=128 << 10)})
    monitor = StatisticsMonitor(fw, period_ps=PS_PER_MS)
    return server, fw, ldom, monitor


def test_capacity_is_live_between_windows():
    """``capacity`` counts the bytes owned now, not at the last window."""
    server, fw, ldom, _monitor = make_monitored_server()
    server.run_ms(0.5)  # half way through the first 1 ms window
    blocks = server.llc.occupancy_blocks(ldom.ds_id)
    assert blocks > 0
    path = f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/capacity"
    assert int(fw.cat(path)) == blocks * 64


@pytest.mark.slow
class TestStatisticsMonitor:
    def test_probe_validates_path_up_front(self):
        _, fw, ldom, monitor = make_monitored_server()
        with pytest.raises(Exception):
            monitor.add_probe("bad", "/sys/cpa/cpa0/ldoms/ldom9/statistics/miss_rate")

    def test_periodic_sampling(self):
        server, fw, ldom, monitor = make_monitored_server()
        series = monitor.add_probe(
            "missrate", f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/miss_rate"
        )
        monitor.run(int(4.5 * PS_PER_MS))
        assert len(series.values) == 4  # samples at 1,2,3,4 ms
        assert server.engine.now == int(4.5 * PS_PER_MS)
        assert series.times_ps == [PS_PER_MS * i for i in (1, 2, 3, 4)]

    def test_values_track_hardware(self):
        server, fw, ldom, monitor = make_monitored_server()
        series = monitor.add_probe(
            "capacity", f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/capacity"
        )
        monitor.run(int(3.5 * PS_PER_MS))
        assert series.values[-1] > 0
        assert series.values[-1] == server.llc_control.occupancy_bytes(ldom.ds_id)

    def test_destroyed_ldom_counts_read_errors(self):
        server, fw, ldom, monitor = make_monitored_server()
        monitor.add_probe(
            "missrate", f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/miss_rate"
        )
        monitor.run(int(1.5 * PS_PER_MS))
        fw.destroy_ldom("a")
        monitor.run(int(2.0 * PS_PER_MS))
        assert monitor.read_errors >= 1

    def test_duplicate_probe_rejected(self):
        _, fw, ldom, monitor = make_monitored_server()
        path = f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/miss_rate"
        monitor.add_probe("x", path)
        with pytest.raises(ValueError):
            monitor.add_probe("x", path)

    def test_invalid_period(self):
        _, fw, _, _ = make_monitored_server()
        with pytest.raises(ValueError):
            StatisticsMonitor(fw, period_ps=0)

    def test_fractional_readings_survive_as_floats(self):
        server, fw, ldom, monitor = make_monitored_server()
        fw.sysfs.add_file("/log/frac", read_handler=lambda: "2.75")
        series = monitor.add_probe("frac", "/log/frac")
        monitor.run(int(1.5 * PS_PER_MS))
        assert series.values == [2.75]
