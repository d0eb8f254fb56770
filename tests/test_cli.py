"""Tests for the command-line interface."""

import json

import pytest

from tests.helpers import read_jsonl
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in ("table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "all"):
            args = parser.parse_args([name])
            assert callable(args.fn)

    def test_fig8_load_parsing(self):
        args = build_parser().parse_args(["fig8", "--loads", "100,200", "--measure-ms", "1.5"])
        assert args.loads == "100,200"
        assert args.measure_ms == 1.5


class TestCommands:
    def test_table2_prints_configuration(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "CPU" in out and "4MB" in out and "DDR3-1600" in out

    def test_fig12_prints_anchors(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "1526" in out and "10.1%" in out
        assert "2359" in out and "3.1%" in out

    def test_fig11_runs(self, capsys):
        assert main(["fig11", "--requests", "1200"]) == 0
        out = capsys.readouterr().out
        assert "high priority" in out
        assert "x faster" in out

    @pytest.mark.slow
    def test_fig9_runs_small(self, capsys):
        assert main(["fig9", "--rps", "150000", "--total-ms", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "final waymask" in out
        assert "trigger" in out

    def test_fig11_exports_identical_for_any_jobs(self, tmp_path, capsys):
        outputs = {}
        for jobs in (1, 2):
            metrics = tmp_path / f"m{jobs}.jsonl"
            trace = tmp_path / f"t{jobs}.json"
            assert main([
                "fig11", "--requests", "600", "--jobs", str(jobs),
                "--metrics-out", str(metrics), "--trace-out", str(trace),
            ]) == 0
            outputs[jobs] = (
                metrics.read_bytes(), trace.read_bytes(), capsys.readouterr().out,
            )
        assert outputs[1] == outputs[2]
        rows = read_jsonl(str(tmp_path / "m1.jsonl"))
        assert {row["run"] for row in rows} == {"fig11-baseline", "fig11-pard"}
        trace = json.loads(outputs[1][1])
        assert any(event.get("ph") == "X" for event in trace["traceEvents"])
