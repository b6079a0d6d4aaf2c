"""Tests for the benchmark reporting helpers (benchmarks/_reporting.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path


_SPEC = importlib.util.spec_from_file_location(
    "bench_reporting", Path(__file__).parent.parent / "benchmarks" / "_reporting.py"
)
_reporting = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_reporting)


class TestFormatTable:
    def test_alignment(self):
        text = _reporting.format_table(
            ["model", "lift"], [["Average", "4.20"], ["RF-F1", "5.00"]]
        )
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("lift")
        assert "Average" in lines[1]
        # all rows share the same width
        assert len({len(line) for line in lines}) == 1

    def test_custom_widths(self):
        text = _reporting.format_table(["a"], [["x"]], widths=[10])
        assert text.splitlines()[1] == "x".rjust(10)


class TestFormatSeries:
    def test_two_rows_aligned(self):
        text = _reporting.format_series("hours", [1, 2, 10], [0.5, 0.25, 0.125],
                                        fmt="{:.2f}")
        top, bottom = text.splitlines()
        assert top.startswith("hours")
        assert "0.50" in bottom
        assert len(top) == len(bottom)

    def test_nan_rendered(self):
        text = _reporting.format_series("x", [1], [float("nan")])
        assert "nan" in text


class TestReportStore:
    def test_report_persists_and_collects(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_reporting, "_RESULTS_DIR", tmp_path)
        monkeypatch.setattr(_reporting, "_REPORTS", {})
        _reporting.report("unit_test_block", "hello\nworld")
        assert (tmp_path / "unit_test_block.txt").read_text() == "hello\nworld\n"
        assert _reporting.collected_reports() == {"unit_test_block": "hello\nworld"}
        assert "unit_test_block" in capsys.readouterr().out

    def test_report_without_persist_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_reporting, "_RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(_reporting, "_REPORTS", {})
        _reporting.report("smoke_block", "tiny", persist=False)
        assert not (tmp_path / "results").exists()
        assert _reporting.collected_reports() == {"smoke_block": "tiny"}
        assert "smoke_block" in capsys.readouterr().out

    def test_smoke_path_is_an_ignored_sibling(self):
        root = Path(__file__).parent.parent
        full = root / "BENCH_chaos_replay.json"
        log = root / "benchmarks" / "results" / "chaos_events.jsonl"
        assert _reporting.smoke_path(full, smoke=False) == full
        assert _reporting.smoke_path(full, smoke=True) == (
            root / "BENCH_chaos_replay_smoke.json"
        )
        assert _reporting.smoke_path(log, smoke=True) == (
            root / "benchmarks" / "results" / "chaos_events_smoke.jsonl"
        )
        ignored = (root / ".gitignore").read_text(encoding="utf-8").splitlines()
        assert "BENCH_*_smoke.json" in ignored
        assert "benchmarks/results/*_smoke.jsonl" in ignored

