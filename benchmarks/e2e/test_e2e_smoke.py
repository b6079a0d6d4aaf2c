"""Smoke test of the end-to-end benchmark on the tiny world.

Runs every workload of ``BENCHMARK.json`` once with ``--smoke`` (10
towers x 4 weeks, 8 trees) and a two-second measured window (many
backfill passes and faulty replays; the world's last week of live
ticks), plus one traced run, in well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int = 0) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert f"{metric['name']} {printed['value']:.6g} {metric['unit']}" in lines


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_workload_is_correct_and_prints_every_metric(workload):
    lines, result = _run(workload)
    assert result["correct"] is True  # every stream equals its oracle
    assert result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(lines, result, BENCHMARK["end_to_end"])


def test_traced_run_accounts_for_the_wall():
    lines, result = _run("backfill-guarded", trace=1)
    _assert_metrics(lines, result, BENCHMARK["per_layer"])
    assert result["metrics"]["bench.coverage_frac"]["value"] >= 0.90
    assert result["metrics"]["resilience.snapshot.calls"]["value"] > 0


def test_diverging_stream_fails_the_run():
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    out = workloads.Outcome()
    reference = ['{"type": "day", "t_day": 0}', '{"type": "alert", "t_day": 0}']
    workloads._check_stream(out, reference, reference, "same")
    assert out.problems == []
    workloads._check_stream(out, reference[:1] + ['{"type": "day"}'], reference, "edited")
    assert out.problems and "line 1" in out.problems[0]
