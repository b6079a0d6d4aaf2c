"""Benchmark — serial vs process-parallel sweep execution.

Runs the same sweep grid with ``n_jobs=1`` and with 2/4/all-core worker
pools, asserts the result rows are identical (the determinism contract:
CRC32 cell seeds + spawned RNG streams make results independent of the
worker count), and records wall times plus speedup factors.

Dual-mode:

* standalone — ``python benchmarks/bench_parallel_sweep.py [--smoke]``
  writes ``BENCH_parallel_sweep.json`` (timing summary for the perf
  trajectory) next to the repo root and a text table under
  ``benchmarks/results/``; a ``--smoke`` run writes only the untracked
  ``BENCH_parallel_sweep_smoke.json``;
* under pytest — a ``--smoke``-sized run wired into the bench suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _reporting import format_table, report, smoke_path

from repro import (
    GeneratorConfig,
    TelemetryGenerator,
    attach_scores,
    filter_sectors,
)
from repro.core.experiment import SweepGrid, SweepRunner
from repro.imputation import ForwardFillImputer
from repro.parallel import effective_jobs

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_parallel_sweep.json"

SMOKE_MODELS = ("Persist", "Average", "Tree", "RF-F1")
FULL_MODELS = ("Random", "Persist", "Average", "Trend", "Tree", "RF-R", "RF-F1", "RF-F2")


def _build_runner(n_towers: int, n_estimators: int) -> SweepRunner:
    config = GeneratorConfig(n_towers=n_towers, n_weeks=18, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    return SweepRunner(dataset, target="hot", n_estimators=n_estimators, seed=0)


def _rows_equal(rows_a: list[dict], rows_b: list[dict]) -> bool:
    if len(rows_a) != len(rows_b):
        return False
    for a, b in zip(rows_a, rows_b):
        for key in ("model", "t", "h", "w", "target", "n_sectors", "n_positive"):
            if a[key] != b[key]:
                return False
        for key in ("psi", "lift"):
            va, vb = a[key], b[key]
            if math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:  # bitwise-identical floats, not approximately equal
                return False
    return True


def run_bench(smoke: bool = False, job_counts: tuple[int, ...] | None = None) -> dict:
    """Time serial vs parallel sweeps; return the summary dict."""
    cores = effective_jobs(0)  # the CPUs this process may run on
    if job_counts is None:
        job_counts = tuple(sorted({2, 4, cores} - {1}))
    if smoke:
        runner = _build_runner(n_towers=10, n_estimators=5)
        grid = SweepGrid.small(
            models=SMOKE_MODELS, n_t=2, horizons=(1, 5), windows=(3,),
            t_min=50, t_max=70,
        )
        job_counts = (2,)
    else:
        runner = _build_runner(n_towers=24, n_estimators=10)
        grid = SweepGrid.small(models=FULL_MODELS, n_t=3, horizons=(1, 3, 5, 7), windows=(3, 7))

    start = time.perf_counter()
    serial_rows = [r.as_row() for r in runner.run(grid, n_jobs=1)]
    serial_seconds = time.perf_counter() - start

    if cores < 2:
        # A single usable core cannot demonstrate a speedup — timing the
        # pool there only measures fork/IPC overhead.  Skip the parallel
        # leg and say so, instead of publishing a bogus <1x number.
        job_counts = ()
    parallel_entries = []
    for jobs in job_counts:
        start = time.perf_counter()
        rows = [r.as_row() for r in runner.run(grid, n_jobs=jobs)]
        seconds = time.perf_counter() - start
        equal = _rows_equal(serial_rows, rows)
        assert equal, f"n_jobs={jobs} produced different rows than the serial sweep"
        parallel_entries.append(
            {
                "jobs": jobs,
                "seconds": round(seconds, 4),
                "speedup": round(serial_seconds / seconds, 3) if seconds > 0 else None,
                "rows_equal_serial": equal,
            }
        )

    if parallel_entries:
        best = max(parallel_entries, key=lambda e: e["speedup"] or 0.0)
        best_speedup, best_jobs = best["speedup"], best["jobs"]
    else:
        best_speedup, best_jobs = "degraded_single_core", None
    return {
        "bench": "parallel_sweep",
        "mode": "smoke" if smoke else "full",
        "cpu_count": cores,
        "grid_cells": grid.n_combinations,
        "n_sectors": runner.targets_daily.shape[0],
        "serial_seconds": round(serial_seconds, 4),
        "parallel": parallel_entries,
        "best_speedup": best_speedup,
        "best_jobs": best_jobs,
    }


def _render(summary: dict) -> str:
    rows = [["1 (serial)", f"{summary['serial_seconds']:.2f}s", "1.00x", "-"]]
    for entry in summary["parallel"]:
        rows.append(
            [
                str(entry["jobs"]),
                f"{entry['seconds']:.2f}s",
                f"{entry['speedup']:.2f}x",
                "yes" if entry["rows_equal_serial"] else "NO",
            ]
        )
    text = (
        f"Sweep wall time, {summary['grid_cells']} cells, "
        f"{summary['n_sectors']} sectors, {summary['cpu_count']} core(s):\n"
    )
    text += format_table(["workers", "wall time", "speedup", "rows == serial"], rows)
    if not summary["parallel"]:
        text += "\nparallel leg skipped: single-core host (degraded_single_core)\n"
    return text


def test_parallel_sweep_smoke(benchmark):
    """Bench-suite entry: smoke-sized serial vs 2-worker comparison."""
    summary = benchmark.pedantic(run_bench, kwargs={"smoke": True}, rounds=1, iterations=1)
    report("parallel_sweep", _render(summary), persist=False)
    assert all(entry["rows_equal_serial"] for entry in summary["parallel"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny grid, 2 workers only (CI-sized)",
    )
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=None,
        help="worker counts to benchmark (default: 2 4 <all cores>)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"JSON summary path (default {DEFAULT_OUT}, or its _smoke "
        "sibling with --smoke)",
    )
    args = parser.parse_args(argv)
    out = args.out or smoke_path(DEFAULT_OUT, args.smoke)

    summary = run_bench(
        smoke=args.smoke,
        job_counts=None if args.jobs is None else tuple(args.jobs),
    )
    report("parallel_sweep", _render(summary), persist=not args.smoke)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
