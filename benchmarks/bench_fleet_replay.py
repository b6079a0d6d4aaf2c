"""Benchmark — sharded fleet replay vs the single serving engine.

Replays the same hour stream through the single resilient engine and
through :mod:`repro.fleet` at increasing shard counts, asserting the
fleet contract before reporting throughput:

* the merged fleet event stream is **bitwise identical** to the single
  engine's, at every shard count and on both backends;
* the multi-process leg (the supervised backend, one forked host per
  shard) preserves that parity.

Speedups are only measurable on a multi-core host; on a single-core
box the process leg is skipped and the summary says
``degraded_single_core`` instead of publishing a bogus number (same
honesty rule as ``bench_parallel_sweep``).

Dual-mode:

* standalone — ``python benchmarks/bench_fleet_replay.py [--smoke]``
  writes ``BENCH_fleet_replay.json`` next to the repo root, a text
  summary under ``benchmarks/results/``, and the merged event log as
  ``benchmarks/results/fleet_events.jsonl`` (the CI artifact);
* under pytest — a ``--smoke``-sized run wired into the bench suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _reporting import format_table, peak_rss_mb, report

from repro import (
    GeneratorConfig,
    TelemetryGenerator,
    attach_scores,
    filter_sectors,
)
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, SupervisorConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience import ResilientHotSpotService, ResilientPredictionEngine
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_fleet_replay.json"
TIER_OUT = Path(__file__).parent.parent / "BENCH_fleet_replay_tier.json"
EVENT_LOG = Path(__file__).parent / "results" / "fleet_events.jsonl"

MODEL = "Average"
WINDOW = 7
HORIZONS = (1,)
TOP_K = 5

#: Default replay span of the --tier mode: one window of ring warm-up
#: plus a few prediction days — enough to exercise the mmap read path
#: end to end while keeping the leg CI-sized even at paper scale.
TIER_HOURS = (WINDOW + 3) * 24


def _build_dataset(n_towers: int, n_weeks: int):
    config = GeneratorConfig(n_towers=n_towers, n_weeks=n_weeks, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


def _train(dataset, registry_root: Path) -> int:
    """Register the frozen model both paths serve; returns start_day."""
    registry = ModelRegistry(registry_root)
    runner = SweepRunner(
        dataset, target="hot", n_estimators=3, n_training_days=3, seed=0
    )
    train_day = dataset.score_daily.shape[1] // 2
    train_and_register(
        runner, registry, (MODEL,), train_day, HORIZONS, (WINDOW,), overwrite=True
    )
    return train_day


def _drive(service, dataset, end_hour: int) -> tuple[list[str], float]:
    """Submit hours [0, end_hour); return (event lines, wall seconds)."""
    kpis = dataset.kpis
    lines = []
    start = time.perf_counter()
    for hour in range(end_hour):
        events = service.submit_tick(
            kpis.values[:, hour, :],
            kpis.missing[:, hour, :],
            dataset.calendar[hour],
            hour=hour,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines, time.perf_counter() - start


def _run_single(dataset, registry_root: Path, start_day: int, end_hour: int):
    ingestor = StreamIngestor.for_dataset(dataset, w_max=WINDOW)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(registry_root), target="hot",
        model=MODEL, window=WINDOW,
    )
    service = HotSpotService(
        engine,
        ServeConfig(horizons=HORIZONS, start_day=start_day, top_k=TOP_K),
    )
    return _drive(ResilientHotSpotService(service), dataset, end_hour)


def _run_fleet(
    dataset, registry_root, start_day, end_hour, shards, fleet_dir, supervise=None
):
    config = FleetConfig.for_dataset(
        dataset, registry_root, model=MODEL, window=WINDOW,
        horizons=HORIZONS, start_day=start_day, top_k=TOP_K, w_max=WINDOW,
    )
    fleet = build_fleet(fleet_dir, config, shards, supervise=supervise)
    try:
        lines, seconds = _drive(fleet, dataset, end_hour)
        return lines, seconds, fleet.backend.name
    finally:
        fleet.close()


def run_bench(smoke: bool = False, shard_counts: tuple[int, ...] | None = None) -> dict:
    """Replay single vs fleet; assert bitwise parity; return the summary."""
    cores = os.cpu_count() or 1
    if smoke:
        dataset = _build_dataset(n_towers=10, n_weeks=4)
        end_hour = 480
        if shard_counts is None:
            shard_counts = (1, 2)
    else:
        dataset = _build_dataset(n_towers=20, n_weeks=8)
        end_hour = 1176
        if shard_counts is None:
            shard_counts = (1, 2, 4)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        start_day = _train(dataset, root / "registry")
        base, single_seconds = _run_single(
            dataset, root / "registry", start_day, end_hour
        )

        legs = []
        for shards in shard_counts:
            lines, seconds, backend = _run_fleet(
                dataset, root / "registry", start_day, end_hour,
                shards, root / f"fleet-s{shards}",
            )
            legs.append({
                "shards": shards,
                "jobs": 1,
                "backend": backend,
                "seconds": round(seconds, 4),
                "ticks_per_second": round(end_hour / seconds, 1) if seconds else None,
                "parity": lines == base,
            })
        if cores >= 2:
            # One forked host per shard: the supervised backend.
            shards = max(s for s in shard_counts if s >= 2)
            lines, seconds, backend = _run_fleet(
                dataset, root / "registry", start_day, end_hour,
                shards, root / "fleet-proc", supervise=SupervisorConfig(),
            )
            legs.append({
                "shards": shards,
                "jobs": shards,
                "backend": backend,
                "seconds": round(seconds, 4),
                "ticks_per_second": round(end_hour / seconds, 1) if seconds else None,
                "parity": lines == base,
            })

    parity_all = all(leg["parity"] for leg in legs)
    assert parity_all, "fleet stream diverged from the single engine"

    process_legs = [leg for leg in legs if leg["jobs"] > 1]
    if process_legs:
        best = max(process_legs, key=lambda leg: leg["ticks_per_second"] or 0.0)
        process_speedup = (
            round(single_seconds / best["seconds"], 3) if best["seconds"] else None
        )
    else:
        process_speedup = "degraded_single_core"

    EVENT_LOG.parent.mkdir(exist_ok=True)
    with open(EVENT_LOG, "w", encoding="utf-8") as handle:
        for line in base:
            handle.write(line + "\n")

    return {
        "bench": "fleet_replay",
        "mode": "smoke" if smoke else "full",
        "cpu_count": cores,
        "n_sectors": dataset.n_sectors,
        "stream_hours": end_hour,
        "event_lines": len(base),
        "single_engine": {
            "seconds": round(single_seconds, 4),
            "ticks_per_second": (
                round(end_hour / single_seconds, 1) if single_seconds else None
            ),
        },
        "fleet": legs,
        "parity_all": parity_all,
        "process_speedup_vs_single": process_speedup,
        "event_log": str(EVENT_LOG),
    }


def run_tier_bench(
    tier_name: str,
    world_dir: Path,
    hours: int | None = None,
    shards: int = 2,
    chunk_weeks: int | None = None,
) -> dict:
    """Replay a memory-mapped size-tier world through the fleet.

    The out-of-core leg of the bench: the world lives in a chunked
    store (generated here, streaming, if *world_dir* is empty) and is
    served via ``open_dataset_mmap`` without ever materialising the
    full K tensor.  A small in-RAM companion world trains the served
    model — model inputs are per-sector features, so the sector count
    of the training world is independent of the served one.  Peak RSS
    is recorded next to throughput; at paper scale it must stay far
    below the in-RAM tensor size.

    Replay worlds are generated ``with_missing=False``: the serving
    engine requires imputed windows (the batch pipeline rejects
    incomplete tensors the same way), and streaming imputation is out
    of scope here.  The canonical with-missing tier worlds are the
    subject of the content-hash determinism checks, not of this leg.
    """
    from repro.data.chunked import open_dataset_mmap
    from repro.synth import SIZE_TIERS

    tier = SIZE_TIERS[tier_name]
    world_dir = Path(world_dir)
    generated = False
    generate_seconds = None
    if not (world_dir / "manifest.json").exists():
        start = time.perf_counter()
        TelemetryGenerator(tier.config()).generate_chunked(
            world_dir,
            chunk_weeks=chunk_weeks or tier.chunk_weeks,
            with_missing=False,
            generator_meta={"tier": tier.name},
        )
        generate_seconds = round(time.perf_counter() - start, 2)
        generated = True
    world = open_dataset_mmap(world_dir)
    assert world.kpis.is_memory_mapped, "tier world must be served from mmap"
    end_hour = min(hours or TIER_HOURS, world.kpis.n_hours)

    companion = _build_dataset(n_towers=10, n_weeks=4)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _train(companion, root / "registry")
        config = FleetConfig.for_dataset(
            world, root / "registry", model=MODEL, window=WINDOW,
            horizons=HORIZONS, start_day=WINDOW, top_k=TOP_K, w_max=WINDOW,
        )
        fleet = build_fleet(root / "fleet", config, shards)
        try:
            lines, seconds = _drive(fleet, world, end_hour)
        finally:
            fleet.close()

    in_ram_mb = round(world.kpis.nbytes / 2**20, 1)
    rss_mb = peak_rss_mb()
    return {
        "bench": "fleet_replay_tier",
        "tier": tier.name,
        "world_dir": str(world_dir),
        "generated_here": generated,
        "generate_seconds": generate_seconds,
        "n_sectors": world.n_sectors,
        "world_hours": world.kpis.n_hours,
        "stream_hours": end_hour,
        "shards": shards,
        "event_lines": len(lines),
        "seconds": round(seconds, 4),
        "ticks_per_second": round(end_hour / seconds, 1) if seconds else None,
        "in_ram_tensor_mb": in_ram_mb,
        "peak_rss_mb": rss_mb,
        "rss_below_in_ram": None if rss_mb is None else bool(rss_mb < in_ram_mb),
    }


def _render_tier(summary: dict) -> str:
    return (
        f"Fleet replay, tier '{summary['tier']}' served from mmap "
        f"({summary['world_dir']}):\n"
        f"  {summary['n_sectors']} sectors x {summary['world_hours']} h on disk; "
        f"replayed {summary['stream_hours']} h over {summary['shards']} shards\n"
        f"  {summary['event_lines']} event lines in {summary['seconds']:.2f}s "
        f"({summary['ticks_per_second']} ticks/s)\n"
        f"  peak RSS {summary['peak_rss_mb']} MB vs "
        f"{summary['in_ram_tensor_mb']} MB in-RAM tensor "
        f"(below: {summary['rss_below_in_ram']})"
    )


def _render(summary: dict) -> str:
    single = summary["single_engine"]
    rows = [["single", "-", "-", f"{single['seconds']:.2f}s",
             f"{single['ticks_per_second']}", "-"]]
    for leg in summary["fleet"]:
        rows.append([
            f"{leg['shards']} shard(s)",
            str(leg["jobs"]),
            leg["backend"],
            f"{leg['seconds']:.2f}s",
            f"{leg['ticks_per_second']}",
            "yes" if leg["parity"] else "NO",
        ])
    text = (
        f"Fleet replay, {summary['stream_hours']} h stream, "
        f"{summary['n_sectors']} sectors, {summary['cpu_count']} core(s), "
        f"{summary['event_lines']} event lines:\n"
    )
    text += format_table(
        ["engine", "jobs", "backend", "wall time", "ticks/s", "stream == single"],
        rows,
    )
    if summary["process_speedup_vs_single"] == "degraded_single_core":
        text += "\nprocess leg skipped: single-core host (degraded_single_core)\n"
    return text


def test_fleet_replay_smoke(benchmark):
    """Bench-suite entry: smoke-sized fleet vs single-engine replay."""
    summary = benchmark.pedantic(
        run_bench, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    report("fleet_replay", _render(summary))
    assert summary["parity_all"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream, small network (CI-sized)",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None,
        help="shard counts to benchmark (default: 1 2 [4])",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"JSON summary path (default {DEFAULT_OUT}, "
        f"or {TIER_OUT} with --tier)",
    )
    parser.add_argument(
        "--tier", default=None,
        help="opt-in out-of-core mode: replay a named size tier "
        "(small/paper/national) from a memory-mapped chunked store "
        "instead of the in-RAM parity bench",
    )
    parser.add_argument(
        "--world-dir", type=Path, default=None,
        help="chunked store of the --tier world (generated here, "
        "streaming, when missing)",
    )
    parser.add_argument(
        "--hours", type=int, default=None,
        help=f"replay span of the --tier mode (default {TIER_HOURS})",
    )
    args = parser.parse_args(argv)

    if args.tier is not None:
        if args.world_dir is None:
            parser.error("--tier requires --world-dir")
        summary = run_tier_bench(
            args.tier, args.world_dir, hours=args.hours,
            shards=max(args.shards) if args.shards else 2,
        )
        report("fleet_replay_tier", _render_tier(summary))
        out = args.out or TIER_OUT
        out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        return 0

    summary = run_bench(
        smoke=args.smoke,
        shard_counts=None if args.shards is None else tuple(args.shards),
    )
    report("fleet_replay", _render(summary))
    out = args.out or DEFAULT_OUT
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"wrote {summary['event_log']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
