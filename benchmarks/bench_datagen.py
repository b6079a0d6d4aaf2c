"""Benchmark — out-of-core data plane: streaming tier generation.

Generates named size-tier worlds (``small``/``paper``/``national``)
through the chunked, memory-mapped store and publishes the data-plane
numbers the rest of the bench suite builds on:

* **content-hash determinism** — every tier is generated in its own
  subprocess and its manifest ``content_hash`` is asserted against the
  pinned value below; the small tier is generated in *two* subprocesses
  to demonstrate cross-process bitwise reproducibility (the per-week
  child streams are keyed by ``SeedSequence`` lists, so the hash is
  stable across processes, platforms, and ``chunk_weeks``);
* **generation throughput and peak RSS per tier** — the streaming path
  must stay O(one chunk): at paper scale peak RSS is asserted to be
  below the in-RAM K-tensor size;
* **an out-of-core replay leg** — a memory-mapped tier world is
  opened for the first time (building its mmap cache) and replayed
  through a 2-shard fleet in a fresh process that generated nothing, so
  its peak RSS is the serving path's alone; at paper scale it is
  asserted to be below the in-RAM K-tensor size.

Dual-mode:

* standalone — ``python benchmarks/bench_datagen.py [--tiers small paper]``
  writes ``BENCH_datagen.json`` at the repo root and a text summary
  under ``benchmarks/results/``;
* under pytest — a small-tier-only run wired into the bench suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _reporting import format_table, peak_rss_mb, report

from repro.synth import SIZE_TIERS, TelemetryGenerator

REPO_ROOT = Path(__file__).parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_datagen.json"

#: The replay leg serves the cheapest model: it measures the mmap read
#: path and its RSS, not the forest.
MODEL = "Average"
WINDOW = 7
HORIZONS = (1,)
TOP_K = 5
REPLAY_SHARDS = 2

#: Default replay span: one window of ring warm-up plus a few
#: prediction days — the mmap read path end to end, CI-sized even at
#: paper scale.
REPLAY_HOURS = (WINDOW + 3) * 24

#: Pinned manifest content hashes of the named tiers (with missingness,
#: the tier's default chunking — but the hash is chunking-independent).
#: A mismatch means the generator's output changed: bump deliberately,
#: in the same commit as the change that moved it.
EXPECTED_SHA256 = {
    "small": "85f6b7adbc3d7aafa26941bb0bf793b855261c515b6bf570d424c4e718514f7b",
    "paper": "c4d7c7a6e8be4cdafe085e16be39f29d716a93a098c7acea3ae467461d6be7f4",
    "national": None,  # too large to pin in CI; hash still reported
}

#: Peak RSS of a generation subprocess must stay below this fraction of
#: the tier's in-RAM tensor size for tiers that dwarf the interpreter
#: baseline (the point of streaming generation).  Only asserted when
#: the tensor is at least ``_RSS_ASSERT_MIN_MB`` — for tiny tiers the
#: Python baseline dominates and the ratio is meaningless.
_RSS_FRACTION = 0.5
_RSS_ASSERT_MIN_MB = 1024.0


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _in_subprocess(function: str, *args: str) -> dict:
    """Call this module's *function* in a fresh interpreter; return its result.

    ``ru_maxrss`` is a process-lifetime high-water mark, so every
    measured step gets a process of its own; the generation children
    are also the cross-process determinism fixture.
    """
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import bench_datagen\n"
        "print(json.dumps(getattr(bench_datagen, sys.argv[2])(*sys.argv[3:])))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent), function, *args],
        capture_output=True, text=True, env=_subprocess_env(), check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def generate_tier(tier_name: str, world_dir: str) -> dict:
    """Child body: generate *tier_name* chunked into *world_dir*."""
    tier = SIZE_TIERS[tier_name]
    start = time.perf_counter()
    _, manifest = TelemetryGenerator(tier.config()).generate_chunked(
        world_dir, chunk_weeks=tier.chunk_weeks, generator_meta={"tier": tier.name}
    )
    return {
        "content_hash": manifest["content_hash"],
        "n_sectors": manifest["n_sectors"],
        "n_hours": manifest["n_hours"],
        "n_chunks": len(manifest["chunks"]),
        "seconds": round(time.perf_counter() - start, 2),
        "peak_rss_mb": peak_rss_mb(),
    }


def _tensor_mb(n_sectors: int, n_hours: int, n_kpis: int = 21) -> float:
    """In-RAM size of the K tensor (float64 values + bool missing)."""
    return round(n_sectors * n_hours * n_kpis * 9 / 2**20, 1)


def _run_tier(tier: str, work_dir: Path, determinism_runs: int) -> dict:
    runs = []
    for index in range(max(determinism_runs, 1)):
        world_dir = work_dir / f"{tier}-run{index}"
        runs.append(_in_subprocess("generate_tier", tier, str(world_dir)))
    first = runs[0]
    hashes = {run["content_hash"] for run in runs}
    expected = EXPECTED_SHA256.get(tier)
    tensor_mb = _tensor_mb(first["n_sectors"], first["n_hours"])
    rss = first["peak_rss_mb"]
    sector_hours = first["n_sectors"] * first["n_hours"]
    summary = {
        "tier": tier,
        "n_sectors": first["n_sectors"],
        "n_hours": first["n_hours"],
        "n_chunks": first["n_chunks"],
        "content_hash": first["content_hash"],
        "expected_hash": expected,
        "hash_ok": None if expected is None else first["content_hash"] == expected,
        "runs": len(runs),
        "cross_process_deterministic": len(hashes) == 1,
        "seconds": first["seconds"],
        "sector_hours_per_second": (
            round(sector_hours / first["seconds"], 0) if first["seconds"] else None
        ),
        "in_ram_tensor_mb": tensor_mb,
        "peak_rss_mb": rss,
        "rss_below_in_ram": None if rss is None else bool(rss < tensor_mb),
    }
    assert summary["cross_process_deterministic"], (
        f"tier '{tier}' content hash varied across processes: {sorted(hashes)}"
    )
    if expected is not None:
        assert summary["hash_ok"], (
            f"tier '{tier}' content hash {first['content_hash']} != pinned {expected}"
        )
    if rss is not None and tensor_mb >= _RSS_ASSERT_MIN_MB:
        assert rss < _RSS_FRACTION * tensor_mb, (
            f"tier '{tier}' generation peaked at {rss} MB — not streaming "
            f"(in-RAM tensor is {tensor_mb} MB)"
        )
    return summary


def prepare_replay_world(tier_name: str, world_dir: str) -> dict:
    """Child body: generate the replay world into *world_dir* if missing.

    Replay worlds are generated ``with_missing=False``: the serving
    engine requires imputed windows (the batch pipeline rejects
    incomplete tensors the same way), and streaming imputation is out
    of scope here.
    """
    tier = SIZE_TIERS[tier_name]
    world_dir = Path(world_dir)
    generate_seconds = None
    if not (world_dir / "manifest.json").exists():
        start = time.perf_counter()
        TelemetryGenerator(tier.config()).generate_chunked(
            world_dir, chunk_weeks=tier.chunk_weeks, with_missing=False,
            generator_meta={"tier": tier.name},
        )
        generate_seconds = round(time.perf_counter() - start, 2)
    return {"generated_here": generate_seconds is not None,
            "generate_seconds": generate_seconds}


def _companion_registry(registry_root: Path) -> None:
    """Register the served model, trained on a small in-RAM world.

    Model inputs are per-sector features, so the training world's
    sector count is independent of the served one.
    """
    from repro import GeneratorConfig, attach_scores, filter_sectors
    from repro.core.experiment import SweepRunner
    from repro.imputation import ForwardFillImputer
    from repro.serve import ModelRegistry, train_and_register

    dataset = TelemetryGenerator(GeneratorConfig(n_towers=10, n_weeks=4, seed=7)).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    runner = SweepRunner(
        attach_scores(dataset), target="hot", n_estimators=3, n_training_days=3, seed=0
    )
    train_and_register(
        runner, ModelRegistry(registry_root), (MODEL,),
        dataset.score_daily.shape[1] // 2, HORIZONS, (WINDOW,), overwrite=True,
    )


def replay_world(tier_name: str, world_dir: str, hours: str) -> dict:
    """Child body: replay a memory-mapped tier world through the fleet.

    The world is served via ``open_dataset_mmap`` without ever
    materialising the full K tensor.  This child makes the world's
    first open, which builds the hour-major mmap cache, so its peak RSS
    covers what serving a fresh chunked world costs: cache build plus
    replay, with generation left to the preparing child.
    """
    from repro.data.chunked import open_dataset_mmap
    from repro.fleet import FleetConfig, build_fleet

    world = open_dataset_mmap(world_dir)
    assert world.kpis.is_memory_mapped, "tier world must be served from mmap"
    end_hour = min(int(hours), world.kpis.n_hours)
    kpis = world.kpis
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _companion_registry(root / "registry")
        config = FleetConfig.for_dataset(
            world, root / "registry", model=MODEL, window=WINDOW,
            horizons=HORIZONS, start_day=WINDOW, top_k=TOP_K, w_max=WINDOW,
        )
        fleet = build_fleet(root / "fleet", config, REPLAY_SHARDS)
        try:
            start = time.perf_counter()
            for hour in range(end_hour):
                events = fleet.submit_tick(
                    kpis.values[:, hour, :], kpis.missing[:, hour, :],
                    world.calendar[hour], hour=hour,
                )
                lines.extend(json.dumps(event) for event in events)
            seconds = time.perf_counter() - start
        finally:
            fleet.close()

    in_ram_mb = round(kpis.nbytes / 2**20, 1)
    rss_mb = peak_rss_mb()
    return {
        "bench": "fleet_replay_tier",
        "tier": tier_name,
        "world_dir": str(world_dir),
        "n_sectors": world.n_sectors,
        "world_hours": kpis.n_hours,
        "stream_hours": end_hour,
        "shards": REPLAY_SHARDS,
        "event_lines": len(lines),
        "seconds": round(seconds, 4),
        "ticks_per_second": round(end_hour / seconds, 1) if seconds else None,
        "in_ram_tensor_mb": in_ram_mb,
        "peak_rss_mb": rss_mb,
        "rss_below_in_ram": None if rss_mb is None else bool(rss_mb < in_ram_mb),
    }


def _run_replay_leg(tier: str, work_dir: Path, hours: int | None) -> dict:
    """Generate the replay world in one child, open and replay it in another."""
    world_dir = str(work_dir / f"{tier}-replay-world")
    prepared = _in_subprocess("prepare_replay_world", tier, world_dir)
    replay = _in_subprocess("replay_world", tier, world_dir, str(hours or REPLAY_HOURS))
    return {**replay, **prepared}


def run_bench(
    tiers: tuple[str, ...] = ("small", "paper"),
    work_dir: Path | None = None,
    determinism_runs: int = 2,
    replay_tier: str | None = None,
    replay_hours: int | None = None,
) -> dict:
    """Generate every requested tier; assert hashes; run the replay leg.

    ``determinism_runs`` applies to the first (smallest) tier only —
    re-generating the paper tier just to re-hash it would double the
    bench for no extra signal once the small tier proves the streams
    are process-independent.
    """
    own_tmp = None
    if work_dir is None:
        own_tmp = tempfile.TemporaryDirectory()
        work_dir = Path(own_tmp.name)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        tier_summaries = [
            _run_tier(tier, work_dir, determinism_runs if index == 0 else 1)
            for index, tier in enumerate(tiers)
        ]
        replay = _run_replay_leg(
            replay_tier or tiers[-1], work_dir, replay_hours
        )
        if replay["in_ram_tensor_mb"] >= _RSS_ASSERT_MIN_MB:
            assert replay["rss_below_in_ram"], (
                f"replay peak RSS {replay['peak_rss_mb']} MB not below the "
                f"in-RAM tensor ({replay['in_ram_tensor_mb']} MB)"
            )
        return {
            "bench": "datagen",
            "cpu_count": os.cpu_count() or 1,
            "tiers": tier_summaries,
            "replay": replay,
        }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _render(summary: dict) -> str:
    rows = []
    for tier in summary["tiers"]:
        hash_state = {True: "pinned", False: "MISMATCH", None: "unpinned"}[
            tier["hash_ok"]
        ]
        rows.append([
            tier["tier"],
            f"{tier['n_sectors']}x{tier['n_hours']}",
            tier["content_hash"][:12],
            hash_state,
            "yes" if tier["cross_process_deterministic"] else "NO",
            f"{tier['seconds']:.1f}s",
            f"{tier['peak_rss_mb']}",
            f"{tier['in_ram_tensor_mb']}",
        ])
    text = "Streaming tier generation (each run is its own process):\n"
    text += format_table(
        ["tier", "world", "sha256", "hash", "deterministic",
         "wall", "peak RSS MB", "in-RAM MB"],
        rows,
    )
    replay = summary["replay"]
    text += (
        f"\nout-of-core replay ({replay['tier']}, {replay['shards']} shards, "
        f"{replay['stream_hours']} h): {replay['ticks_per_second']} ticks/s, "
        f"peak RSS {replay['peak_rss_mb']} MB vs "
        f"{replay['in_ram_tensor_mb']} MB in-RAM "
        f"(below: {replay['rss_below_in_ram']})\n"
    )
    return text


def test_datagen_smoke(benchmark):
    """Bench-suite entry: small tier only — generate twice, replay once."""
    summary = benchmark.pedantic(
        run_bench, kwargs={"tiers": ("small",), "replay_hours": 240},
        rounds=1, iterations=1,
    )
    report("datagen", _render(summary), persist=False)
    assert all(t["cross_process_deterministic"] for t in summary["tiers"])
    assert all(t["hash_ok"] is not False for t in summary["tiers"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiers", nargs="+", default=["small", "paper"],
        help="size tiers to generate (default: small paper)",
    )
    parser.add_argument(
        "--work-dir", type=Path, default=None,
        help="directory for generated worlds (default: a temp dir, "
        "removed afterwards; pass a path to keep the worlds)",
    )
    parser.add_argument(
        "--determinism-runs", type=int, default=2,
        help="subprocess generations of the first tier (hashes must agree)",
    )
    parser.add_argument(
        "--replay-tier", default=None,
        help="tier of the out-of-core replay leg (default: last of --tiers)",
    )
    parser.add_argument(
        "--replay-hours", type=int, default=None,
        help=f"replay span in hours (default {REPLAY_HOURS})",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"JSON summary path (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    summary = run_bench(
        tiers=tuple(args.tiers),
        work_dir=args.work_dir,
        determinism_runs=args.determinism_runs,
        replay_tier=args.replay_tier,
        replay_hours=args.replay_hours,
    )
    report("datagen", _render(summary))
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
