"""Benchmark — vectorized serving hot path vs the PR-6 replay loop.

Replays the same KPI stream through the serving stack twice per layer:

* **legacy** — the PR-6 hot path: per-hour ingest, per-tree Python
  forest loop, per-horizon ``np.percentile`` feature recomputation;
* **packed** — the vectorized path: columnar micro-batch ingest
  (``--batch-hours``), the :class:`~repro.ml.packed.PackedForest`
  struct-of-arrays kernel, the per-day percentile ring and the
  cross-horizon design cache.

Layers: the single :class:`~repro.serve.HotSpotService`, the resilient
engine (validation guard + WAL journal), and the 1/2-shard fleet.  The
emitted event streams must be **bitwise identical** across every leg —
throughput is only reported after parity is asserted.  A packed-vs-
legacy kernel micro-benchmark (same design matrix, bitwise-compared) is
included so kernel regressions are visible without the serving noise.

Regression gate: fails when any parity flag is false or the packed
serve path is slower than legacy.  A full run is also held to 80% of
the packed-vs-legacy serve speedup in the committed
``BENCH_serve_throughput.json`` (a full-mode baseline); the speedup
ratio, not absolute ticks/s, so the floor holds across host sizes.  CI
runs ``--smoke``, which has no committed baseline, so CI checks parity
on every leg and packed faster than legacy.  Smoke speedups spread too
widely for a floor: ten runs on one 2-vCPU host ranged 7.71-19.59x.

Dual-mode:

* standalone — ``python benchmarks/bench_serve_throughput.py [--smoke]``
  writes ``BENCH_serve_throughput.json`` at the repo root and a text
  summary under ``benchmarks/results/``; a ``--smoke`` run writes only
  the untracked ``BENCH_serve_throughput_smoke.json``;
* under pytest — a ``--smoke``-sized run wired into the bench suite.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from _reporting import format_table, report, smoke_path
from tests.oracles import percentile_features_reference, predict_proba_legacy

import repro.ml.forest as forest_mod
from repro import (
    GeneratorConfig,
    TelemetryGenerator,
    attach_scores,
    filter_sectors,
)
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience import ResilientHotSpotService, ResilientPredictionEngine
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.validate import DarkSectorTracker
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)
from repro.serve.registry import ModelKey

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_serve_throughput.json"
RESULTS_DIR = Path(__file__).parent / "results"

MODEL = "RF-F1"
TOP_K = 5
BATCH_HOURS = 24

#: Paper regime (Sec. IV): RF-F1 with a deep forest over a 7-day
#: percentile window, three horizons, a few hundred sectors.
FULL = {
    "n_towers": 100, "n_weeks": 8, "n_estimators": 128,
    "horizons": (1, 3, 7), "window": 7,
}
SMOKE = {
    "n_towers": 10, "n_weeks": 4, "n_estimators": 16,
    "horizons": (1, 2), "window": 3,
}


def _build_dataset(n_towers: int, n_weeks: int):
    config = GeneratorConfig(n_towers=n_towers, n_weeks=n_weeks, seed=5)
    dataset = TelemetryGenerator(config).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


def _train(dataset, registry_root: Path, params) -> int:
    registry = ModelRegistry(registry_root)
    runner = SweepRunner(dataset, target="hot", n_estimators=params["n_estimators"], seed=3)
    train_day = dataset.score_daily.shape[1] // 2
    train_and_register(
        runner, registry, (MODEL,), train_day,
        params["horizons"], (params["window"],), overwrite=True,
    )
    return train_day


@contextlib.contextmanager
def legacy_path(registry: ModelRegistry, params):
    """Pin the PR-6 hot path: per-tree loop, per-horizon percentiles.

    Swaps the packed predict kernel back to the legacy per-tree loop,
    disables the engine's design/percentile caches, and rebinds the
    served models' feature view to the ``np.percentile`` reference —
    the exact per-call work the PR-6 serving loop did.
    """
    saved_predict = forest_mod.RandomForestClassifier.predict_proba
    saved_design = PredictionEngine._design
    forest_mod.RandomForestClassifier.predict_proba = predict_proba_legacy
    PredictionEngine._design = lambda self, model, t_day, window: None
    saved_views = []
    for horizon in params["horizons"]:
        model = registry.get(ModelKey("hot", MODEL, horizon, params["window"]))
        saved_views.append((model, model._view))
        model._view = percentile_features_reference
    try:
        yield
    finally:
        forest_mod.RandomForestClassifier.predict_proba = saved_predict
        PredictionEngine._design = saved_design
        for model, view in saved_views:
            model._view = view


# ------------------------------------------------------------------ drivers
def _drive_service(service, dataset, end_hour: int, batch_hours: int):
    """Replay [0, end_hour) through HotSpotService; (lines, seconds)."""
    kpis = dataset.kpis
    lines: list[str] = []
    start = time.perf_counter()
    if batch_hours == 1:
        for hour in range(end_hour):
            events = service.ingest_hour(
                kpis.values[:, hour, :], kpis.missing[:, hour, :],
                dataset.calendar[hour],
            )
            lines.extend(json.dumps(event) for event in events)
    else:
        for lo in range(0, end_hour, batch_hours):
            hi = min(lo + batch_hours, end_hour)
            events = service.ingest_block(
                kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
                dataset.calendar[lo:hi],
            )
            lines.extend(json.dumps(event) for event in events)
    return lines, time.perf_counter() - start


def _drive_guarded(guarded, dataset, end_hour: int, batch_hours: int):
    """Replay through the resilient guard (submit_tick / submit_block)."""
    kpis = dataset.kpis
    lines: list[str] = []
    start = time.perf_counter()
    if batch_hours == 1:
        for hour in range(end_hour):
            events = guarded.submit_tick(
                kpis.values[:, hour, :], kpis.missing[:, hour, :],
                dataset.calendar[hour], hour=hour,
            )
            lines.extend(json.dumps(event) for event in events)
    else:
        for lo in range(0, end_hour, batch_hours):
            hi = min(lo + batch_hours, end_hour)
            events = guarded.submit_block(
                kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
                dataset.calendar[lo:hi], first_hour=lo,
            )
            lines.extend(json.dumps(event) for event in events)
    return lines, time.perf_counter() - start


def _make_service(dataset, registry, start_day, params):
    ingestor = StreamIngestor.for_dataset(dataset, w_max=params["window"])
    engine = PredictionEngine(
        ingestor, registry, model=MODEL, window=params["window"]
    )
    return HotSpotService(
        engine,
        ServeConfig(horizons=params["horizons"], start_day=start_day, top_k=TOP_K),
    )


def _make_guarded(dataset, registry, start_day, params, directory):
    ingestor = StreamIngestor.for_dataset(dataset, w_max=params["window"])
    engine = ResilientPredictionEngine(
        ingestor, registry, target="hot", model=MODEL, window=params["window"]
    )
    service = HotSpotService(
        engine,
        ServeConfig(horizons=params["horizons"], start_day=start_day, top_k=TOP_K),
    )
    checkpoint = CheckpointManager.for_ingestor(
        directory, ingestor, snapshot_every=100_000
    )
    return ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6),
        checkpoint=checkpoint,
    )


def _run_fleet(dataset, registry_root, start_day, params, shards, fleet_dir):
    config = FleetConfig.for_dataset(
        dataset, registry_root, model=MODEL, window=params["window"],
        horizons=params["horizons"], start_day=start_day, top_k=TOP_K,
        w_max=params["window"], dark_threshold_hours=6,
    )
    fleet = build_fleet(fleet_dir, config, shards)
    kpis = dataset.kpis
    end_hour = kpis.n_hours
    lines: list[str] = []
    start = time.perf_counter()
    try:
        for lo in range(0, end_hour, BATCH_HOURS):
            hi = min(lo + BATCH_HOURS, end_hour)
            events = fleet.submit_block(
                kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
                dataset.calendar[lo:hi], first_hour=lo,
            )
            lines.extend(json.dumps(event) for event in events)
    finally:
        fleet.close()
    return lines, time.perf_counter() - start


# ------------------------------------------------------------ kernel micro
def _kernel_micro(registry, dataset, params, end_hour):
    """Packed vs legacy predict on the same design matrix, bitwise."""
    model = registry.get(
        ModelKey("hot", MODEL, params["horizons"][0], params["window"])
    )
    forest = model._model
    if not isinstance(forest, forest_mod.RandomForestClassifier):
        return None  # degenerate training day; nothing to measure
    ingestor = StreamIngestor.for_dataset(dataset, w_max=params["window"])
    kpis = dataset.kpis
    for lo in range(0, end_hour, BATCH_HOURS):
        hi = min(lo + BATCH_HOURS, end_hour)
        ingestor.ingest_block(
            kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
            dataset.calendar[lo:hi],
        )
    design = model.build_design(
        ingestor.feature_window(ingestor.last_complete_day, params["window"])
    )
    forest.packed()  # pack outside the timed region (cached thereafter)
    packed_rounds, legacy_rounds = 20, 5
    start = time.perf_counter()
    for _ in range(packed_rounds):
        packed_out = forest.predict_proba(design)
    packed_ms = 1e3 * (time.perf_counter() - start) / packed_rounds
    start = time.perf_counter()
    for _ in range(legacy_rounds):
        legacy_out = predict_proba_legacy(forest, design)
    legacy_ms = 1e3 * (time.perf_counter() - start) / legacy_rounds
    parity = bool(
        np.array_equal(packed_out.view(np.uint64), legacy_out.view(np.uint64))
    )
    return {
        "n_samples": int(design.shape[0]),
        "n_trees": forest.n_estimators,
        "packed_ms": round(packed_ms, 3),
        "legacy_ms": round(legacy_ms, 3),
        "speedup": round(legacy_ms / packed_ms, 2) if packed_ms else None,
        "parity": parity,
    }


# ------------------------------------------------------------------- bench
def _leg(layer, mode, batch_hours, lines, seconds, end_hour, base):
    return {
        "layer": layer,
        "path": mode,
        "batch_hours": batch_hours,
        "seconds": round(seconds, 4),
        "ticks_per_second": round(end_hour / seconds, 1) if seconds else None,
        "parity": lines == base,
    }


def run_bench(smoke: bool = False) -> dict:
    params = SMOKE if smoke else FULL
    dataset = _build_dataset(params["n_towers"], params["n_weeks"])
    end_hour = dataset.kpis.n_hours

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        start_day = _train(dataset, root / "registry", params)
        registry = ModelRegistry(root / "registry")
        for horizon in params["horizons"]:  # warm-load outside timers
            registry.get(ModelKey("hot", MODEL, horizon, params["window"]))

        legs = []

        # -- single service: the PR-6 replay loop is the baseline leg.
        with legacy_path(registry, params):
            base, leg_seconds = _drive_service(
                _make_service(dataset, registry, start_day, params),
                dataset, end_hour, batch_hours=1,
            )
        legs.append(_leg("serve", "legacy", 1, base, leg_seconds, end_hour, base))
        for batch in (1, BATCH_HOURS):
            lines, seconds = _drive_service(
                _make_service(dataset, registry, start_day, params),
                dataset, end_hour, batch_hours=batch,
            )
            legs.append(_leg("serve", "packed", batch, lines, seconds, end_hour, base))

        # -- resilient engine: guard + WAL journal on both paths.
        with legacy_path(registry, params):
            guarded_base, seconds = _drive_guarded(
                _make_guarded(dataset, registry, start_day, params, root / "g-legacy"),
                dataset, end_hour, batch_hours=1,
            )
        legs.append(
            _leg("resilient", "legacy", 1, guarded_base, seconds, end_hour, guarded_base)
        )
        lines, seconds = _drive_guarded(
            _make_guarded(dataset, registry, start_day, params, root / "g-packed"),
            dataset, end_hour, batch_hours=BATCH_HOURS,
        )
        legs.append(
            _leg("resilient", "packed", BATCH_HOURS, lines, seconds, end_hour, guarded_base)
        )

        # -- fleet: sharded serving, micro-batch broadcast.  The merged
        # fleet stream must equal the single resilient stream.
        for shards in (1, 2):
            lines, seconds = _run_fleet(
                dataset, root / "registry", start_day, params,
                shards, root / f"fleet-s{shards}",
            )
            legs.append(
                _leg(f"fleet-{shards}shard", "packed", BATCH_HOURS,
                     lines, seconds, end_hour, guarded_base)
            )

        kernel = _kernel_micro(registry, dataset, params, end_hour)

    parity_all = all(leg["parity"] for leg in legs) and (
        kernel is None or kernel["parity"]
    )
    assert parity_all, "a leg diverged from the legacy event stream"

    def _tps(layer, path):
        return next(
            leg["ticks_per_second"] for leg in legs
            if leg["layer"] == layer and leg["path"] == path
            and (path == "legacy" or leg["batch_hours"] == BATCH_HOURS)
        )

    speedups = {
        "serve": round(_tps("serve", "packed") / _tps("serve", "legacy"), 2),
        "resilient": round(
            _tps("resilient", "packed") / _tps("resilient", "legacy"), 2
        ),
    }

    return {
        "bench": "serve_throughput",
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count() or 1,
        "n_sectors": dataset.n_sectors,
        "stream_hours": end_hour,
        "model": {
            "name": MODEL,
            "n_estimators": params["n_estimators"],
            "horizons": list(params["horizons"]),
            "window": params["window"],
        },
        "legs": legs,
        "kernel": kernel,
        "parity_all": parity_all,
        "speedup_vs_legacy": speedups,
    }


# ------------------------------------------------------------------- gate
def regression_gate(summary: dict, baseline_path: Path = DEFAULT_OUT) -> list[str]:
    """Failure reasons, empty when the gate passes.

    Fails on ``parity=false`` anywhere, when packed serving is slower
    than legacy, or when the packed-vs-legacy serve speedup drops below
    80% of a baseline of the same mode (a >20% relative throughput
    regression).  Ratios, not absolute ticks/s, so slow hosts don't
    trip the gate.  The committed baseline is a full run, so a smoke
    summary meets only the first two clauses.
    """
    reasons = []
    if not summary["parity_all"]:
        reasons.append("bitwise parity broken between legacy and packed paths")
    current = summary["speedup_vs_legacy"]["serve"]
    if current < 1.0:
        reasons.append(f"packed path slower than legacy ({current}x)")
    if baseline_path.exists():
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            baseline = None
        if baseline and baseline.get("mode") == summary["mode"]:
            floor = 0.8 * baseline["speedup_vs_legacy"]["serve"]
            if current < floor:
                reasons.append(
                    f"serve speedup {current}x fell below 80% of baseline "
                    f"{baseline['speedup_vs_legacy']['serve']}x"
                )
    return reasons


# ------------------------------------------------------------------ report
def _render(summary: dict) -> str:
    rows = [
        [
            leg["layer"],
            leg["path"],
            str(leg["batch_hours"]),
            f"{leg['seconds']:.2f}s",
            f"{leg['ticks_per_second']:,.0f}",
            "yes" if leg["parity"] else "NO",
        ]
        for leg in summary["legs"]
    ]
    model = summary["model"]
    text = (
        f"Serving hot path, {summary['stream_hours']} h stream, "
        f"{summary['n_sectors']} sectors, {model['name']} x{model['n_estimators']} "
        f"trees, horizons {tuple(model['horizons'])}, w={model['window']}:\n"
    )
    text += format_table(
        ["layer", "path", "batch", "wall time", "ticks/s", "parity"], rows
    )
    text += (
        f"\nspeedup vs PR-6 replay loop: serve "
        f"{summary['speedup_vs_legacy']['serve']}x, resilient "
        f"{summary['speedup_vs_legacy']['resilient']}x\n"
    )
    if summary["kernel"]:
        k = summary["kernel"]
        text += (
            f"predict kernel ({k['n_samples']} samples x {k['n_trees']} trees): "
            f"packed {k['packed_ms']}ms vs legacy {k['legacy_ms']}ms "
            f"= {k['speedup']}x, parity={'yes' if k['parity'] else 'NO'}\n"
        )
    return text


def test_serve_throughput_smoke(benchmark):
    """Bench-suite entry: smoke-sized hot-path replay with the gate."""
    summary = benchmark.pedantic(run_bench, kwargs={"smoke": True}, rounds=1, iterations=1)
    report("serve_throughput", _render(summary), persist=False)
    assert summary["parity_all"]
    assert not regression_gate(summary)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream, small forest (CI-sized)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"JSON summary path (default {DEFAULT_OUT}, or its _smoke "
        "sibling with --smoke)",
    )
    args = parser.parse_args(argv)
    out = args.out or smoke_path(DEFAULT_OUT, args.smoke)

    summary = run_bench(smoke=args.smoke)
    report("serve_throughput", _render(summary), persist=not args.smoke)
    failures = regression_gate(summary)
    summary["regression_gate"] = {"passed": not failures, "reasons": failures}
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if failures:
        for reason in failures:
            print(f"GATE FAILURE: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
