"""Benchmark — the model-lifecycle control loop under injected drift.

Replays a stream whose event regime shifts at a known day (same-seed
splice via :func:`repro.synth.drift.drift_shifted_dataset`) through the
full serving + lifecycle stack and asserts the lifecycle contract
before reporting throughput:

* the shift is detected (``drift``) within the current window's width,
  with no false alarms before it;
* detection triggers a challenger retrain from the ring (``retrain``,
  trigger ``drift``);
* the challenger — fitted on post-shift data — beats the stale champion
  in shadow by at least the promotion threshold and is promoted, then
  survives its confirm window (``promotion``, ``promotion_confirmed``);
* the served pin and the durable state agree on the new champion.

Dual-mode:

* standalone — ``python benchmarks/bench_lifecycle.py [--smoke]``
  writes ``BENCH_lifecycle.json`` next to the repo root, a text summary
  under ``benchmarks/results/``, and the full lifecycle event log as
  ``benchmarks/results/lifecycle_events.jsonl``.  A ``--smoke`` run
  writes no text summary, and its JSON and event log go to the
  untracked ``_smoke`` siblings (the CI artifact);
* under pytest — a ``--smoke``-sized run wired into the bench suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _reporting import format_table, report, smoke_path

from repro import GeneratorConfig, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.imputation import ForwardFillImputer
from repro.lifecycle import (
    DriftConfig,
    LifecycleController,
    PromotionConfig,
    RetrainConfig,
)
from repro.resilience import ResilientHotSpotService
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)
from repro.synth.drift import drift_shifted_dataset, intensified_events

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_lifecycle.json"
EVENT_LOG = Path(__file__).parent / "results" / "lifecycle_events.jsonl"

SHIFT_FACTOR = 8.0  # post-shift event-rate multiplier
TRAIN_DAY = 30      # bootstrap champion / lifecycle start
DRIFT = DriftConfig(reference_days=7, current_days=4, alpha=0.01)
RETRAIN = RetrainConfig(
    model="RF-F1", target="hot", horizon=1, window=7,
    n_estimators=5, n_training_days=4, base_seed=0,
    cadence_days=0, min_days_between=5,
)
PROMO = PromotionConfig(
    min_delta=2.0, min_shadow_days=3, max_shadow_days=8,
    confirm_days=2, rollback_delta=0.0, min_days_between_promotions=5,
)


def _build_dataset(n_towers: int, n_weeks: int, shift_day: int):
    config = GeneratorConfig(n_towers=n_towers, n_weeks=n_weeks, seed=21)
    raw = drift_shifted_dataset(
        config, shift_day, intensified_events(config.events, factor=SHIFT_FACTOR)
    )
    dataset, __ = filter_sectors(raw)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


def _build_stack(dataset, registry_root: Path, n_jobs: int):
    registry = ModelRegistry(registry_root)
    runner = SweepRunner(
        dataset, target="hot", n_estimators=RETRAIN.n_estimators,
        n_training_days=RETRAIN.n_training_days, seed=RETRAIN.base_seed,
    )
    train_and_register(
        runner, registry, (RETRAIN.model,), TRAIN_DAY,
        (RETRAIN.horizon,), (RETRAIN.window,), n_jobs=1,
    )
    w_max = max(RETRAIN.window, DRIFT.total_days, RETRAIN.lookback_days)
    ingestor = StreamIngestor.for_dataset(dataset, w_max=w_max)
    engine = PredictionEngine(
        ingestor, registry, target="hot", model=RETRAIN.model,
        window=RETRAIN.window,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=(RETRAIN.horizon,), start_day=TRAIN_DAY, top_k=5)
    )
    controller = LifecycleController(
        engine, drift=DRIFT, retrain=RETRAIN, promotion=PROMO,
        start_day=TRAIN_DAY, n_jobs=n_jobs,
    )
    service.add_day_hook(controller.on_day)
    return ResilientHotSpotService(service), controller, engine


def _events_of(events: list[dict], kind: str) -> list[dict]:
    return [e for e in events if e.get("event") == kind]


def _check_contract(events: list[dict], controller, engine, shift_day: int) -> None:
    """Assert the lifecycle storyline for this replay."""
    drifts = _events_of(events, "drift")
    assert drifts, "injected drift was never detected"
    assert all(e["t_day"] > shift_day for e in drifts), "false alarm before shift"
    detection_day = drifts[0]["t_day"]
    assert detection_day <= shift_day + DRIFT.current_days, "detection too slow"

    retrains = _events_of(events, "retrain")
    assert retrains, "drift never triggered a retrain"
    assert retrains[0]["trigger"] == "drift"
    assert retrains[0]["t_day"] == detection_day

    promotions = _events_of(events, "promotion")
    assert promotions, "the post-shift challenger was never promoted"
    promotion = promotions[0]
    assert promotion["mean_delta"] >= PROMO.min_delta, promotion
    assert promotion["to_version"] == retrains[0]["version"]

    assert _events_of(events, "promotion_confirmed"), "promotion not confirmed"
    assert not _events_of(events, "rollback")
    # Drift can persist while the reference window still straddles the
    # shift, producing further retrain/promote cycles; the served pin
    # must track the most recent winner.
    assert controller.state.champion_version == promotions[-1]["to_version"]
    assert engine.active_version() == promotions[-1]["to_version"]


def run_bench(
    smoke: bool = False, registry_root: Path | None = None, n_jobs: int = 1
) -> dict:
    """Run the drift episode, assert the contract, return the summary."""
    import tempfile

    if smoke:
        dataset = _build_dataset(n_towers=12, n_weeks=10, shift_day=40)
        shift_day, end_day = 40, 50
    else:
        dataset = _build_dataset(n_towers=20, n_weeks=12, shift_day=50)
        shift_day, end_day = 50, 70
    end_hour = end_day * 24
    kpis = dataset.kpis

    with tempfile.TemporaryDirectory() as tmp:
        guard, controller, engine = _build_stack(
            dataset, Path(registry_root or tmp), n_jobs
        )
        events: list[dict] = []
        start = time.perf_counter()
        for hour in range(end_hour):
            events.extend(
                guard.submit_tick(
                    kpis.values[:, hour, :], kpis.missing[:, hour, :],
                    dataset.calendar[hour], hour=hour,
                )
            )
        seconds = time.perf_counter() - start
        _check_contract(events, controller, engine, shift_day)
        stats = controller.stats()
        n_sectors = engine.ingestor.n_sectors

    event_log = smoke_path(EVENT_LOG, smoke)
    event_log.parent.mkdir(exist_ok=True)
    with open(event_log, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")

    drifts = _events_of(events, "drift")
    promotion = _events_of(events, "promotion")[0]
    kinds = sorted({e["event"] for e in events if "event" in e})
    return {
        "bench": "lifecycle",
        "mode": "smoke" if smoke else "full",
        "n_sectors": n_sectors,
        "stream_hours": end_hour,
        "shift_day": shift_day,
        "seconds": round(seconds, 4),
        "ticks_per_second": round(end_hour / seconds, 1) if seconds > 0 else None,
        "detection_day": drifts[0]["t_day"],
        "detection_latency_days": drifts[0]["t_day"] - shift_day,
        "drift_events": len(drifts),
        "promotion_day": promotion["t_day"],
        "promotion_mean_delta": round(promotion["mean_delta"], 3),
        "champion_version": stats["champion_version"],
        "challenger_fits": stats["challenger_fits"],
        "drift_checks": stats["drift_checks"],
        "event_counts": {
            kind: len(_events_of(events, kind)) for kind in kinds
        },
        "contract_holds": True,
        "event_log": str(event_log),
    }


def _render(summary: dict) -> str:
    rows = [
        ["detection day (shift +)", f"{summary['detection_day']} "
                                    f"(+{summary['detection_latency_days']})"],
        ["promotion day", summary["promotion_day"]],
        ["promotion mean ∆ (%)", summary["promotion_mean_delta"]],
        ["champion version", summary["champion_version"]],
        ["challenger fits", summary["challenger_fits"]],
        ["drift checks", summary["drift_checks"]],
    ]
    rows += [
        [f"event:{kind}", count]
        for kind, count in sorted(summary["event_counts"].items())
    ]
    text = (
        f"Lifecycle drift episode, {summary['stream_hours']} h stream, "
        f"{summary['n_sectors']} sectors, shift at day {summary['shift_day']}: "
        f"{summary['seconds']:.2f}s ({summary['ticks_per_second']} ticks/s)\n"
    )
    text += format_table(["metric", "value"], rows)
    return text


def test_lifecycle_smoke(benchmark):
    """Bench-suite entry: smoke-sized drift episode, contract asserted."""
    summary = benchmark.pedantic(
        run_bench, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    report("lifecycle", _render(summary), persist=False)
    assert summary["contract_holds"]
    assert summary["champion_version"] >= 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream, small network (CI-sized)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for challenger fits (bitwise-identical output)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"JSON summary path (default {DEFAULT_OUT}, or its _smoke "
        "sibling with --smoke)",
    )
    args = parser.parse_args(argv)
    out = args.out or smoke_path(DEFAULT_OUT, args.smoke)

    summary = run_bench(smoke=args.smoke, n_jobs=args.jobs)
    report("lifecycle", _render(summary), persist=not args.smoke)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"wrote {summary['event_log']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
