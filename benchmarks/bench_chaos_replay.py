"""Benchmark — fault-injected serving replay (the chaos suite).

Drives a :class:`~repro.resilience.guard.ResilientHotSpotService`
through a deterministic chaos schedule (dropped/duplicated/reordered/
corrupted ticks, a forced dark sector, injected registry I/O failures)
and asserts the resilience contract before reporting throughput:

* zero unhandled exceptions out of ``submit_tick``;
* every injected fault is matched by a quarantine / reconcile /
  gap-fill event, and every lost hour is back-filled;
* registry failures degrade forecasts (then recover) instead of
  crashing the replay;
* no alert ever names the dark sector.

Dual-mode:

* standalone — ``python benchmarks/bench_chaos_replay.py [--smoke]``
  writes ``BENCH_chaos_replay.json`` next to the repo root, a text
  summary under ``benchmarks/results/``, and the full chaos event log
  as ``benchmarks/results/chaos_events.jsonl``.  A ``--smoke`` run
  writes no text summary, and its JSON and event logs go to the
  untracked ``_smoke`` siblings (the CI artifact);
* under pytest — a ``--smoke``-sized run wired into the bench suite.

``--fleet`` runs the **supervised-fleet chaos leg** instead (PR 8): a
two-shard fleet whose worker processes are deterministically SIGKILLed
and hung at the crash seams (plus a torn WAL tail at respawn), asserting
zero unhandled exceptions and a merged stream bitwise identical to the
fault-free run; a second, budget-exhausted pass must degrade the shard
through the fallback ladder and rejoin.  Its restart/degrade stats are
folded into ``BENCH_chaos_replay.json`` under ``"fleet"`` and the
supervision event log lands in
``benchmarks/results/fleet_supervisor_events.jsonl`` (the ``_smoke``
siblings of both with ``--smoke``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
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
from repro.core.experiment import SweepRunner
from repro.imputation import ForwardFillImputer
from repro.resilience import (
    ChaosConfig,
    FlakyRegistry,
    ResilientHotSpotService,
    ResilientPredictionEngine,
    run_chaos_replay,
)
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)
from repro.serve.telemetry import ServeTelemetry

DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_chaos_replay.json"
EVENT_LOG = Path(__file__).parent / "results" / "chaos_events.jsonl"
FLEET_EVENT_LOG = (
    Path(__file__).parent / "results" / "fleet_supervisor_events.jsonl"
)

WINDOW = 7
CHAOS_SEED = 2017  # fixed: the whole schedule derives from it


def _build_dataset(n_towers: int, n_weeks: int):
    config = GeneratorConfig(n_towers=n_towers, n_weeks=n_weeks, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, __ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    return attach_scores(dataset)


def _build_guard(dataset, registry_root: Path):
    registry = ModelRegistry(registry_root)
    runner = SweepRunner(
        dataset, target="hot", n_estimators=3, n_training_days=3, seed=0
    )
    train_day = dataset.score_daily.shape[1] // 2
    train_and_register(runner, registry, ("Average",), train_day, (1,), (WINDOW,))
    ingestor = StreamIngestor.for_dataset(dataset, w_max=WINDOW)
    flaky = FlakyRegistry(registry)
    engine = ResilientPredictionEngine(
        ingestor, flaky, model="Average", window=WINDOW,
        telemetry=ServeTelemetry(max_events=65536),
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=(1,), start_day=8, top_k=5)
    )
    return ResilientHotSpotService(service), flaky


def _check_contract(report_, config: ChaosConfig, end_hour: int, guard) -> None:
    """Assert the resilience invariants for this replay."""
    assert report_.unhandled == [], report_.unhandled

    injected = report_.injected_by_fault
    drops = {f["hour"] for f in report_.injected if f["fault"] == "drop"}
    corrupts = {f["hour"] for f in report_.injected if f["fault"] == "corrupt"}
    reorders = {f["hour"] for f in report_.injected if f["fault"] == "reorder"}
    duplicates = {f["hour"] for f in report_.injected if f["fault"] == "duplicate"}
    assert sum(injected.values()) >= 0.05 * end_hour, "schedule below the 5% bar"

    # Corrupt ticks quarantine on arrival; each reordered pair's
    # displaced tick conflicts with its own gap fill.
    quarantines = report_.events_of("quarantine")
    assert len(quarantines) == len(corrupts) + len(reorders)

    # Duplicates reconcile idempotently, exactly once each.
    assert len(report_.events_of("duplicate")) == len(duplicates)

    # Every lost hour before the last accepted tick is back-filled.
    accepted = [
        h for h in range(end_hour) if h not in drops | corrupts | reorders
    ]
    lost_before_end = {
        h for h in drops | corrupts if h < max(accepted)
    } | reorders
    gap_fills = report_.events_of("gap_fill")
    assert {e["hour"] for e in gap_fills} == lost_before_end

    # Registry faults degrade (and later recover), never crash.
    assert report_.events_of("degraded")
    assert report_.events_of("recovered")

    # The dark sector is announced and never alerted on afterwards.
    dark = [
        e for e in report_.events_of("sector_dark")
        if e["sector"] == config.dark_sector
    ]
    assert dark, "forced dark sector never crossed the threshold"
    cut = report_.events.index(dark[0])
    for event in report_.events[cut:]:
        if event.get("type") == "alert":
            assert config.dark_sector not in event["sectors"]
    assert guard.dark.went_dark_total >= 1


def run_bench(smoke: bool = False, registry_root: Path | None = None) -> dict:
    """Run the chaos replay, assert the contract, return the summary."""
    import tempfile

    if smoke:
        dataset = _build_dataset(n_towers=10, n_weeks=6)
        end_hour = 480
    else:
        dataset = _build_dataset(n_towers=20, n_weeks=10)
        end_hour = 1344
    config = ChaosConfig(
        seed=CHAOS_SEED,
        p_drop=0.03,
        p_duplicate=0.02,
        p_reorder=0.02,
        p_corrupt=0.03,
        dark_sector=1,
        dark_span=(end_hour - 264, end_hour),
        registry_fail_hours=(end_hour // 2, end_hour // 2 + 1),
    )

    with tempfile.TemporaryDirectory() as tmp:
        guard, flaky = _build_guard(dataset, Path(registry_root or tmp))
        start = time.perf_counter()
        chaos = run_chaos_replay(
            dataset, guard, config, end_hour=end_hour, flaky_registry=flaky
        )
        seconds = time.perf_counter() - start

    _check_contract(chaos, config, end_hour, guard)

    event_log = smoke_path(EVENT_LOG, smoke)
    event_log.parent.mkdir(exist_ok=True)
    with open(event_log, "w", encoding="utf-8") as handle:
        for fault in chaos.injected:
            handle.write(json.dumps({"record": "injected", **fault}) + "\n")
        for event in chaos.events:
            handle.write(json.dumps({"record": "event", **event}) + "\n")

    summary = chaos.summary()
    return {
        "bench": "chaos_replay",
        "mode": "smoke" if smoke else "full",
        "chaos_seed": CHAOS_SEED,
        "n_sectors": guard.ingestor.n_sectors,
        "stream_hours": end_hour,
        "seconds": round(seconds, 4),
        "ticks_per_second": (
            round(summary["ticks_submitted"] / seconds, 1) if seconds > 0 else None
        ),
        "registry_failures_injected": flaky.failures_injected,
        "contract_holds": True,
        "event_log": str(event_log),
        **summary,
    }


# ------------------------------------------------------- supervised fleet
def _train_fleet_registry(dataset, registry_root: Path) -> None:
    registry = ModelRegistry(registry_root)
    runner = SweepRunner(
        dataset, target="hot", n_estimators=3, n_training_days=3, seed=0
    )
    train_day = dataset.score_daily.shape[1] // 2
    train_and_register(runner, registry, ("Average",), train_day, (1,), (WINDOW,))


def _drive_fleet(fleet, dataset, end_hour: int) -> list[str]:
    kpis = dataset.kpis
    lines: list[str] = []
    for hour in range(end_hour):
        events = fleet.submit_tick(
            kpis.values[:, hour, :],
            kpis.missing[:, hour, :],
            dataset.calendar[hour],
            hour=hour,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines


def run_fleet_bench(smoke: bool = False) -> dict:
    """Supervised-fleet chaos: kill/hang workers, assert the contract.

    Two legs share one dataset and registry:

    * *recovery* — four deterministic process faults (SIGKILLs at every
      worker seam plus a hang) and a torn WAL tail at respawn, all
      within the restart budget: the merged stream must be **bitwise**
      the fault-free run's;
    * *degraded* — ``max_restarts=0``: the first death must degrade the
      shard (explicit ``shard_degraded``, fallback fragments, spooled
      ticks) and rejoin (``shard_recovered``) with no unhandled
      exception.
    """
    import tempfile

    from repro.fleet import FleetConfig, SupervisorConfig, build_fleet
    from repro.resilience import ProcessChaos, ProcessFault

    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return {"bench": "chaos_replay_fleet", "skipped": "fork unavailable"}

    if smoke:
        dataset = _build_dataset(n_towers=10, n_weeks=6)
        end_hour = 480
    else:
        dataset = _build_dataset(n_towers=20, n_weeks=10)
        end_hour = 960

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _train_fleet_registry(dataset, root / "registry")
        config = FleetConfig.for_dataset(
            dataset, root / "registry", model="Average", window=WINDOW,
            horizons=(1,), start_day=8, top_k=5, w_max=WINDOW,
            snapshot_every=48,
        )
        fleet = build_fleet(root / "baseline", config, 2)
        try:
            baseline = _drive_fleet(fleet, dataset, end_hour)
        finally:
            fleet.close()

        # Recovery leg: every seam, both fault actions, one torn tail.
        h = end_hour // 5
        faults = (
            ProcessFault(0, "mid_apply", h),
            ProcessFault(1, "mid_journal", 2 * h),
            ProcessFault(1, "post_journal", 3 * h),
            ProcessFault(0, "mid_apply", 4 * h, action="hang", hang_secs=30.0),
        )
        chaos = ProcessChaos(
            faults=faults, marker_dir=str(root / "markers"), wal_tail_shards=(1,)
        )
        supervision: list[dict] = []
        start = time.perf_counter()
        fleet = build_fleet(
            root / "supervised", config, 2,
            supervise=SupervisorConfig(heartbeat_secs=0.5),
            chaos=chaos,
            on_event=lambda record: supervision.append(
                {"leg": "recovery", **record}
            ),
        )
        try:
            lines = _drive_fleet(fleet, dataset, end_hour)
            stats = fleet.stats()
            assert fleet.backend.degraded_shards == []
        finally:
            fleet.close()
        seconds = time.perf_counter() - start
        assert lines == baseline, "supervised recovery broke stream parity"
        recovery = stats["fleet"]["supervisor"]
        assert recovery["worker_restarts"] >= len(faults)

        # Degraded leg: zero budget, one kill — degrade, then rejoin.
        chaos = ProcessChaos(
            faults=(ProcessFault(1, "mid_apply", 2 * h),),
            marker_dir=str(root / "markers-degraded"),
        )
        fleet = build_fleet(
            root / "degraded", config, 2,
            supervise=SupervisorConfig(max_restarts=0, poison_threshold=5),
            chaos=chaos,
            on_event=lambda record: supervision.append(
                {"leg": "degraded", **record}
            ),
        )
        try:
            lines = _drive_fleet(fleet, dataset, end_hour)
            stats = fleet.stats()
            assert fleet.backend.degraded_shards == [], "shard never rejoined"
        finally:
            fleet.close()
        kinds = [json.loads(line).get("event") for line in lines]
        assert "shard_degraded" in kinds and "shard_recovered" in kinds
        degraded = stats["fleet"]["supervisor"]
        for line in lines:
            event = json.loads(line)
            if event.get("event") in (
                "shard_degraded", "shard_recovered", "poison_block"
            ):
                supervision.append({"leg": "degraded", "in_stream": True, **event})

    event_log = smoke_path(FLEET_EVENT_LOG, smoke)
    event_log.parent.mkdir(exist_ok=True)
    with open(event_log, "w", encoding="utf-8") as handle:
        for record in supervision:
            handle.write(json.dumps(record) + "\n")

    return {
        "bench": "chaos_replay_fleet",
        "mode": "smoke" if smoke else "full",
        "n_sectors": dataset.n_sectors,
        "n_shards": 2,
        "stream_hours": end_hour,
        "seconds": round(seconds, 4),
        "ticks_per_second": round(end_hour / seconds, 1) if seconds > 0 else None,
        "recovered_bitwise": True,
        "worker_restarts": recovery["worker_restarts"],
        "heartbeat_timeouts": recovery["heartbeat_timeouts"],
        "poison_blocks": recovery["poison_blocks"],
        "degrade_transitions": degraded["degrade_transitions"],
        "degraded_seconds": degraded["degraded_seconds"],
        "spooled_ticks": degraded["spooled_ticks"],
        "supervision_events": len(supervision),
        "contract_holds": True,
        "event_log": str(event_log),
    }


def _render_fleet(summary: dict) -> str:
    if summary.get("skipped"):
        return f"Fleet chaos leg skipped: {summary['skipped']}\n"
    rows = [
        [key, summary[key]]
        for key in (
            "worker_restarts", "heartbeat_timeouts", "poison_blocks",
            "degrade_transitions", "spooled_ticks", "supervision_events",
        )
    ]
    text = (
        f"Supervised fleet chaos, {summary['stream_hours']} h stream, "
        f"{summary['n_sectors']} sectors on {summary['n_shards']} shards: "
        f"recovery leg in {summary['seconds']:.2f}s "
        f"({summary['ticks_per_second']} ticks/s), bitwise parity "
        f"{'held' if summary['recovered_bitwise'] else 'BROKE'}, "
        f"degraded leg rejoined cleanly\n"
    )
    text += format_table(["supervision stat", "count"], rows)
    return text


def _render(summary: dict) -> str:
    rows = [
        [fault, count]
        for fault, count in sorted(summary["injected"].items())
    ]
    rows += [
        [f"event:{kind}", count]
        for kind, count in sorted(summary["events"].items())
    ]
    text = (
        f"Chaos replay, {summary['stream_hours']} h stream, "
        f"{summary['n_sectors']} sectors, seed {summary['chaos_seed']}: "
        f"{summary['ticks_submitted']} ticks in {summary['seconds']:.2f}s "
        f"({summary['ticks_per_second']} ticks/s), "
        f"{summary['unhandled_exceptions']} unhandled exception(s)\n"
    )
    text += format_table(["fault / event", "count"], rows)
    return text


def test_chaos_replay_smoke(benchmark):
    """Bench-suite entry: smoke-sized chaos replay, contract asserted."""
    summary = benchmark.pedantic(
        run_bench, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    report("chaos_replay", _render(summary), persist=False)
    assert summary["unhandled_exceptions"] == 0
    assert summary["contract_holds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short stream, small network (CI-sized)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="run the supervised-fleet chaos leg instead of the replay; "
        "its stats fold into the same JSON summary under 'fleet'",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"JSON summary path (default {DEFAULT_OUT}, or its _smoke "
        "sibling with --smoke)",
    )
    args = parser.parse_args(argv)
    out = args.out or smoke_path(DEFAULT_OUT, args.smoke)

    if args.fleet:
        summary = run_fleet_bench(smoke=args.smoke)
        report("chaos_replay_fleet", _render_fleet(summary), persist=not args.smoke)
        merged = (
            json.loads(out.read_text(encoding="utf-8"))
            if out.exists()
            else {"bench": "chaos_replay"}
        )
        merged["fleet"] = summary
        out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        if not summary.get("skipped"):
            print(f"wrote {summary['event_log']}")
        return 0

    summary = run_bench(smoke=args.smoke)
    report("chaos_replay", _render(summary), persist=not args.smoke)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"wrote {summary['event_log']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
