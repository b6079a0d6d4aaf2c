"""Fleet merge parity: the sharded stream is bitwise the single engine's.

The contract under test (DESIGN.md 3f): for a static-champion fleet,
``FleetCoordinator.submit_tick`` emits — event for event, byte for byte
— what a single :class:`ResilientHotSpotService` over the whole network
emits, at any shard count and on either backend, including under
faults (duplicates, malformed ticks, gaps, dark sectors).
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, SupervisorConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.guard import ResilientHotSpotService
from repro.resilience.validate import DarkSectorTracker
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

HORIZONS = (1, 2)
START_DAY = 6
TOP_K = 3
DARK_T = 6  # hours before a sector counts as dark (small: short replay)
END_HOUR = 380
DARK_SECTORS = slice(0, 3)
DARK_SPAN = (250, 300)


def _script_ticks(dataset):
    """The faulted tick schedule both paths are driven with.

    Hour 100 re-sends hour 99 (duplicate), hour 200 sends a malformed
    shape (quarantine), hours 150-151 are skipped (gap fill), and
    sectors 0-2 go fully missing for hours 250-299 (dark masking).
    """
    kpis = dataset.kpis
    out = []
    hour = 0
    while hour < END_HOUR:
        values = kpis.values[:, hour, :].copy()
        missing = kpis.missing[:, hour, :].copy()
        if DARK_SPAN[0] <= hour < DARK_SPAN[1]:
            values[DARK_SECTORS, :] = np.nan
            missing[DARK_SECTORS, :] = True
        cal = dataset.calendar[hour]
        if hour == 100:
            out.append(
                (
                    kpis.values[:, 99, :].copy(),
                    kpis.missing[:, 99, :].copy(),
                    dataset.calendar[99],
                    99,
                )
            )
        if hour == 200:
            out.append((values[:, :2], None, None, 200))
        if hour == 150:
            hour = 152
            values = kpis.values[:, hour, :].copy()
            missing = kpis.missing[:, hour, :].copy()
            cal = dataset.calendar[hour]
        out.append((values, missing, cal, hour))
        hour += 1
    return out


@pytest.fixture(scope="module")
def fleet_env(tmp_path_factory):
    """Small scored dataset + trained registry + faulted tick script."""
    config = GeneratorConfig(n_towers=8, n_weeks=3, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("fleet-parity")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    return SimpleNamespace(
        dataset=dataset,
        registry_root=root / "registry",
        ticks=_script_ticks(dataset),
        root=root,
    )


def _drive(service, ticks):
    lines = []
    for values, missing, cal, hour in ticks:
        for event in service.submit_tick(values, missing, cal, hour=hour):
            lines.append(json.dumps(event))
    return lines


def _single_lines(env, top_k=TOP_K):
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.registry_root), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=top_k)
    )
    guarded = ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(
            env.dataset.n_sectors, threshold_hours=DARK_T
        ),
    )
    return _drive(guarded, env.ticks)


def _fleet_config(env, top_k=TOP_K):
    return FleetConfig.for_dataset(
        env.dataset, env.registry_root, model="Persist", window=3,
        horizons=HORIZONS, start_day=START_DAY, top_k=top_k, w_max=7,
        dark_threshold_hours=DARK_T,
    )


def _fleet_lines(env, directory, n_shards, top_k=TOP_K, supervise=None):
    fleet = build_fleet(
        directory, _fleet_config(env, top_k), n_shards, supervise=supervise
    )
    try:
        return _drive(fleet, env.ticks), fleet.stats()
    finally:
        fleet.close()


@pytest.fixture(scope="module")
def baseline(fleet_env):
    return _single_lines(fleet_env)


def test_faults_actually_fire(baseline):
    kinds = set()
    for line in baseline:
        event = json.loads(line)
        kinds.add(event.get("type") or event.get("event"))
    assert {"day", "alert", "duplicate", "gap_fill", "quarantine",
            "sector_dark"} <= kinds


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_fleet_stream_is_bitwise_single_engine(fleet_env, baseline, tmp_path, n_shards):
    lines, _ = _fleet_lines(fleet_env, tmp_path / f"s{n_shards}", n_shards)
    assert lines == baseline


def test_parity_includes_global_dark_masking(fleet_env, tmp_path):
    """With top-k spanning every sector, dark sectors *must* enter the
    ranking and be masked post-merge — the case per-shard top-k would
    get wrong."""
    n = fleet_env.dataset.n_sectors
    base = _single_lines(fleet_env, top_k=n)
    lines, _ = _fleet_lines(fleet_env, tmp_path / "mask", 2, top_k=n)
    assert lines == base
    # Days whose completing hour falls inside the dark stretch (after
    # the threshold) must alert without the dark sectors.
    dark_days = {
        t for t in range(END_HOUR // 24)
        if DARK_SPAN[0] + DARK_T <= (t + 1) * 24 - 1 < DARK_SPAN[1]
    }
    dark_gone = False
    for line in lines:
        event = json.loads(line)
        if event.get("type") == "alert" and event["t_day"] in dark_days:
            assert 0 not in event["sectors"]
            dark_gone = True
    assert dark_gone, "no alert during the dark stretch exercised masking"


def test_merged_stats_shape(fleet_env, baseline, tmp_path):
    lines, stats = _fleet_lines(fleet_env, tmp_path / "stats", 2)
    assert lines == baseline
    fleet_section = stats["fleet"]
    assert fleet_section["n_shards"] == 2
    assert fleet_section["generation"] == 0
    assert fleet_section["clock"] == END_HOUR
    per_shard = fleet_section["per_shard"]
    assert len(per_shard) == 2
    assert sum(s["n_sectors"] for s in per_shard) == fleet_env.dataset.n_sectors
    assert all(s["hours_seen"] == END_HOUR for s in per_shard)
    # Merged counters reflect the whole fleet, not one shard.
    assert stats["counters"]["ingest_ticks"] >= END_HOUR
    assert stats["resilience"]["dead_letters"]["total"] == 1  # the malformed tick


def test_global_predict_assembles_all_sectors(fleet_env, tmp_path):
    fleet = build_fleet(tmp_path / "pred", _fleet_config(fleet_env), 3)
    try:
        for values, missing, cal, hour in fleet_env.ticks[:200]:
            fleet.submit_tick(values, missing, cal, hour=hour)
        scores = fleet.predict(1)
    finally:
        fleet.close()
    assert scores.shape == (fleet_env.dataset.n_sectors,)
    assert np.isfinite(scores).all()


def test_run_jsonl_protocol(fleet_env, tmp_path):
    """The coordinator speaks the service's JSONL protocol: ticks,
    stats, errors for junk, stop."""
    fleet = build_fleet(tmp_path / "jsonl", _fleet_config(fleet_env), 2)
    values, missing, cal, hour = fleet_env.ticks[0]
    ops = [
        json.dumps({
            "op": "tick",
            "values": values.tolist(),
            "missing": missing.tolist(),
            "calendar": list(map(float, cal)),
            "hour": hour,
        }),
        "not json",
        json.dumps({"op": "stats"}),
        json.dumps({"op": "stop"}),
    ]
    out = io.StringIO()
    try:
        processed = fleet.run_jsonl(ops, out)
    finally:
        fleet.close()
    events = [json.loads(line) for line in out.getvalue().splitlines()]
    kinds = [e.get("event") or e.get("type") for e in events]
    assert "error" in kinds
    assert "stats" in kinds
    assert kinds[-1] == "stopped"
    assert processed == 4  # every non-empty line counts, junk included


def test_process_backend_parity(fleet_env, baseline, tmp_path):
    """Forked shard hosts (the supervised backend) merge the same stream."""
    lines, stats = _fleet_lines(
        fleet_env, tmp_path / "proc", 2, supervise=SupervisorConfig()
    )
    assert lines == baseline
    assert stats["fleet"]["backend"] == "supervised"
    assert all(s["hours_seen"] == END_HOUR for s in stats["fleet"]["per_shard"])
