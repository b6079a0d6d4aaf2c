"""Fleet crash recovery: kill any worker or the coordinator at any
seam, resume, and the merged stream continues bitwise identically —
including across a reshard (shard-count change between runs).

The kill points (DESIGN.md 3f):

* ``mid_apply`` — worker killed before its engine ingested the hour;
* ``mid_journal`` — killed after apply/persist, before the WAL commit;
* ``post_journal`` — killed after the WAL commit, before the
  coordinator acknowledged the merge;
* ``mid_merge`` — the *coordinator* killed after every shard journaled
  the hour but before the watermark advanced.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import (
    FleetConfig,
    FleetLifecycleSpec,
    SimulatedKill,
    build_fleet,
    journal_clock,
    recover_fleet,
)
from repro.imputation import ForwardFillImputer
from repro.lifecycle import DriftConfig, RetrainConfig
from repro.resilience import CheckpointManager
from repro.serve import ModelRegistry, train_and_register
from tests.test_resilience_checkpoint import flip_member_byte

START_DAY = 6
END_HOUR = 380
KILL_HOUR = 215  # mid-stream, after a snapshot boundary (snapshot_every=48)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=3, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("fleet-kill")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist", "Tree"), START_DAY, (1, 2), (3,),
        overwrite=True,
    )
    return SimpleNamespace(dataset=dataset, root=root)


def _config(env, **overrides):
    overrides.setdefault("model", "Persist")
    overrides.setdefault("horizons", (1, 2))
    return FleetConfig.for_dataset(
        env.dataset, env.root / "registry", window=3,
        start_day=START_DAY, top_k=3, w_max=7,
        dark_threshold_hours=6, snapshot_every=48, **overrides,
    )


def _drive(fleet, start, end, lines, env):
    kpis = env.dataset.kpis
    for hour in range(start, end):
        events = fleet.submit_tick(
            kpis.values[:, hour, :],
            kpis.missing[:, hour, :],
            env.dataset.calendar[hour],
            hour=hour,
        )
        lines.extend(json.dumps(event) for event in events)


@pytest.fixture(scope="module")
def baseline(env):
    """Uninterrupted 2-shard run — the stream every recovery must match."""
    lines: list[str] = []
    fleet = build_fleet(env.root / "baseline", _config(env), 2)
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
    finally:
        fleet.close()
    return lines


@pytest.mark.parametrize(
    ("point", "hour"),
    [
        ("mid_apply", KILL_HOUR),
        ("mid_journal", KILL_HOUR),
        ("post_journal", KILL_HOUR),
        ("mid_apply", 100),
        ("mid_merge", KILL_HOUR),
        ("mid_merge", KILL_HOUR + 1),
    ],
)
def test_kill_and_resume_is_bitwise(env, baseline, tmp_path, point, hour):
    fleet = build_fleet(tmp_path, _config(env), 2)
    lines: list[str] = []
    if point == "mid_merge":
        fleet.kill_at = ("mid_merge", hour)
    else:
        fleet.backend.workers[1].kill_at = (point, hour)
    with pytest.raises(SimulatedKill):
        _drive(fleet, 0, END_HOUR, lines, env)
    # Simulated crash: no close() — WAL handles die with the process.
    resumed = recover_fleet(tmp_path, _config(env))
    assert resumed.clock <= hour + 1
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env)
    finally:
        resumed.close()
    assert lines == baseline


@pytest.mark.parametrize("target", [3, 1])
def test_reshard_continues_bitwise(env, baseline, tmp_path, target):
    fleet = build_fleet(tmp_path, _config(env), 2)
    lines: list[str] = []
    try:
        _drive(fleet, 0, KILL_HOUR, lines, env)
    finally:
        fleet.close()
    resumed = recover_fleet(tmp_path, _config(env), n_shards=target)
    assert resumed.plan.n_shards == target
    assert resumed.plan.generation == 1
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env)
    finally:
        resumed.close()
    assert lines == baseline
    # The old generation's shard directories are gone.
    assert not list(tmp_path.glob("g0000-shard-*"))


def test_kill_then_reshard_continues_bitwise(env, baseline, tmp_path):
    fleet = build_fleet(tmp_path, _config(env), 2)
    lines: list[str] = []
    fleet.backend.workers[0].kill_at = ("post_journal", KILL_HOUR)
    with pytest.raises(SimulatedKill):
        _drive(fleet, 0, END_HOUR, lines, env)
    resumed = recover_fleet(tmp_path, _config(env), n_shards=3)
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env)
    finally:
        resumed.close()
    assert lines == baseline


def test_journal_clock_matches_recover_on_corrupt_snapshot(env, tmp_path):
    # At hour 60 a shard holds one snapshot (hour 48) and the segment
    # journaled after it; the segment before it is pruned.  A corrupt
    # ``values`` member behind an intact zip directory leaves nothing
    # to restore, and journal_clock must say so rather than count the
    # snapshot's hours.
    fleet = build_fleet(tmp_path, _config(env), 2)
    try:
        _drive(fleet, 0, 60, [], env)
    finally:
        fleet.close()
    shard_dir = tmp_path / fleet.plan.shard_dir(0)
    newest = sorted(shard_dir.glob("snapshot-*.npz"))[-1]
    assert newest.name == "snapshot-00000048.npz"
    flip_member_byte(newest, "values.npy")

    recovered = CheckpointManager.recover(shard_dir)
    assert recovered.snapshot_hour == 0
    assert journal_clock(shard_dir) == recovered.ingestor.hours_seen


def _lifecycle_config(env):
    return _config(
        env,
        model="Tree",
        horizons=(1,),
        lifecycle=FleetLifecycleSpec(
            retrain=RetrainConfig(
                model="Tree",
                target="hot",
                horizon=1,
                window=3,
                n_estimators=3,
                n_training_days=2,
                base_seed=0,
                cadence_days=4,
                min_days_between=1,
            ),
            # Small drift windows so the shard rings (8 days) hold them.
            drift=DriftConfig(reference_days=4, current_days=2),
        ),
    )


def test_lifecycle_fleet_is_deterministic_and_recoverable(env, tmp_path):
    """Per-shard lifecycle: same stream twice, same stream after a
    crash, and reshard is refused (shard lifecycle state cannot be
    re-partitioned)."""
    runs = []
    for leg in ("a", "b"):
        fleet = build_fleet(tmp_path / leg, _lifecycle_config(env), 2)
        lines: list[str] = []
        try:
            _drive(fleet, 0, END_HOUR, lines, env)
        finally:
            fleet.close()
        runs.append(lines)
    assert runs[0] == runs[1]
    kinds = {
        (json.loads(line).get("type") or json.loads(line).get("event"))
        for line in runs[0]
    }
    assert "retrain" in kinds, f"no lifecycle activity in {sorted(kinds)}"

    fleet = build_fleet(tmp_path / "kill", _lifecycle_config(env), 2)
    lines = []
    fleet.backend.workers[0].kill_at = ("mid_journal", KILL_HOUR)
    with pytest.raises(SimulatedKill):
        _drive(fleet, 0, END_HOUR, lines, env)
    resumed = recover_fleet(tmp_path / "kill", _lifecycle_config(env))
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env)
    finally:
        resumed.close()
    assert lines == runs[0]

    with pytest.raises(ValueError, match="reshard"):
        recover_fleet(tmp_path / "kill", _lifecycle_config(env), n_shards=3)
