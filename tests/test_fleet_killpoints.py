"""Fleet crash recovery: kill any worker or the coordinator at any
seam, resume, and the merged stream continues bitwise identically —
including across a reshard (shard-count change between runs).

The kill points (DESIGN.md 3f):

* ``mid_apply`` — worker killed before its engine ingested the hour;
* ``mid_journal`` — killed after apply, before the WAL commit;
* ``post_journal`` — killed after the WAL commit, before the
  coordinator acknowledged the merge;
* ``mid_merge`` — the *coordinator* killed after every shard journaled
  the hour but before the watermark advanced.

Every shard resumes at the fleet clock: its checkpoint directory is
rewound there and the unacknowledged hours are re-applied.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import (
    FleetConfig,
    FleetProtocolError,
    SimulatedKill,
    build_fleet,
    journal_clock,
    recover_fleet,
)
from repro.imputation import ForwardFillImputer
from repro.resilience import CheckpointManager
from repro.resilience.checkpoint import journal_records
from repro.serve import ModelRegistry, train_and_register
from tests.test_resilience_checkpoint import flip_member_byte

START_DAY = 6
END_HOUR = 380
KILL_HOUR = 215  # mid-stream, after a snapshot boundary (snapshot_every=48)
# A lost stretch ending on a gap-filled tick: the gap hours 140-146
# include hour 143, which completes day 5, and darken every sector
# (threshold 6 h) at 145, so later gap hours carry responses too.
GAP_TICK = 147
DROPPED = tuple(range(140, GAP_TICK))
# A week-long block [168, 336) spans seven 24-h snapshot intervals.
LONG_BLOCK = 168
LONG_KILL = 330


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


def _drive(fleet, start, end, lines, env, dropped=()):
    kpis = env.dataset.kpis
    for hour in range(start, end):
        if hour in dropped:
            continue
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


@pytest.fixture(scope="module")
def gap_baseline(env):
    """Uninterrupted 2-shard run of the stream with :data:`DROPPED` lost."""
    lines: list[str] = []
    fleet = build_fleet(env.root / "gap-baseline", _config(env), 2)
    try:
        _drive(fleet, 0, END_HOUR, lines, env, dropped=DROPPED)
    finally:
        fleet.close()
    return lines


@pytest.mark.parametrize(
    ("point", "hour", "dropped"),
    [
        pytest.param("mid_apply", KILL_HOUR, (), id="mid_apply-215"),
        pytest.param("mid_journal", KILL_HOUR, (), id="mid_journal-215"),
        pytest.param("post_journal", KILL_HOUR, (), id="post_journal-215"),
        pytest.param("mid_apply", 100, (), id="mid_apply-100"),
        pytest.param("mid_merge", KILL_HOUR, (), id="mid_merge-215"),
        pytest.param("mid_merge", KILL_HOUR + 1, (), id="mid_merge-216"),
        # The coordinator dies after the shards journaled a gap-filled
        # tick: the re-drive re-applies every gap hour.
        pytest.param("mid_merge", GAP_TICK, DROPPED, id="mid_merge-147-after-gap"),
    ],
)
def test_kill_and_resume_is_bitwise(
    env, baseline, tmp_path, request, point, hour, dropped
):
    expected = request.getfixturevalue("gap_baseline") if dropped else baseline
    fleet = build_fleet(tmp_path, _config(env), 2)
    lines: list[str] = []
    if point == "mid_merge":
        fleet.kill_at = ("mid_merge", hour)
    else:
        fleet.backend.workers[1].kill_at = (point, hour)
    with pytest.raises(SimulatedKill):
        _drive(fleet, 0, END_HOUR, lines, env, dropped)
    # Simulated crash: no close() — WAL handles die with the process.
    resumed = recover_fleet(tmp_path, _config(env))
    assert resumed.clock <= hour + 1
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env, dropped)
    finally:
        resumed.close()
    assert lines == expected


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



def _drive_blocks(fleet, start, end, lines, env, block):
    kpis = env.dataset.kpis
    for lo in range(start, end, block):
        hi = min(lo + block, end)
        events = fleet.submit_block(
            kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
            env.dataset.calendar[lo:hi], first_hour=lo,
        )
        lines.extend(json.dumps(event) for event in events)


@pytest.mark.parametrize("n_shards", [None, 3], ids=["same-count", "reshard-3"])
@pytest.mark.parametrize("point", ["mid_merge", "post_journal"])
def test_long_block_kill_rewinds_every_shard_to_the_clock(
    env, baseline, tmp_path, point, n_shards
):
    """A block spanning several snapshot intervals, killed near its end:
    each shard journaled hours up to 330 and snapshotted past the
    watermark (168), yet it resumes at 168, for the same shard count
    and across a reshard.  Snapshot retention must keep the newest
    snapshot at or below the watermark, and the resumed directories
    hold nothing past the clock."""
    config = dataclasses.replace(_config(env), snapshot_every=24)
    fleet = build_fleet(tmp_path, config, 2)
    lines: list[str] = []
    if point == "mid_merge":
        fleet.kill_at = (point, LONG_KILL)
    else:
        fleet.backend.workers[1].kill_at = (point, LONG_KILL)
    with pytest.raises(SimulatedKill):
        _drive_blocks(fleet, 0, END_HOUR, lines, env, LONG_BLOCK)
    resumed = recover_fleet(tmp_path, config, n_shards=n_shards)
    try:
        assert resumed.clock == LONG_BLOCK
        for shard in range(resumed.plan.n_shards):
            shard_dir = tmp_path / resumed.plan.shard_dir(shard)
            # No snapshot holds an hour at or past the clock.
            snapshots = [int(p.stem.split("-")[1]) for p in shard_dir.glob("snapshot-*.npz")]
            assert max(snapshots) <= resumed.clock
            assert all(record[0] < resumed.clock for record in journal_records(shard_dir))
        _drive_blocks(resumed, resumed.clock, END_HOUR, lines, env, LONG_BLOCK)
    finally:
        resumed.close()
    assert lines == baseline


def test_a_block_off_the_shard_clock_is_refused(env, tmp_path):
    """A shard applies a block only at its own clock: hours it already
    journaled are re-applied after a rewind, never re-driven past it."""
    fleet = build_fleet(tmp_path, _config(env), 2)
    try:
        _drive(fleet, 0, 30, [], env)
        worker = fleet.backend.workers[0]
        kpis = env.dataset.kpis.values[worker.sector_ids]
        missing = env.dataset.kpis.missing[worker.sector_ids]
        calendar = env.dataset.calendar
        for first_hour in (24, 31):
            with pytest.raises(FleetProtocolError, match="at hour 30"):
                worker.submit_block(
                    first_hour, kpis[:, first_hour:first_hour + 2, :],
                    missing[:, first_hour:first_hour + 2, :],
                    calendar[first_hour:first_hour + 2],
                )
        assert worker.ingestor.hours_seen == 30
    finally:
        fleet.close()


# Hour 191 completes day 7, so shard 1 forecasts in it after shard 0
# applied and journaled it.
FAILED_HOUR = 191


def _wal_hours(directory, plan):
    return [
        [record[0] for record in journal_records(directory / plan.shard_dir(shard))]
        for shard in range(plan.n_shards)
    ]


def test_a_shard_that_raises_is_rewound_with_the_fleet(env, baseline, tmp_path):
    """Shard 1's forecast raises once at hour 191.  The coordinator sets
    its clock back and resumes every shard there, so the retried hour is
    applied in step, each WAL holds it once, and the stream from the
    retry on is the uninterrupted one."""
    fleet = build_fleet(tmp_path, _config(env), 2)
    lines: list[str] = []
    try:
        _drive(fleet, 0, FAILED_HOUR, lines, env)
        engine = fleet.backend.workers[1].engine

        def failing(*args, **kwargs):
            raise RuntimeError("forecast failed")

        engine.predict = failing
        with pytest.raises(RuntimeError, match="forecast failed"):
            _drive(fleet, FAILED_HOUR, FAILED_HOUR + 1, lines, env)
        assert fleet.clock == FAILED_HOUR
        assert fleet.backend.shard_hours() == [FAILED_HOUR, FAILED_HOUR]
        _drive(fleet, FAILED_HOUR, FAILED_HOUR + 1, lines, env)
        for hours in _wal_hours(tmp_path, fleet.plan):
            assert hours == list(range(hours[0], FAILED_HOUR + 1))
        _drive(fleet, FAILED_HOUR + 1, END_HOUR, lines, env)
    finally:
        fleet.close()
    assert lines == baseline
