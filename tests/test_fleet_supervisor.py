"""Self-healing fleet: heartbeats, live restart, degraded-shard serving.

The contract under test (DESIGN.md 3h): a supervised fleet whose worker
processes are SIGKILLed or hung mid-stream — at any crash seam — keeps
running without an unhandled exception, and once every shard recovers
within its restart budget the merged stream is **bitwise identical** to
a fault-free single-engine run.  Past the budget the shard degrades
(explicit ``shard_degraded`` event, fallback-ladder fragments, all-dark
masking, ticks spooled to the shard WAL) and rejoins bitwise once a
restart recovers through the spool (``shard_recovered``).
"""

from __future__ import annotations

import json
import multiprocessing
import time
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import (
    FleetConfig,
    ShardWorker,
    SimulatedKill,
    SupervisorConfig,
    build_fleet,
    recover_fleet,
)
from repro.imputation import ForwardFillImputer
from repro.resilience import ProcessChaos, ProcessFault
from repro.resilience.checkpoint import journal_records
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.guard import ResilientHotSpotService
from repro.resilience.validate import DarkSectorTracker
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    ServeTelemetry,
    StreamIngestor,
    train_and_register,
)

HORIZONS = (1, 2)
START_DAY = 6
TOP_K = 3
DARK_T = 6
END_HOUR = 380
KILL_HOUR = 215  # completes day 8; after a snapshot boundary (every 48)


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=3, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("fleet-supervise")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    return SimpleNamespace(dataset=dataset, root=root)


def _config(env):
    return FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", window=3,
        horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K, w_max=7,
        dark_threshold_hours=DARK_T, snapshot_every=48,
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
    """The fault-free **single-engine** stream every supervised run must
    match bitwise (the acceptance bar, not just fleet-vs-fleet)."""
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = ResilientHotSpotService(
        HotSpotService(
            engine,
            ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K),
        ),
        dark_tracker=DarkSectorTracker(
            env.dataset.n_sectors, threshold_hours=DARK_T
        ),
    )
    lines: list[str] = []
    _drive(service, 0, END_HOUR, lines, env)
    return lines


def _supervised(directory, env, chaos=None, supervise=None, out_events=None):
    return build_fleet(
        directory, _config(env), 2,
        supervise=supervise or SupervisorConfig(),
        chaos=chaos,
        on_event=None if out_events is None else out_events.append,
    )


def _chaos(tmp_path, *faults, wal_tail_shards=()):
    return ProcessChaos(
        faults=tuple(faults),
        marker_dir=str(tmp_path / "markers"),
        wal_tail_shards=tuple(wal_tail_shards),
    )


# ---------------------------------------------------------------- liveness
@needs_fork
def test_supervised_backend_parity_without_faults(env, baseline, tmp_path):
    fleet = _supervised(tmp_path, env)
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
        stats = fleet.stats()
    finally:
        fleet.close()
    assert lines == baseline
    assert stats["fleet"]["backend"] == "supervised"
    supervisor = stats["fleet"]["supervisor"]
    assert supervisor["worker_restarts"] == 0
    assert supervisor["degraded_shards"] == []


@needs_fork
@pytest.mark.parametrize(
    ("seam", "action", "shard"),
    [
        ("mid_apply", "sigkill", 1),
        ("mid_journal", "sigkill", 1),
        ("post_journal", "sigkill", 1),
        ("mid_apply", "sigkill", 0),
        ("mid_apply", "hang", 1),
        ("mid_journal", "hang", 0),
    ],
)
def test_worker_fault_at_seam_recovers_bitwise(
    env, baseline, tmp_path, seam, action, shard
):
    """SIGKILL and hang at every worker crash seam: the run completes
    with no unhandled exception, restart-with-recovery re-drives the
    in-flight request, and the merged stream stays bitwise identical."""
    chaos = _chaos(
        tmp_path,
        ProcessFault(shard, seam, KILL_HOUR, action=action, hang_secs=60.0),
    )
    supervise = (
        SupervisorConfig(heartbeat_secs=0.5)
        if action == "hang"
        else SupervisorConfig()
    )
    out_events: list[dict] = []
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos, supervise=supervise,
        out_events=out_events,
    )
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
        stats = fleet.stats()
        assert fleet.backend.degraded_shards == []
    finally:
        fleet.close()
    assert lines == baseline  # recovery is invisible in the stream
    supervisor = stats["fleet"]["supervisor"]
    assert supervisor["worker_restarts"] >= 1
    assert supervisor["restarts_by_shard"][str(shard)] >= 1
    kinds = {event["event"] for event in out_events}
    assert "worker_restart" in kinds
    if action == "hang":
        # Slow is not dead: patience windows fire before the SIGKILL.
        assert supervisor["heartbeat_timeouts"] >= 1
        assert "heartbeat_timeout" in kinds
        assert "worker_hang" in kinds
    else:
        assert "worker_death" in kinds


@needs_fork
@pytest.mark.parametrize("seam", ["mid_apply", "mid_journal", "post_journal"])
def test_both_shards_killed_in_one_request_recover_bitwise(
    env, baseline, tmp_path, seam
):
    """Both shards SIGKILLed while serving the same request: the gather
    restarts each in shard order and the stream stays bitwise."""
    chaos = _chaos(
        tmp_path,
        ProcessFault(0, seam, KILL_HOUR),
        ProcessFault(1, seam, KILL_HOUR),
    )
    out_events: list[dict] = []
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos, out_events=out_events
    )
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
        stats = fleet.stats()
        assert fleet.backend.degraded_shards == []
    finally:
        fleet.close()
    assert lines == baseline
    restarts = stats["fleet"]["supervisor"]["restarts_by_shard"]
    assert restarts["0"] >= 1 and restarts["1"] >= 1
    deaths = [event["shard"] for event in out_events if event["event"] == "worker_death"]
    assert sorted(set(deaths)) == [0, 1]


@needs_fork
def test_shards_apply_concurrently(env, baseline, tmp_path):
    """The shards serve one request at the same time: both hang 1 s at
    the same hour, and that hour returns in well under the 2 s it takes
    one shard after the other — with no heartbeat deadline missed."""
    chaos = _chaos(
        tmp_path,
        ProcessFault(0, "mid_apply", KILL_HOUR, action="hang", hang_secs=1.0),
        ProcessFault(1, "mid_apply", KILL_HOUR, action="hang", hang_secs=1.0),
    )
    out_events: list[dict] = []
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos,
        supervise=SupervisorConfig(heartbeat_secs=5.0), out_events=out_events,
    )
    lines: list[str] = []
    try:
        _drive(fleet, 0, KILL_HOUR, lines, env)
        start = time.perf_counter()
        _drive(fleet, KILL_HOUR, KILL_HOUR + 1, lines, env)
        seconds = time.perf_counter() - start
        _drive(fleet, KILL_HOUR + 1, END_HOUR, lines, env)
        stats = fleet.stats()
    finally:
        fleet.close()
    assert seconds >= 1.0  # the hang fired
    assert seconds < 1.8
    assert lines == baseline
    assert stats["fleet"]["supervisor"]["heartbeat_timeouts"] == 0
    assert not [e for e in out_events if e["event"] == "heartbeat_timeout"]


@needs_fork
def test_error_reply_leaves_no_stale_reply(env, baseline, tmp_path):
    """Both shards refuse a request (no complete day to forecast yet):
    the round raises the first shard's error, but only after reading
    every reply — the next round gets its own answers, not stale ones."""
    fleet = _supervised(tmp_path, env)
    lines: list[str] = []
    try:
        with pytest.raises(RuntimeError, match="shard host 0 failed"):
            fleet.backend.predict(1)
        shards = fleet.backend.stats()
        _drive(fleet, 0, END_HOUR, lines, env)
    finally:
        fleet.close()
    assert [snap["shard"]["shard_id"] for snap in shards] == [0, 1]
    assert not any(snap["shard"].get("degraded") for snap in shards)
    assert lines == baseline


@needs_fork
def test_coordinator_mid_merge_crash_resumes_supervised(env, baseline, tmp_path):
    """The coordinator itself dying at mid_merge resumes bitwise on the
    supervised backend, exactly as on the serial one."""
    supervise = SupervisorConfig()
    fleet = _supervised(tmp_path, env, supervise=supervise)
    fleet.kill_at = ("mid_merge", KILL_HOUR)
    lines: list[str] = []
    try:
        with pytest.raises(SimulatedKill):
            _drive(fleet, 0, END_HOUR, lines, env)
    finally:
        fleet.close()  # the "crash" must still leave no children behind
    resumed = recover_fleet(tmp_path, _config(env), supervise=supervise)
    assert resumed.clock <= KILL_HOUR + 1
    try:
        _drive(resumed, resumed.clock, END_HOUR, lines, env)
    finally:
        resumed.close()
    assert lines == baseline


@needs_fork
def test_block_mode_kill_recovers_bitwise(env, baseline, tmp_path):
    """Micro-batch driving with a worker SIGKILL mid-block: the re-sent
    block is re-applied from the fleet clock and the stream stays
    bitwise."""
    chaos = _chaos(tmp_path, ProcessFault(1, "mid_journal", KILL_HOUR))
    fleet = _supervised(tmp_path / "run", env, chaos=chaos)
    kpis = env.dataset.kpis
    lines: list[str] = []
    try:
        for lo in range(0, END_HOUR, 24):
            hi = min(lo + 24, END_HOUR)
            events = fleet.submit_block(
                kpis.values[:, lo:hi, :],
                kpis.missing[:, lo:hi, :],
                env.dataset.calendar[lo:hi],
                first_hour=lo,
            )
            lines.extend(json.dumps(event) for event in events)
        stats = fleet.stats()
    finally:
        fleet.close()
    assert lines == baseline
    assert stats["fleet"]["supervisor"]["worker_restarts"] >= 1


@needs_fork
def test_wal_tail_corruption_at_respawn_recovers_bitwise(env, baseline, tmp_path):
    """A torn WAL tail (garbage appended at respawn) is truncated by
    recovery; the re-driven hours restore bitwise parity anyway."""
    chaos = _chaos(
        tmp_path,
        ProcessFault(1, "post_journal", KILL_HOUR),
        wal_tail_shards=(1,),
    )
    out_events: list[dict] = []
    fleet = _supervised(tmp_path / "run", env, chaos=chaos, out_events=out_events)
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
    finally:
        fleet.close()
    assert lines == baseline
    kinds = {event["event"] for event in out_events}
    assert "wal_tail_corrupted" in kinds
    assert "worker_restart" in kinds


def _drive_blocks(fleet, start, end, lines, env, block):
    kpis = env.dataset.kpis
    for lo in range(start, end, block):
        hi = min(lo + block, end)
        events = fleet.submit_block(
            kpis.values[:, lo:hi, :],
            kpis.missing[:, lo:hi, :],
            env.dataset.calendar[lo:hi],
            first_hour=lo,
        )
        lines.extend(json.dumps(event) for event in events)


# The 48-h block [192, 240) reaches the shards as the 24-h slices
# [192, 216) and [216, 240); hour 230 is in the second.
SLICED_BLOCK = 48
SECOND_SLICE_HOUR = 230


@needs_fork
def test_restart_inside_a_sliced_block_recovers_bitwise(env, baseline, tmp_path):
    """A SIGKILL after the second slice's WAL append: the respawn
    rewinds the shard to the slice's first hour, the coordinator's
    clock, and re-applies the slice, so the stream stays bitwise."""
    chaos = _chaos(tmp_path, ProcessFault(1, "post_journal", SECOND_SLICE_HOUR))
    fleet = _supervised(tmp_path / "run", env, chaos=chaos)
    lines: list[str] = []
    try:
        assert fleet.backend.block_capacity == SLICED_BLOCK // 2
        _drive_blocks(fleet, 0, END_HOUR, lines, env, SLICED_BLOCK)
        stats = fleet.stats()
    finally:
        fleet.close()
    assert lines == baseline
    supervisor = stats["fleet"]["supervisor"]
    assert supervisor["worker_restarts"] >= 1
    assert supervisor["degrade_transitions"] == 0


@needs_fork
def test_degrade_inside_a_sliced_block_spools_each_hour_once(env, baseline, tmp_path):
    """``max_restarts=0`` with the same post-journal death: the degraded
    slice rewinds the shard to the clock and spools the whole slice,
    so the shard WAL holds every hour once and the tail after the
    rejoin is bitwise."""
    chaos = _chaos(tmp_path, ProcessFault(1, "post_journal", SECOND_SLICE_HOUR))
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos,
        supervise=SupervisorConfig(max_restarts=0, poison_threshold=5),
    )
    lines: list[str] = []
    rejoined = 288  # after the block [240, 288), before later snapshots prune
    try:
        _drive_blocks(fleet, 0, rejoined, lines, env, SLICED_BLOCK)
        assert fleet.backend.degraded_shards == []
        shard_dir = tmp_path / "run" / fleet.plan.shard_dir(1)
        hours = [record[0] for record in journal_records(shard_dir)]
        assert hours[0] <= SECOND_SLICE_HOUR - 24
        assert hours == list(range(hours[0], rejoined))
        _drive_blocks(fleet, rejoined, END_HOUR, lines, env, SLICED_BLOCK)
    finally:
        fleet.close()
    kinds = [json.loads(line).get("event") for line in lines]
    assert kinds.index("shard_degraded") < kinds.index("shard_recovered")
    kill_day = SECOND_SLICE_HOUR // 24
    tail = [line for line in lines if json.loads(line).get("t_day", -1) > kill_day]
    base_tail = [
        line for line in baseline if json.loads(line).get("t_day", -1) > kill_day
    ]
    assert tail == base_tail


@needs_fork
def test_an_error_reply_rewinds_every_host_to_the_clock(
    env, baseline, tmp_path, monkeypatch
):
    """Host 1 answers ``err`` in the second slice of a 48-h block, after
    both hosts applied the first and host 0 the second.  The coordinator
    sets its clock back to the block's first hour and respawns every host
    there, so the retried block continues bitwise and each shard WAL
    holds every hour once."""
    marker = tmp_path / "responded-once"
    respond = ShardWorker._respond

    def failing(worker, tick, missing):
        if worker.shard_id == 1 and tick.hour == SECOND_SLICE_HOUR and not marker.exists():
            marker.touch()
            raise RuntimeError("response failed")
        return respond(worker, tick, missing)

    monkeypatch.setattr(ShardWorker, "_respond", failing)
    fleet = _supervised(tmp_path / "run", env)
    first_hour = SECOND_SLICE_HOUR // SLICED_BLOCK * SLICED_BLOCK
    lines: list[str] = []
    try:
        _drive_blocks(fleet, 0, first_hour, lines, env, SLICED_BLOCK)
        with pytest.raises(RuntimeError, match="shard host 1 failed"):
            _drive_blocks(fleet, first_hour, first_hour + SLICED_BLOCK, lines, env, SLICED_BLOCK)
        assert marker.exists()
        assert fleet.clock == first_hour
        assert fleet.backend.shard_hours() == [first_hour, first_hour]
        _drive_blocks(fleet, first_hour, first_hour + SLICED_BLOCK, lines, env, SLICED_BLOCK)
        for shard in range(fleet.plan.n_shards):
            shard_dir = tmp_path / "run" / fleet.plan.shard_dir(shard)
            hours = [record[0] for record in journal_records(shard_dir)]
            assert hours[0] <= SECOND_SLICE_HOUR - 24
            assert hours == list(range(hours[0], first_hour + SLICED_BLOCK))
        _drive_blocks(fleet, first_hour + SLICED_BLOCK, END_HOUR, lines, env, SLICED_BLOCK)
    finally:
        fleet.close()
    assert lines == baseline


@needs_fork
def test_shard_hours_are_each_host_clock(env, tmp_path):
    """``shard_hours()`` reads each host's clock now, not the one it
    reported at its last hello: the hours a live host applied, or the
    hours a degraded host spooled."""
    fleet = _supervised(tmp_path / "live", env)
    try:
        _drive(fleet, 0, 100, [], env)
        assert fleet.backend.shard_hours() == [100, 100]
    finally:
        fleet.close()
    chaos = _chaos(tmp_path, ProcessFault(1, "mid_apply", KILL_HOUR))
    fleet = _supervised(
        tmp_path / "degraded", env, chaos=chaos,
        supervise=SupervisorConfig(max_restarts=0, poison_threshold=5),
    )
    try:
        _drive(fleet, 0, KILL_HOUR + 1, [], env)
        assert fleet.backend.degraded_shards == [1]
        assert fleet.backend.shard_hours() == [KILL_HOUR + 1, KILL_HOUR + 1]
    finally:
        fleet.close()


# ------------------------------------------------------- poison & budget
@needs_fork
def test_poison_block_is_quarantined(env, baseline, tmp_path):
    """A request that kills its worker on every delivery is dead-lettered
    after ``poison_threshold`` deaths and re-driven as all-missing — the
    budget survives and the shard never degrades."""
    chaos = _chaos(
        tmp_path,
        ProcessFault(1, "mid_apply", KILL_HOUR, persistent=True),
    )
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos,
        supervise=SupervisorConfig(max_restarts=3, poison_threshold=2),
    )
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
        stats = fleet.stats()
        assert fleet.backend.degraded_shards == []
        assert fleet.clock == END_HOUR
    finally:
        fleet.close()
    poison = [
        i for i, line in enumerate(lines)
        if json.loads(line).get("event") == "poison_block"
    ]
    assert len(poison) == 1
    record = json.loads(lines[poison[0]])
    assert record["shard"] == 1
    assert record["hour"] == KILL_HOUR
    # Everything before the poisoned hour is untouched.
    assert lines[: poison[0]] == baseline[: poison[0]]
    supervisor = stats["fleet"]["supervisor"]
    assert supervisor["poison_blocks"] == 1
    assert stats["resilience"]["dead_letters"]["total"] == 1


@needs_fork
def test_budget_exhaustion_degrades_then_rejoins_bitwise(env, baseline, tmp_path):
    """``max_restarts=0``: the first death exhausts the budget — the
    shard degrades (fallback fragments, all-dark mask, spooled ticks),
    then rejoins through the spooled WAL and the tail is bitwise again."""
    chaos = _chaos(tmp_path, ProcessFault(1, "mid_apply", KILL_HOUR))
    out_events: list[dict] = []
    fleet = _supervised(
        tmp_path / "run", env, chaos=chaos,
        supervise=SupervisorConfig(max_restarts=0, poison_threshold=5),
        out_events=out_events,
    )
    lines: list[str] = []
    try:
        _drive(fleet, 0, END_HOUR, lines, env)
        stats = fleet.stats()
        assert fleet.backend.degraded_shards == []  # rejoined by run end
    finally:
        fleet.close()
    kinds = [json.loads(line).get("event") for line in lines]
    assert "shard_degraded" in kinds
    assert "shard_recovered" in kinds
    assert kinds.index("shard_degraded") < kinds.index("shard_recovered")
    # Pre-fault prefix is untouched.
    first_diff = kinds.index("shard_degraded")
    assert lines[:first_diff] == baseline[:first_diff]
    # Post-rejoin tail is bitwise: the spool preserved the true rows.
    kill_day = KILL_HOUR // 24
    tail = [
        line for line in lines
        if json.loads(line).get("t_day", -1) > kill_day
    ]
    base_tail = [
        line for line in baseline
        if json.loads(line).get("t_day", -1) > kill_day
    ]
    assert tail == base_tail
    supervisor = stats["fleet"]["supervisor"]
    assert supervisor["degrade_transitions"] == 1
    assert supervisor["degraded_seconds"] > 0
    assert supervisor["spooled_ticks"] >= 1
    # The supervision state file survives for post-mortems.
    state = json.loads((tmp_path / "run" / "supervisor.json").read_text())
    assert state["supervisor"]["degrade_transitions"] == 1


# ------------------------------------------------------------ housekeeping
@needs_fork
def test_no_orphaned_children_after_raised_fault(env, tmp_path):
    """Regression: a fault raised mid-drive must not leak worker
    processes — every exit path terminates and joins the children."""
    before = set(multiprocessing.active_children())
    with pytest.raises(RuntimeError, match="boom"):
        with _supervised(tmp_path, env) as fleet:
            lines: list[str] = []
            _drive(fleet, 0, 30, lines, env)
            raise RuntimeError("boom")
    leaked = [
        child for child in multiprocessing.active_children()
        if child not in before and child.is_alive()
    ]
    assert leaked == []
    fleet.close()  # close is idempotent even after __exit__


def test_supervisor_config_validation():
    with pytest.raises(ValueError, match="heartbeat_secs"):
        SupervisorConfig(heartbeat_secs=0)
    with pytest.raises(ValueError, match="max_restarts"):
        SupervisorConfig(max_restarts=-1)
    with pytest.raises(ValueError, match="poison_threshold"):
        SupervisorConfig(poison_threshold=0)
    with pytest.raises(ValueError, match="seam"):
        ProcessFault(0, "mid_orbit", 10)
    with pytest.raises(ValueError, match="action"):
        ProcessFault(0, "mid_apply", 10, action="explode")


def test_supervisor_counters_merge_commutative():
    """The fleet snapshot folds supervisor counters commutatively, like
    every other telemetry family."""
    a = ServeTelemetry()
    a.inc("worker_restarts", 2)
    a.inc("heartbeat_timeouts")
    a.observe("shard_degraded_window", 1.5)
    b = ServeTelemetry()
    b.inc("worker_restarts")
    b.inc("poison_blocks")
    assert a.merge([b]).stats() == b.merge([a]).stats()
    merged = a.merge([b])
    assert merged.counter("worker_restarts") == 3
    assert merged.counters("worker_") == {"worker_restarts": 3}
    assert a.counters() == {"heartbeat_timeouts": 1, "worker_restarts": 2}
