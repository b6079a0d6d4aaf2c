"""Promotion policy, durable lifecycle state, and the controller loop.

The headline assertions (ISSUE acceptance criteria):

* the injected event-regime shift is detected, triggers a retrain, and
  the challenger — fitted on post-shift ring data — beats the stale
  champion in shadow and is promoted;
* the whole loop is bitwise deterministic across ``n_jobs``;
* a crash at any point during retrain/promotion (before the challenger
  archive, after the archive but before the state commit, after the
  commit but before the WAL acknowledges the tick) recovers to the same
  champion and the same event/alert stream as an uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.experiment import SweepRunner
from repro.data.tensor import HOURS_PER_DAY
from repro.lifecycle import (
    DriftConfig,
    LifecycleController,
    LifecycleState,
    PromotionConfig,
    PromotionPolicy,
    RetrainConfig,
)
from repro.resilience import CheckpointManager, ResilientHotSpotService
from repro.serve import (
    HotSpotService,
    ModelKey,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

from .conftest import DRIFT_SHIFT_DAY
from .test_resilience_checkpoint import assert_state_equal

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
TRAIN_DAY = 30
TOTAL_DAYS = 52
TOTAL_HOURS = TOTAL_DAYS * HOURS_PER_DAY
W_MAX = max(RETRAIN.window, DRIFT.total_days, RETRAIN.lookback_days)
BASE_KEY = ModelKey("hot", RETRAIN.model, RETRAIN.horizon, RETRAIN.window)


def rows_with_deltas(deltas):
    return [
        {"delta": float(delta), "target_day": day, "input_day": day - 1}
        for day, delta in enumerate(deltas, start=10)
    ]


class TestPromotionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_delta": float("nan")},
            {"min_shadow_days": 0},
            {"max_shadow_days": 2, "min_shadow_days": 5},
            {"confirm_days": -1},
            {"min_days_between_promotions": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PromotionConfig(**kwargs)


class TestPromotionPolicy:
    POLICY = PromotionPolicy(PromotionConfig(
        min_delta=5.0, min_shadow_days=3, max_shadow_days=5,
        confirm_days=2, rollback_delta=0.0, min_days_between_promotions=7,
    ))

    def test_keeps_shadowing_until_enough_defined_days(self):
        rows = rows_with_deltas([10.0, float("nan")])
        assert self.POLICY.decide_shadow(rows, 50, -1) is None

    def test_promotes_on_mean_delta(self):
        rows = rows_with_deltas([10.0, 4.0, 7.0])
        assert self.POLICY.decide_shadow(rows, 50, -1) == "promote"

    def test_hysteresis_holds_promotion(self):
        rows = rows_with_deltas([10.0, 4.0, 7.0])
        assert self.POLICY.decide_shadow(rows, 50, 45) is None
        assert self.POLICY.decide_shadow(rows, 52, 45) == "promote"

    def test_retires_after_exhaustion(self):
        weak = rows_with_deltas([1.0, 2.0, 0.5, 1.5, 1.0])  # mean < 5
        assert self.POLICY.decide_shadow(weak, 50, -1) == "retire"
        undefined = rows_with_deltas([float("nan")] * 5)
        assert self.POLICY.decide_shadow(undefined, 50, -1) == "retire"

    def test_weak_but_not_exhausted_keeps_going(self):
        weak = rows_with_deltas([1.0, 2.0, 0.5])
        assert self.POLICY.decide_shadow(weak, 50, -1) is None

    def test_confirm_wait_rollback_confirm(self):
        assert self.POLICY.decide_confirm(rows_with_deltas([3.0])) is None
        # Old champion still ahead -> roll the promotion back.
        assert self.POLICY.decide_confirm(rows_with_deltas([3.0, 2.0])) == "rollback"
        assert self.POLICY.decide_confirm(rows_with_deltas([-3.0, -1.0])) == "confirm"

    def test_confirm_disabled_is_immediate(self):
        policy = PromotionPolicy(PromotionConfig(confirm_days=0))
        assert policy.decide_confirm([]) == "confirm"

    def test_mean_delta_ignores_nan(self):
        rows = rows_with_deltas([10.0, float("nan"), 20.0])
        assert PromotionPolicy.mean_delta(rows) == pytest.approx(15.0)
        assert PromotionPolicy.defined_days(rows) == 2
        assert np.isnan(PromotionPolicy.mean_delta([]))


class TestLifecycleState:
    def test_json_roundtrip(self):
        state = LifecycleState(
            phase="shadow", champion_version=2, challenger_version=3,
            challenger_trained_day=40, version_counter=3,
            last_retrain_day=40, last_promotion_day=30,
            last_day_processed=41,
            shadow_rows=rows_with_deltas([5.0]),
            confirm_rows=rows_with_deltas([-1.0]),
        )
        assert LifecycleState.from_json(state.as_json()) == state

    def test_save_load(self, tmp_path):
        path = tmp_path / "lifecycle.json"
        state = LifecycleState(phase="confirm", champion_version=1,
                               previous_version=None, version_counter=1)
        state.save(path)
        assert LifecycleState.load(path) == state
        assert LifecycleState.load(tmp_path / "absent.json") is None

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            LifecycleState(phase="limbo")


# --------------------------------------------------------------------------
# Controller: full-loop fixtures and helpers.
# --------------------------------------------------------------------------

def bootstrap(dataset, registry):
    """Train the unversioned bootstrap champion once per registry."""
    if BASE_KEY not in registry:
        runner = SweepRunner(
            dataset, target="hot", n_estimators=RETRAIN.n_estimators,
            n_training_days=RETRAIN.n_training_days, seed=RETRAIN.base_seed,
        )
        train_and_register(
            runner, registry, [RETRAIN.model], TRAIN_DAY,
            (RETRAIN.horizon,), (RETRAIN.window,), overwrite=False, n_jobs=1,
        )
    return registry


def build_stack(dataset, registry_dir, ckpt_dir=None, ingestor=None, n_jobs=1):
    """(guard, service, controller, engine, checkpoint) over *dataset*."""
    registry = bootstrap(dataset, ModelRegistry(registry_dir))
    if ingestor is None:
        ingestor = StreamIngestor.for_dataset(dataset, w_max=W_MAX)
    engine = PredictionEngine(
        ingestor, registry, target="hot", model=RETRAIN.model,
        window=RETRAIN.window,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=(RETRAIN.horizon,), start_day=TRAIN_DAY, top_k=3)
    )
    controller = LifecycleController(
        engine, drift=DRIFT, retrain=RETRAIN, promotion=PROMO,
        state_path=None if ckpt_dir is None else ckpt_dir / "lifecycle.json",
        start_day=TRAIN_DAY, n_jobs=n_jobs,
    )
    service.add_day_hook(controller.on_day)
    checkpoint = None
    if ckpt_dir is not None:
        checkpoint = CheckpointManager.for_ingestor(
            ckpt_dir, ingestor, snapshot_every=10**6
        )
    guard = ResilientHotSpotService(service, checkpoint=checkpoint)
    return guard, service, controller, engine, checkpoint


def feed_guard(guard, dataset, lo_hour, hi_hour):
    """Replay [lo, hi) through the guard; events keyed by hour."""
    kpis = dataset.kpis
    events_by_hour = {}
    for hour in range(lo_hour, hi_hour):
        events = guard.submit_tick(
            kpis.values[:, hour, :], kpis.missing[:, hour, :],
            dataset.calendar[hour], hour=hour,
        )
        if events:
            events_by_hour[hour] = events
    return events_by_hour


def apply_tick_direct(service, dataset, hour):
    """Apply one tick WITHOUT journaling it — the crash window between
    the service apply and the WAL acknowledge."""
    kpis = dataset.kpis
    return service.ingest_hour(
        kpis.values[:, hour, :], kpis.missing[:, hour, :], dataset.calendar[hour]
    )


def lifecycle_events(events_by_hour, kind):
    out = []
    for hour in sorted(events_by_hour):
        out.extend(e for e in events_by_hour[hour] if e.get("event") == kind)
    return out


@pytest.fixture(scope="module")
def uninterrupted(drifted_dataset, tmp_path_factory):
    """The reference run: no crash, full replay, checkpointed."""
    root = tmp_path_factory.mktemp("lifecycle-uninterrupted")
    guard, service, controller, engine, checkpoint = build_stack(
        drifted_dataset, root / "registry", ckpt_dir=root / "ckpt"
    )
    events_by_hour = feed_guard(guard, drifted_dataset, 0, TOTAL_HOURS)
    checkpoint.close()
    return {
        "events_by_hour": events_by_hour,
        "controller": controller,
        "engine": engine,
        "ingestor_state": engine.ingestor.state_dict(),
        "registry_dir": root / "registry",
    }


class TestControllerEndToEnd:
    def test_drift_retrain_promote_storyline(self, uninterrupted):
        """Injected shift -> drift -> challenger -> shadow win -> promote."""
        events = uninterrupted["events_by_hour"]
        drifts = lifecycle_events(events, "drift")
        assert drifts
        assert drifts[0]["t_day"] > DRIFT_SHIFT_DAY
        assert drifts[0]["t_day"] <= DRIFT_SHIFT_DAY + DRIFT.current_days

        retrains = lifecycle_events(events, "retrain")
        assert retrains and retrains[0]["trigger"] == "drift"
        assert retrains[0]["t_day"] == drifts[0]["t_day"]
        assert retrains[0]["version"] == 1

        shadows = lifecycle_events(events, "shadow")
        assert shadows and all(
            row["challenger_version"] == 1 for row in shadows[:3]
        )

        promotions = lifecycle_events(events, "promotion")
        assert promotions
        promotion = promotions[0]
        assert promotion["t_day"] > retrains[0]["t_day"]
        assert promotion["to_version"] == 1
        assert promotion["from_version"] is None
        # The acceptance bar: the post-shift challenger beats the stale
        # champion by at least the promotion threshold.
        assert promotion["mean_delta"] >= PROMO.min_delta
        assert promotion["defined_days"] >= PROMO.min_shadow_days

        confirmed = lifecycle_events(events, "promotion_confirmed")
        assert confirmed and confirmed[0]["version"] == 1
        assert lifecycle_events(events, "rollback") == []

    def test_final_state_and_pins(self, uninterrupted):
        controller = uninterrupted["controller"]
        engine = uninterrupted["engine"]
        assert controller.state.champion_version == 1
        assert engine.active_version() == 1
        stats = controller.stats()
        assert stats["version_counter"] >= 1
        assert stats["last_day_processed"] == TOTAL_DAYS - 1
        assert engine.telemetry.counter("model_swaps") >= 1

    def test_provenance_and_history(self, uninterrupted):
        registry = ModelRegistry(uninterrupted["registry_dir"])
        versions = registry.versions(BASE_KEY)
        assert versions and versions[0] == 1
        record = registry.provenance(
            ModelKey("hot", RETRAIN.model, RETRAIN.horizon, RETRAIN.window,
                     version=1)
        )
        assert record["trigger"] == "drift"
        assert record["parent_version"] is None
        assert record["version"] == 1
        assert record["model"] == RETRAIN.model
        history = registry.history(BASE_KEY)
        assert [key.version for key, _ in history] == versions

    def test_events_are_json_serializable(self, uninterrupted):
        for events in uninterrupted["events_by_hour"].values():
            for event in events:
                json.dumps(event)

    def test_deterministic_across_n_jobs(self, drifted_dataset, tmp_path):
        """The whole control loop is bitwise identical for any --jobs."""
        streams = []
        for jobs in (1, 2):
            guard, _, controller, engine, _ = build_stack(
                drifted_dataset, tmp_path / f"registry-{jobs}", n_jobs=jobs
            )
            events = feed_guard(guard, drifted_dataset, 0, TOTAL_HOURS)
            streams.append(
                (events, controller.state.as_json(),
                 engine.predict(RETRAIN.horizon))
            )
        assert streams[0][0] == streams[1][0]
        assert streams[0][1] == streams[1][1]
        np.testing.assert_array_equal(streams[0][2], streams[1][2])


class TestControllerValidation:
    def build_engine(self, drifted_dataset, tmp_path, **engine_kwargs):
        registry = ModelRegistry(tmp_path / "registry")
        ingestor = StreamIngestor.for_dataset(drifted_dataset, w_max=W_MAX)
        defaults = dict(target="hot", model=RETRAIN.model, window=RETRAIN.window)
        defaults.update(engine_kwargs)
        return PredictionEngine(ingestor, registry, **defaults)

    def test_mismatched_cell_rejected(self, drifted_dataset, tmp_path):
        engine = self.build_engine(drifted_dataset, tmp_path)
        with pytest.raises(ValueError, match="retrain model"):
            LifecycleController(
                engine, retrain=RetrainConfig(model="RF-R"), start_day=TRAIN_DAY
            )
        with pytest.raises(ValueError, match="retrain window"):
            LifecycleController(
                engine,
                retrain=RetrainConfig(model=RETRAIN.model, window=6),
                start_day=TRAIN_DAY,
            )
        with pytest.raises(ValueError, match="retrain target"):
            LifecycleController(
                engine,
                retrain=RetrainConfig(model=RETRAIN.model, target="become"),
                start_day=TRAIN_DAY,
            )

    def test_undersized_ring_rejected(self, drifted_dataset, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        ingestor = StreamIngestor.for_dataset(drifted_dataset, w_max=7)
        engine = PredictionEngine(
            ingestor, registry, target="hot", model=RETRAIN.model, window=7
        )
        with pytest.raises(ValueError, match="cannot hold"):
            LifecycleController(engine, drift=DRIFT, retrain=RETRAIN)

    def test_negative_start_day_rejected(self, drifted_dataset, tmp_path):
        engine = self.build_engine(drifted_dataset, tmp_path)
        with pytest.raises(ValueError, match="start_day"):
            LifecycleController(
                engine, drift=DRIFT, retrain=RETRAIN, start_day=-1
            )


class TestOperatorRollback:
    def test_rollback_and_noop(self, drifted_dataset, tmp_path):
        registry = bootstrap(drifted_dataset, ModelRegistry(tmp_path / "registry"))
        ingestor = StreamIngestor.for_dataset(drifted_dataset, w_max=W_MAX)
        engine = PredictionEngine(
            ingestor, registry, target="hot", model=RETRAIN.model,
            window=RETRAIN.window,
        )
        controller = LifecycleController(
            engine, drift=DRIFT, retrain=RETRAIN, promotion=PROMO,
            state_path=tmp_path / "lifecycle.json", start_day=TRAIN_DAY,
        )
        assert controller.rollback(t_day=40) is None  # nothing promoted yet

        controller.state.phase = "confirm"
        controller.state.champion_version = 1
        controller.state.previous_version = None
        engine.set_active_version(RETRAIN.model, 1)
        event = controller.rollback(t_day=40)
        assert event["event"] == "rollback"
        assert event["reason"] == "operator"
        assert event["to_version"] is None
        assert engine.active_version() is None
        reloaded = LifecycleState.load(tmp_path / "lifecycle.json")
        assert reloaded.phase == "idle"
        assert reloaded.champion_version is None


# --------------------------------------------------------------------------
# Crash consistency: kill points inside the retrain/promotion day.
# --------------------------------------------------------------------------

class Boom(RuntimeError):
    """Stand-in for a crash at a chosen point inside the day hook."""


class TestCrashConsistency:
    def day_tick(self, events_by_hour, kind):
        """The hour whose tick produced the first *kind* event."""
        for hour in sorted(events_by_hour):
            if any(e.get("event") == kind for e in events_by_hour[hour]):
                return hour
        raise AssertionError(f"no {kind} event in the reference run")

    def resume_and_compare(self, drifted_dataset, uninterrupted, root, crash_hour):
        """Recover, resume to the end, and assert full parity with the
        uninterrupted reference from the crash hour onward."""
        recovered = CheckpointManager.recover(root / "ckpt")
        assert recovered.ingestor is not None
        assert recovered.ingestor.hours_seen == crash_hour

        guard, _, controller, engine, checkpoint = build_stack(
            drifted_dataset, root / "registry", ckpt_dir=root / "ckpt",
            ingestor=recovered.ingestor,
        )
        resumed_events = feed_guard(guard, drifted_dataset, crash_hour, TOTAL_HOURS)
        checkpoint.close()

        reference = uninterrupted["events_by_hour"]
        for hour in range(crash_hour, TOTAL_HOURS):
            assert resumed_events.get(hour) == reference.get(hour), hour
        assert controller.state.as_json() == \
            uninterrupted["controller"].state.as_json()
        assert engine.active_version() == uninterrupted["engine"].active_version()
        assert_state_equal(
            engine.ingestor, StreamIngestor.from_state(uninterrupted["ingestor_state"])
        )
        np.testing.assert_array_equal(
            engine.predict(RETRAIN.horizon),
            uninterrupted["engine"].predict(RETRAIN.horizon),
        )
        return controller

    def run_until_crash(self, drifted_dataset, root, crash_hour):
        guard, service, controller, engine, checkpoint = build_stack(
            drifted_dataset, root / "registry", ckpt_dir=root / "ckpt"
        )
        feed_guard(guard, drifted_dataset, 0, crash_hour)
        return guard, service, controller, engine, checkpoint

    def test_kill_before_challenger_archive(
        self, drifted_dataset, uninterrupted, tmp_path
    ):
        """Crash after the challenger fit but before save_version: no
        archive, no state commit — the whole day re-runs on resume."""
        crash_hour = self.day_tick(uninterrupted["events_by_hour"], "retrain")
        guard, service, controller, engine, checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )

        def explode(*args, **kwargs):
            raise Boom("crash before archive")

        engine.registry.save_version = explode
        with pytest.raises(Boom):
            apply_tick_direct(service, drifted_dataset, crash_hour)
        del guard, service, controller, engine, checkpoint  # crash

        registry = ModelRegistry(tmp_path / "registry")
        assert registry.versions(BASE_KEY) == []  # nothing leaked
        resumed = self.resume_and_compare(
            drifted_dataset, uninterrupted, tmp_path, crash_hour
        )
        assert resumed.state.version_counter == \
            uninterrupted["controller"].state.version_counter

    def test_kill_between_archive_and_state_commit(
        self, drifted_dataset, uninterrupted, tmp_path
    ):
        """Crash after the versioned archive is written but before the
        lifecycle state commits: the orphaned archive is overwritten
        with identical content on resume — no stray version leaks."""
        crash_hour = self.day_tick(uninterrupted["events_by_hour"], "retrain")
        guard, service, controller, engine, checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )

        real_save = engine.registry.save_version

        def save_then_explode(*args, **kwargs):
            real_save(*args, **kwargs)
            raise Boom("crash after archive, before commit")

        engine.registry.save_version = save_then_explode
        with pytest.raises(Boom):
            apply_tick_direct(service, drifted_dataset, crash_hour)
        del guard, service, controller, engine, checkpoint  # crash

        registry = ModelRegistry(tmp_path / "registry")
        assert registry.versions(BASE_KEY) == [1]  # the orphan
        state = LifecycleState.load(tmp_path / "ckpt" / "lifecycle.json")
        assert state.version_counter == 0  # commit never happened

        resumed = self.resume_and_compare(
            drifted_dataset, uninterrupted, tmp_path, crash_hour
        )
        # The deterministic re-run minted the SAME version number.
        assert registry.versions(BASE_KEY) == [1]
        assert resumed.state.challenger_version in (None, 1)

    @pytest.mark.parametrize("kind", ["retrain", "promotion"])
    def test_kill_between_commit_and_wal(
        self, drifted_dataset, uninterrupted, tmp_path, kind
    ):
        """Crash after the lifecycle day committed but before the WAL
        acknowledged the tick: the resumed controller starts from the
        committed ``before`` state and re-runs the day."""
        crash_hour = self.day_tick(uninterrupted["events_by_hour"], kind)
        guard, service, controller, engine, checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )
        applied = apply_tick_direct(service, drifted_dataset, crash_hour)
        assert any(e.get("event") == kind for e in applied)
        state = LifecycleState.load(tmp_path / "ckpt" / "lifecycle.json")
        assert state.last_day_processed == crash_hour // HOURS_PER_DAY
        del guard, service, controller, engine, checkpoint  # crash

        self.resume_and_compare(
            drifted_dataset, uninterrupted, tmp_path, crash_hour
        )

    def test_kill_mid_shadow_day(self, drifted_dataset, uninterrupted, tmp_path):
        """A mundane mid-stream kill during the shadow window."""
        crash_hour = self.day_tick(uninterrupted["events_by_hour"], "shadow") + 11
        guard, *_ , checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )
        del guard, checkpoint  # crash without close
        self.resume_and_compare(
            drifted_dataset, uninterrupted, tmp_path, crash_hour
        )

    def test_promotion_day_is_rerun_from_before(
        self, drifted_dataset, uninterrupted, tmp_path
    ):
        """Crash between the promotion day's lifecycle commit and its WAL
        append: the resumed controller re-runs the day from ``before``,
        so the promotion is decided and counted again, not replayed from
        a stored list."""
        reference = uninterrupted["events_by_hour"]
        crash_hour = self.day_tick(reference, "promotion")
        guard, service, controller, engine, checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )
        apply_tick_direct(service, drifted_dataset, crash_hour)
        path = tmp_path / "ckpt" / "lifecycle.json"
        assert set(json.loads(path.read_text(encoding="utf-8"))) == {"before", "after"}
        before, after = LifecycleState.load_pair(path)
        assert before.phase == "shadow" and after.phase == "confirm"
        del guard, service, controller, engine, checkpoint  # crash

        resumed = self.resume_and_compare(
            drifted_dataset, uninterrupted, tmp_path, crash_hour
        )
        promotions = [
            event
            for hour in range(crash_hour, TOTAL_HOURS)
            for event in reference.get(hour, [])
            if event.get("event") == "promotion"
        ]
        assert resumed.telemetry.counter("events_promotion") == len(promotions)

    def test_single_state_file_resumes_only_when_its_day_is_journaled(
        self, drifted_dataset, uninterrupted, tmp_path
    ):
        """A ``lifecycle.json`` in the older single-state format loads as
        ``after`` when the ring has completed its day, and is refused
        when that day must be re-run: there is no ``before``."""
        final = uninterrupted["controller"].state
        path = tmp_path / "lifecycle.json"
        path.write_text(json.dumps({
            **final.as_json(), "last_day_events": [], "last_day_pre_champion": 1,
        }), encoding="utf-8")
        registry = ModelRegistry(uninterrupted["registry_dir"])

        def controller_over(ingestor):
            engine = PredictionEngine(
                ingestor, registry, target="hot", model=RETRAIN.model,
                window=RETRAIN.window,
            )
            return LifecycleController(
                engine, drift=DRIFT, retrain=RETRAIN, promotion=PROMO,
                state_path=path, start_day=TRAIN_DAY,
            )

        journaled = controller_over(
            StreamIngestor.from_state(uninterrupted["ingestor_state"])
        )
        assert journaled.state == final
        assert journaled.before is None
        assert journaled.engine.active_version() == final.champion_version

        with pytest.raises(ValueError, match="lifecycle.json"):
            controller_over(StreamIngestor.for_dataset(drifted_dataset, w_max=W_MAX))

    def test_journal_cut_back_days_behind_the_commit(
        self, drifted_dataset, uninterrupted, tmp_path
    ):
        """A journal cut back more than one day behind ``lifecycle.json``:
        the controller resumes from ``before``, skips the days that state
        already covers and re-runs the committed day to the same end."""
        reference = uninterrupted["events_by_hour"]
        crash_hour = self.day_tick(reference, "promotion")
        guard, service, controller, engine, checkpoint = self.run_until_crash(
            drifted_dataset, tmp_path, crash_hour
        )
        apply_tick_direct(service, drifted_dataset, crash_hour)
        checkpoint.close()
        del guard, service, controller, engine, checkpoint  # crash
        before, after = LifecycleState.load_pair(tmp_path / "ckpt" / "lifecycle.json")

        cut_hour = crash_hour - 2 * HOURS_PER_DAY
        CheckpointManager.rewind(tmp_path / "ckpt", cut_hour)
        recovered = CheckpointManager.recover(tmp_path / "ckpt")
        assert recovered.ingestor.hours_seen == cut_hour
        assert recovered.ingestor.last_complete_day < before.last_day_processed
        guard, _, controller, engine, checkpoint = build_stack(
            drifted_dataset, tmp_path / "registry", ckpt_dir=tmp_path / "ckpt",
            ingestor=recovered.ingestor,
        )
        assert controller.state == before
        assert engine.active_version() == before.champion_version

        resumed = feed_guard(guard, drifted_dataset, cut_hour, crash_hour + 1)
        checkpoint.close()
        skipped = {hour: resumed.get(hour, []) for hour in range(cut_hour, crash_hour)}
        assert all("event" not in event for events in skipped.values() for event in events)
        assert resumed[crash_hour] == reference[crash_hour]
        assert controller.state == after
