"""The lifecycle control plane: drift → retrain → shadow → promote.

:class:`LifecycleController` owns one served ``(model, horizon,
window)`` cell and plugs into the serving loop through
:meth:`~repro.serve.service.HotSpotService.add_day_hook`.  Once per
completed day it

1. feeds the day's summary to the :class:`~repro.lifecycle.drift
   .DriftMonitor` and runs the KS check (``drift`` events);
2. resolves the day for whichever pair is under side-by-side scoring —
   champion vs challenger in ``shadow``, demoted-vs-promoted in
   ``confirm`` (``shadow`` / ``confirm`` events);
3. asks the :class:`~repro.lifecycle.promote.PromotionPolicy` for a
   verdict and applies it — versioned promotion or rollback through the
   :class:`~repro.serve.registry.ModelRegistry`, pinning the
   :class:`~repro.serve.engine.PredictionEngine` to the new version
   (which invalidates the per-day forecast cache immediately);
4. when idle, asks the :class:`~repro.lifecycle.retrain
   .RetrainScheduler` whether drift or cadence warrants a challenger
   and fits one from the ring (``retrain`` / ``retrain_failed``).

**Crash-consistency contract.**  The hook runs inside the resilience
guard's apply step, *before* the day-completing tick reaches the WAL.
All lifecycle decisions are deterministic functions of (ring state,
prior :class:`~repro.lifecycle.promote.LifecycleState`): challenger
seeds derive from the trigger day, registry versions from the state's
own counter (an archive orphaned by a crash is overwritten with
identical bytes on re-processing), and the whole day's transition
commits in one atomic ``lifecycle.json`` write of the state the day
started from (``before``) and the one it ended in (``after``).  One
resume rule follows: a restarted controller takes ``after`` when the
recovered ring has completed ``after``'s day and ``before`` otherwise,
pins that state's champion, and re-runs the next day like any other.
The champion pinned while a re-run day's alert is computed is the one
that served while the day first ran, and the re-run reaches the same
events and the same ``after``, so the active champion and the alert
stream match an uninterrupted run (asserted in
``tests/test_lifecycle_promotion.py``).
"""

from __future__ import annotations

import copy
from pathlib import Path

from repro.data.tensor import HOURS_PER_DAY
from repro.lifecycle.drift import DriftConfig, DriftMonitor
from repro.lifecycle.promote import LifecycleState, PromotionConfig, PromotionPolicy
from repro.lifecycle.retrain import RetrainConfig, RetrainScheduler
from repro.lifecycle.shadow import ShadowEvaluator
from repro.serve.engine import PredictionEngine
from repro.serve.ingest import IngestTick
from repro.serve.registry import ModelKey

__all__ = ["LifecycleController"]


class LifecycleController:
    """Drive drift monitoring, retraining, and promotion for one cell.

    Parameters
    ----------
    engine:
        The serving engine whose default ``(model, window)`` cell this
        controller manages; promotions pin its active model version.
    drift, retrain, promotion:
        Sub-policy configurations (defaults apply when omitted).  The
        retrain cell must match the engine's served cell — promoting a
        challenger trained for a different cell would never affect
        served forecasts.
    state_path:
        Where the durable state commits after every processed day.
        Point this at ``lifecycle.json`` in the checkpoint directory so
        lifecycle recovery shares the WAL's directory; ``None`` keeps
        state in memory only (no crash consistency).  An existing file
        is loaded on construction — passing the same path after a crash
        *is* the resume path (module docstring).  A file in the older
        single-state format resumes only when the ring has completed its
        day; otherwise there is no ``before`` to re-run from and
        construction raises :class:`ValueError`.
    start_day:
        First day lifecycle decisions run; earlier days only feed the
        drift monitor.  The bootstrap champion is treated as trained at
        this day (cadence and hysteresis count from it).
    n_jobs:
        Worker processes for challenger forest fits (bitwise-identical
        results for any value, the PR 2 guarantee).
    """

    def __init__(
        self,
        engine: PredictionEngine,
        drift: DriftConfig | None = None,
        retrain: RetrainConfig | None = None,
        promotion: PromotionConfig | None = None,
        state_path: str | Path | None = None,
        start_day: int = 0,
        n_jobs: int | None = 1,
    ) -> None:
        retrain = retrain or RetrainConfig()
        if retrain.target != engine.target:
            raise ValueError(
                f"retrain target {retrain.target!r} does not match the engine's "
                f"{engine.target!r}"
            )
        if retrain.model != engine.default_model:
            raise ValueError(
                f"retrain model {retrain.model!r} does not match the served "
                f"default {engine.default_model!r}; promotions would never "
                "affect served forecasts"
            )
        if retrain.window != engine.default_window:
            raise ValueError(
                f"retrain window {retrain.window} does not match the served "
                f"default {engine.default_window}"
            )
        if start_day < 0:
            raise ValueError(f"start_day must be >= 0, got {start_day}")
        self.engine = engine
        self.monitor = DriftMonitor(drift)
        self.scheduler = RetrainScheduler(retrain)
        self.shadow = ShadowEvaluator(retrain.target, retrain.horizon, retrain.window)
        self.policy = PromotionPolicy(promotion)
        self.start_day = start_day
        self.n_jobs = n_jobs
        self.state_path = None if state_path is None else Path(state_path)

        ingestor = engine.ingestor
        needed_days = max(
            self.monitor.config.total_days, self.scheduler.config.lookback_days
        )
        if ingestor.capacity < needed_days * HOURS_PER_DAY:
            raise ValueError(
                f"ingestor ring ({ingestor.capacity} h) cannot hold the "
                f"{needed_days} days the drift windows and retrain lookback "
                "need; raise w_max/capacity_hours"
            )

        self.state = LifecycleState(last_retrain_day=start_day)
        #: The state the last processed day started from, committed
        #: beside :attr:`state` (``None`` until a day is processed).
        self.before: LifecycleState | None = None
        pair = (
            None
            if self.state_path is None
            else LifecycleState.load_pair(self.state_path)
        )
        if pair is not None:
            self.before, after = pair
            if ingestor.last_complete_day >= after.last_day_processed:
                self.state = after
            elif self.before is None:
                raise ValueError(
                    f"{self.state_path} holds no state to re-run day "
                    f"{after.last_day_processed} from (the ring has completed "
                    f"day {ingestor.last_complete_day}); a single-state "
                    "lifecycle file resumes only after a clean stop"
                )
            else:
                self.state = copy.deepcopy(self.before)
        # Mid-stream attach or crash recovery: rebuild the drift windows
        # from ring state and pin the engine to the resumed champion.
        if ingestor.last_complete_day >= 0:
            self.monitor.backfill(ingestor, ingestor.last_complete_day)
        self._apply_pins()

    # ------------------------------------------------------------- wiring
    @property
    def telemetry(self):
        return self.engine.telemetry

    @property
    def config(self) -> RetrainConfig:
        return self.scheduler.config

    def model_key(self, version: int | None) -> ModelKey:
        """Registry key of the managed cell at *version*."""
        config = self.config
        return ModelKey(
            config.target, config.model, config.horizon, config.window,
            version=version,
        )

    def _model(self, version: int | None):
        return self.engine.registry.get(self.model_key(version))

    def _apply_pins(self) -> None:
        """Make the engine serve the durable state's champion."""
        self.engine.set_active_version(
            self.config.model, self.state.champion_version
        )

    def _commit(self, t_day: int) -> None:
        """The per-day atomic commit point (see module docstring)."""
        self.state.last_day_processed = t_day
        if self.state_path is not None:
            self.state.save(self.state_path, before=self.before)

    # ------------------------------------------------------------ the hook
    def on_day(self, tick: IngestTick) -> list[dict]:
        """Day-completion hook: run one lifecycle step, return its events."""
        if not tick.day_completed:
            return []
        t_day = tick.t_day
        ingestor = self.engine.ingestor
        self.monitor.observe_day(ingestor, t_day)
        if t_day <= self.state.last_day_processed or t_day < self.start_day:
            return []

        self.before = copy.deepcopy(self.state)
        events: list[dict] = []
        drifted = self._check_drift(t_day, events)
        if self.state.phase == "shadow":
            self._step_shadow(t_day, events)
        elif self.state.phase == "confirm":
            self._step_confirm(t_day, events)
        if self.state.phase == "idle":
            self._maybe_retrain(t_day, drifted, events)
        self._commit(t_day)
        return events

    # ------------------------------------------------------------- phases
    def _check_drift(self, t_day: int, events: list[dict]) -> bool:
        record = self.monitor.check(t_day)
        if record is None:
            return False
        events.append(self.telemetry.event("drift", **record))
        return True

    def _step_shadow(self, t_day: int, events: list[dict]) -> None:
        state = self.state
        config = self.config
        if t_day >= state.challenger_trained_day + config.horizon:
            result = self.shadow.evaluate_day(
                self.engine.ingestor,
                self._model(state.champion_version),
                self._model(state.challenger_version),
                t_day,
            )
            if result is not None:
                row = result.as_row()
                state.shadow_rows.append(row)
                events.append(
                    self.telemetry.event(
                        "shadow",
                        champion_version=state.champion_version,
                        challenger_version=state.challenger_version,
                        **row,
                    )
                )
        verdict = self.policy.decide_shadow(
            state.shadow_rows, t_day, state.last_promotion_day
        )
        if verdict == "promote":
            self._promote(t_day, events)
        elif verdict == "retire":
            events.append(
                self.telemetry.event(
                    "challenger_retired",
                    t_day=t_day,
                    version=state.challenger_version,
                    shadow_days=len(state.shadow_rows),
                    defined_days=self.policy.defined_days(state.shadow_rows),
                    mean_delta=self.policy.mean_delta(state.shadow_rows),
                )
            )
            state.challenger_version = None
            state.challenger_trained_day = -1
            state.shadow_rows = []
            state.phase = "idle"

    def _promote(self, t_day: int, events: list[dict]) -> None:
        state = self.state
        events.append(
            self.telemetry.event(
                "promotion",
                t_day=t_day,
                from_version=state.champion_version,
                to_version=state.challenger_version,
                mean_delta=self.policy.mean_delta(state.shadow_rows),
                shadow_days=len(state.shadow_rows),
                defined_days=self.policy.defined_days(state.shadow_rows),
            )
        )
        state.previous_version = state.champion_version
        state.champion_version = state.challenger_version
        state.challenger_version = None
        state.challenger_trained_day = -1
        state.last_promotion_day = t_day
        state.shadow_rows = []
        state.confirm_rows = []
        state.phase = (
            "confirm" if self.policy.config.confirm_days > 0 else "idle"
        )
        self._apply_pins()

    def _step_confirm(self, t_day: int, events: list[dict]) -> None:
        state = self.state
        if t_day > state.last_promotion_day:
            # Roles swapped: the demoted champion shadows the promoted
            # one, so a positive ∆ means the old model still wins.
            result = self.shadow.evaluate_day(
                self.engine.ingestor,
                self._model(state.champion_version),
                self._model(state.previous_version),
                t_day,
            )
            if result is not None:
                row = result.as_row()
                state.confirm_rows.append(row)
                events.append(
                    self.telemetry.event(
                        "confirm",
                        champion_version=state.champion_version,
                        previous_version=state.previous_version,
                        **row,
                    )
                )
        verdict = self.policy.decide_confirm(state.confirm_rows)
        if verdict == "rollback":
            self._rollback(t_day, events, reason="confirm_window")
        elif verdict == "confirm":
            events.append(
                self.telemetry.event(
                    "promotion_confirmed",
                    t_day=t_day,
                    version=state.champion_version,
                    confirm_days=len(state.confirm_rows),
                    mean_delta=self.policy.mean_delta(state.confirm_rows),
                )
            )
            state.previous_version = None
            state.confirm_rows = []
            state.phase = "idle"

    def _rollback(self, t_day: int, events: list[dict], reason: str) -> None:
        state = self.state
        events.append(
            self.telemetry.event(
                "rollback",
                t_day=t_day,
                from_version=state.champion_version,
                to_version=state.previous_version,
                reason=reason,
                mean_delta=self.policy.mean_delta(state.confirm_rows),
            )
        )
        state.champion_version = state.previous_version
        state.previous_version = None
        state.confirm_rows = []
        state.phase = "idle"
        self._apply_pins()

    def rollback(self, t_day: int | None = None) -> dict | None:
        """Operator-initiated rollback to the pre-promotion champion.

        Only meaningful while a previous version is on record (the
        ``confirm`` phase, or right after a promotion with
        ``confirm_days == 0`` before the record is cleared).  Returns
        the rollback event, or None when there is nothing to roll back
        to.  The transition commits durably like any per-day one.
        """
        if self.state.previous_version is None and self.state.phase != "confirm":
            return None
        day = self.engine.ingestor.last_complete_day if t_day is None else t_day
        events: list[dict] = []
        self._rollback(day, events, reason="operator")
        self._commit(max(day, self.state.last_day_processed))
        return events[0]

    def _maybe_retrain(self, t_day: int, drifted: bool, events: list[dict]) -> None:
        state = self.state
        config = self.config
        reason = self.scheduler.should_retrain(
            t_day, drifted, state.last_retrain_day
        )
        if reason is None:
            return
        try:
            challenger = self.scheduler.fit_challenger(
                self.engine.ingestor, t_day, n_jobs=self.n_jobs
            )
        except ValueError as error:
            events.append(
                self.telemetry.event(
                    "retrain_failed", t_day=t_day, trigger=reason,
                    detail=str(error),
                )
            )
            return
        version = state.version_counter + 1
        seed = self.scheduler.seed_for(t_day)
        provenance = {
            "trigger": reason,
            "trigger_day": t_day,
            "seed": seed,
            "n_estimators": config.n_estimators,
            "n_training_days": config.n_training_days,
            "train_window_days": [t_day - config.lookback_days + 1, t_day],
            "parent_version": state.champion_version,
        }
        self.engine.registry.save_version(
            self.model_key(None), challenger, provenance, version=version
        )
        state.version_counter = version
        state.challenger_version = version
        state.challenger_trained_day = t_day
        state.last_retrain_day = t_day
        state.shadow_rows = []
        state.phase = "shadow"
        events.append(
            self.telemetry.event(
                "retrain", t_day=t_day, trigger=reason, version=version,
                seed=seed, parent_version=state.champion_version,
            )
        )

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Lifecycle snapshot for the service stats surface."""
        state = self.state
        return {
            "phase": state.phase,
            "champion_version": state.champion_version,
            "challenger_version": state.challenger_version,
            "version_counter": state.version_counter,
            "last_retrain_day": state.last_retrain_day,
            "last_promotion_day": state.last_promotion_day,
            "last_day_processed": state.last_day_processed,
            "shadow_days": len(state.shadow_rows),
            "confirm_days": len(state.confirm_rows),
            "drift_checks": self.monitor.checks_run,
            "challenger_fits": self.scheduler.fits,
        }

    def status(self) -> dict:
        """Operator-facing snapshot for the gateway's ``/status`` plane.

        Extends :meth:`stats` with the champion's registry provenance
        sidecar and the live shadow Δ summary, so an operator can see
        *which* model is serving (version, trigger, seed, parent) and
        how the current challenger is tracking without reading registry
        files off disk.
        """
        state = self.state
        registry = self.engine.registry
        champion_key = self.model_key(state.champion_version)
        snapshot = self.stats()
        snapshot["champion"] = {
            "version": state.champion_version,
            "key": str(champion_key),
            "provenance": registry.provenance(champion_key),
        }
        shadow: dict = {
            "phase": state.phase,
            "challenger_version": state.challenger_version,
            "shadow_days": len(state.shadow_rows),
            "confirm_days": len(state.confirm_rows),
        }
        if state.shadow_rows:
            shadow["defined_days"] = self.policy.defined_days(state.shadow_rows)
            shadow["mean_delta"] = self.policy.mean_delta(state.shadow_rows)
        snapshot["shadow"] = shadow
        return snapshot
