"""Degraded-mode forecasting: fallback chain, backoff, auto-recovery.

A long-running service must answer ``predict`` even when its model is
gone — registry file deleted, archive corrupted, refresh raising.
:class:`ResilientPredictionEngine` extends the plain
:class:`~repro.serve.engine.PredictionEngine` with a **degradation
ladder** evaluated when the primary model fails:

1. *cached last forecast* — the most recent successful scores for the
   same ``(model, horizon, window)``; stale by a refresh or two but
   model-shaped;
2. *Persist baseline* — today's daily labels (the paper's strongest
   trivial baseline, computable from ring state alone);
3. *Random ranking* — seeded chance-level scores, the forecast of last
   resort.

Every degraded answer emits a structured ``degraded`` telemetry event
and bumps ``degraded_predictions``; degraded scores are **never cached**
(the `_compute_entry` seam returns ``cacheable=False``) so recovery is
automatic.  Registry retries follow exponential backoff — after the
``n``-th consecutive failure the registry is left alone for
``min(2**(n-1), 8)`` fallback-served calls — and the first
successful reload emits a ``recovered`` event and resets the ladder.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import PersistModel
from repro.serve.engine import PredictionEngine
from repro.serve.ingest import StreamIngestor
from repro.serve.registry import ModelRegistry
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientPredictionEngine", "fallback_scores"]

#: Ceiling on the fallback-served calls between registry retries for a
#: failing key.
_MAX_BACKOFF = 8

#: Seed of the Random forecast of last resort (fixed, so chaos replays
#: are reproducible).
_FALLBACK_SEED = 0


def fallback_scores(
    n_sectors: int,
    *,
    last_good: np.ndarray | None = None,
    persist: PersistModel | None = None,
    persist_args: tuple | None = None,
    seed_key: tuple = (),
) -> tuple[np.ndarray, str]:
    """Walk the degradation ladder and return ``(scores, level)``.

    The shared ladder behind every degraded answer in the system —
    :class:`ResilientPredictionEngine` fallbacks and the fleet
    supervisor's degraded-shard fragments both resolve through it:

    1. ``last_good`` — a copy of the most recent successful scores;
    2. ``persist.forecast(*persist_args)`` — the Persist baseline, when
       ring state is available to compute it;
    3. seeded random — chance-level scores from
       ``default_rng(list(seed_key))``, the answer of last resort.

    Never raises: a failing Persist step falls through to random.
    """
    if last_good is not None:
        return np.asarray(last_good, dtype=np.float64).copy(), "last_forecast"
    if persist is not None and persist_args is not None:
        try:
            scores = np.asarray(persist.forecast(*persist_args), dtype=np.float64)
            return scores, "persist"
        except Exception:  # noqa: BLE001 - ladder must not raise
            pass
    rng = np.random.default_rng(list(seed_key))
    return rng.random(n_sectors), "random"


class ResilientPredictionEngine(PredictionEngine):
    """A :class:`PredictionEngine` that degrades instead of raising.

    Parameters
    ----------
    ingestor, registry, target, model, window, telemetry:
        As for :class:`~repro.serve.engine.PredictionEngine`.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        registry: ModelRegistry,
        target: str = "hot",
        model: str = "RF-F1",
        window: int = 7,
        telemetry: ServeTelemetry | None = None,
    ) -> None:
        super().__init__(
            ingestor, registry, target=target, model=model, window=window,
            telemetry=telemetry,
        )
        self._persist = PersistModel()
        # (model, horizon, window) -> last successfully computed scores.
        self._last_good: dict[tuple[str, int, int], np.ndarray] = {}
        # (model, horizon, window) -> consecutive primary failures.
        self._failures: dict[tuple[str, int, int], int] = {}
        # (model, horizon, window) -> fallback calls left before retry.
        self._suppress: dict[tuple[str, int, int], int] = {}

    def invalidate(self) -> None:
        """Drop cached forecasts *and* the last-good fallback snapshots.

        A lifecycle promotion swaps the served model version; keeping
        the old champion's last-good scores around would let a degraded
        tick silently serve the demoted model's forecasts.
        """
        super().invalidate()
        self._last_good.clear()

    # --------------------------------------------------------- degradation
    def _compute_entry(
        self, model_name: str, t_day: int, horizon: int, window: int
    ) -> tuple[np.ndarray, bool]:
        key = (model_name, horizon, window)
        if self._suppress.get(key, 0) > 0:
            # Still backing off: serve a fallback without touching the
            # registry at all.
            self._suppress[key] -= 1
            self.telemetry.inc("degraded_retries_suppressed")
            return self._fallback(key, t_day, horizon, window, "backoff"), False
        try:
            scores = self._compute(model_name, t_day, horizon, window)
        except Exception as error:  # noqa: BLE001 - any primary failure degrades
            failures = self._failures.get(key, 0) + 1
            self._failures[key] = failures
            self._suppress[key] = min(2 ** (failures - 1), _MAX_BACKOFF)
            reason = f"{type(error).__name__}: {error}"
            return self._fallback(key, t_day, horizon, window, reason), False
        if self._failures.pop(key, 0):
            self._suppress.pop(key, None)
            self.telemetry.event(
                "recovered", model=model_name, horizon=horizon, window=window,
                t_day=t_day,
            )
        self._last_good[key] = scores
        return scores, True

    def _fallback(
        self,
        key: tuple[str, int, int],
        t_day: int,
        horizon: int,
        window: int,
        reason: str,
    ) -> np.ndarray:
        model_name = key[0]
        scores, level = fallback_scores(
            self.ingestor.n_sectors,
            last_good=self._last_good.get(key),
            persist=self._persist,
            persist_args=(
                self.ingestor.score_daily,
                self.ingestor.labels_daily,
                t_day,
                horizon,
                window,
            ),
            seed_key=(_FALLBACK_SEED, t_day, horizon),
        )
        self.telemetry.inc("degraded_predictions")
        self.telemetry.event(
            "degraded",
            model=model_name,
            horizon=horizon,
            window=window,
            t_day=t_day,
            fallback=level,
            reason=reason,
            consecutive_failures=self._failures.get(key, 0),
        )
        return scores

    # --------------------------------------------------------------- stats
    @property
    def degraded_keys(self) -> list[tuple[str, int, int]]:
        """Keys currently in a failure/backoff state."""
        return sorted(self._failures)

    def stats(self) -> dict:
        snapshot = super().stats()
        snapshot["degraded"] = {
            "failing_keys": len(self._failures),
            "last_good_entries": len(self._last_good),
            "max_backoff": _MAX_BACKOFF,
        }
        return snapshot
