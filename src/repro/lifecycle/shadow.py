"""Side-by-side champion/challenger scoring on live days.

While a challenger is in shadow, every freshly completed day *resolves*
one earlier forecast: the window ending at ``target_day - horizon`` is
re-assembled from the ring, both models score it, and each ranking is
evaluated against the day's ground-truth labels with the paper's
metrics (:func:`repro.core.evaluation.evaluate_ranking` — average
precision ψ, lift Λ) plus the relative improvement
``∆ = 100·(Λ_challenger/Λ_champion − 1)``.

Served predictions are never touched: the champion keeps answering
``predict()`` through the engine's cache, and the shadow pass
recomputes its forecast independently.  Because both forecasts are pure
functions of ring state and the fitted models, a shadow day evaluated
after a crash-recovery replay is bitwise the day an uninterrupted run
evaluated — and matches an offline ``core.evaluation`` pass over the
batch feature tensor (the ingestor parity contract), which is asserted
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baselines import BaselineModel
from repro.core.evaluation import EvaluationResult, evaluate_ranking
from repro.core.labels import become_hot_labels
from repro.serve.ingest import StreamIngestor

__all__ = ["ShadowResult", "ShadowEvaluator"]


@dataclass(frozen=True)
class ShadowResult:
    """One resolved shadow day."""

    target_day: int
    input_day: int
    champion: EvaluationResult
    challenger: EvaluationResult

    @property
    def delta(self) -> float:
        """Relative lift improvement ∆ (percent); NaN when undefined."""
        if (
            not self.champion.defined
            or not self.challenger.defined
            or not np.isfinite(self.champion.lift)
            or not np.isfinite(self.challenger.lift)
            or self.champion.lift <= 0
        ):
            return float("nan")
        return 100.0 * (self.challenger.lift / self.champion.lift - 1.0)

    def as_row(self) -> dict:
        """JSON-able row; floats round-trip exactly through json."""
        return {
            "target_day": int(self.target_day),
            "input_day": int(self.input_day),
            "champion_ap": float(self.champion.average_precision),
            "champion_lift": float(self.champion.lift),
            "challenger_ap": float(self.challenger.average_precision),
            "challenger_lift": float(self.challenger.lift),
            "n_sectors": int(self.champion.n_sectors),
            "n_positive": int(self.champion.n_positive),
            "delta": float(self.delta),
        }


class ShadowEvaluator:
    """Resolve shadow forecasts as their target days complete."""

    def __init__(self, target: str, horizon: int, window: int) -> None:
        if target not in ("hot", "become"):
            raise ValueError(f"target must be 'hot' or 'become', got {target!r}")
        if horizon < 1 or window < 1:
            raise ValueError(
                f"horizon and window must be >= 1, got h={horizon}, w={window}"
            )
        self.target = target
        self.horizon = horizon
        self.window = window

    def evaluate_day(
        self,
        ingestor: StreamIngestor,
        champion,
        challenger,
        target_day: int,
    ) -> ShadowResult | None:
        """Score both models for the forecast that targeted *target_day*.

        Returns None when the day is unresolvable: the input window does
        not fit before day 0, was evicted from the ring, or contains
        missing (gap-filled) hours — skipped for both models alike, so
        the comparison stays fair.
        """
        input_day = target_day - self.horizon
        if input_day - self.window + 1 < 0:
            return None
        labels = self._labels(ingestor, target_day)
        try:
            champion_scores = self.score_model(ingestor, champion, input_day)
            challenger_scores = self.score_model(ingestor, challenger, input_day)
        except ValueError:
            return None
        return ShadowResult(
            target_day=target_day,
            input_day=input_day,
            champion=evaluate_ranking(champion_scores, labels),
            challenger=evaluate_ranking(challenger_scores, labels),
        )

    def score_model(self, ingestor: StreamIngestor, model, input_day: int) -> np.ndarray:
        """One model's ranking from the window ending at *input_day*."""
        if isinstance(model, BaselineModel):
            return np.asarray(
                model.forecast(
                    ingestor.score_daily,
                    ingestor.labels_daily,
                    input_day,
                    self.horizon,
                    self.window,
                ),
                dtype=np.float64,
            )
        window_block = ingestor.feature_window(input_day, self.window)
        return np.asarray(model.forecast_window(window_block), dtype=np.float64)

    def _labels(self, ingestor: StreamIngestor, target_day: int) -> np.ndarray:
        if self.target == "hot":
            return np.asarray(ingestor.labels_daily[:, target_day])
        become = become_hot_labels(
            ingestor.score_daily, ingestor.config.hotspot_threshold
        )
        return become[:, target_day]

