"""Shadow scoring: parity with the offline evaluation pipeline."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.evaluation import EvaluationResult, evaluate_ranking
from repro.core.features import build_feature_tensor
from repro.data.tensor import HOURS_PER_DAY
from repro.lifecycle import RetrainConfig, RetrainScheduler, ShadowEvaluator, ShadowResult
from repro.serve import StreamIngestor

HORIZON, WINDOW = 1, 7
T_DAY = 60


def feed(dataset, ingestor, hours):
    kpis = dataset.kpis
    for hour in range(hours):
        ingestor.ingest_hour(
            kpis.values[:, hour, :], kpis.missing[:, hour, :], dataset.calendar[hour]
        )
    return ingestor


@pytest.fixture(scope="module")
def fed_ingestor(scored_dataset):
    ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW + 10)
    return feed(scored_dataset, ingestor, (T_DAY + HORIZON + 1) * HOURS_PER_DAY)


@pytest.fixture(scope="module")
def pair(fed_ingestor):
    """A champion/challenger pair fitted at T_DAY with different seeds."""
    config = RetrainConfig(
        model="RF-F1", horizon=HORIZON, window=WINDOW,
        n_estimators=4, n_training_days=3,
    )
    scheduler = RetrainScheduler(config)
    champion = scheduler.fit_challenger(fed_ingestor, T_DAY - 1)
    challenger = scheduler.fit_challenger(fed_ingestor, T_DAY)
    return champion, challenger


def result(ap=0.5, lift=2.0, n=30, positive=5):
    return EvaluationResult(
        average_precision=ap, lift=lift, n_sectors=n, n_positive=positive
    )


class TestShadowResult:
    def test_delta_formula(self):
        shadow = ShadowResult(10, 9, result(lift=2.0), result(lift=3.0))
        assert shadow.delta == pytest.approx(50.0)

    @pytest.mark.parametrize(
        "champion, challenger",
        [
            (result(lift=0.0), result(lift=2.0)),       # zero champion lift
            (result(lift=-1.0), result(lift=2.0)),      # negative champion
            (result(lift=np.nan), result(lift=2.0)),
            (result(lift=2.0), result(lift=np.nan)),
            (result(lift=2.0, positive=0), result(lift=2.0)),  # undefined day
        ],
    )
    def test_delta_nan_guards(self, champion, challenger):
        shadow = ShadowResult(10, 9, champion, challenger)
        assert np.isnan(shadow.delta)

    def test_as_row_json_roundtrip(self):
        shadow = ShadowResult(10, 9, result(), result(lift=2.5))
        row = shadow.as_row()
        assert json.loads(json.dumps(row)) == row
        assert row["delta"] == pytest.approx(25.0)
        assert row["target_day"] == 10 and row["input_day"] == 9


class TestEvaluateDay:
    def test_matches_offline_evaluation(self, scored_dataset, fed_ingestor, pair):
        """Acceptance criterion: shadow metrics computed from ring state
        equal an offline core.evaluation pass over the batch feature
        tensor — same AP, same lift, bitwise."""
        champion, challenger = pair
        evaluator = ShadowEvaluator("hot", HORIZON, WINDOW)
        target_day = T_DAY + HORIZON
        shadow = evaluator.evaluate_day(
            fed_ingestor, champion, challenger, target_day
        )
        assert shadow is not None
        assert shadow.input_day == T_DAY

        batch = build_feature_tensor(scored_dataset)
        labels = scored_dataset.labels_daily[:, target_day]
        for model, got in (
            (champion, shadow.champion),
            (challenger, shadow.challenger),
        ):
            scores = np.asarray(
                model.forecast_window(batch.window(T_DAY, WINDOW)),
                dtype=np.float64,
            )
            offline = evaluate_ranking(scores, labels)
            assert got.average_precision == offline.average_precision
            assert got.lift == offline.lift
            assert got.n_sectors == offline.n_sectors
            assert got.n_positive == offline.n_positive

    def test_baseline_champion_supported(self, scored_dataset, fed_ingestor, pair):
        """A baseline bootstrap champion shadows against a trained
        challenger through its (score_daily, labels_daily) protocol."""
        from repro.core.baselines import PersistModel

        _, challenger = pair
        baseline = PersistModel()
        evaluator = ShadowEvaluator("hot", HORIZON, WINDOW)
        shadow = evaluator.evaluate_day(
            fed_ingestor, baseline, challenger, T_DAY + HORIZON
        )
        assert shadow is not None
        expected = np.asarray(
            baseline.forecast(
                fed_ingestor.score_daily,
                fed_ingestor.labels_daily,
                T_DAY,
                HORIZON,
                WINDOW,
            ),
            dtype=np.float64,
        )
        offline = evaluate_ranking(
            expected, scored_dataset.labels_daily[:, T_DAY + HORIZON]
        )
        assert shadow.champion.lift == offline.lift

    def test_too_early_day_skipped(self, fed_ingestor, pair):
        champion, challenger = pair
        evaluator = ShadowEvaluator("hot", HORIZON, WINDOW)
        assert (
            evaluator.evaluate_day(fed_ingestor, champion, challenger, WINDOW - 1)
            is None
        )

    def test_evicted_day_skipped(self, fed_ingestor, pair):
        """A window that fell out of the ring skips the day for both
        models instead of crashing the lifecycle step."""
        champion, challenger = pair
        evaluator = ShadowEvaluator("hot", HORIZON, WINDOW)
        assert (
            evaluator.evaluate_day(fed_ingestor, champion, challenger, 20) is None
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="target"):
            ShadowEvaluator("cold", 1, 7)
        with pytest.raises(ValueError, match="horizon and window"):
            ShadowEvaluator("hot", 0, 7)
