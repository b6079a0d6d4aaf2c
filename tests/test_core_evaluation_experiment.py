"""Tests for repro.core.evaluation, experiment, stability, importance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import (
    EvaluationResult,
    evaluate_ranking,
    mean_confidence_interval,
    summarize_lifts,
)
from repro.core.experiment import (
    ALL_MODEL_NAMES,
    ExperimentResult,
    SweepGrid,
    SweepRunner,
    mean_lift_by,
)
from repro.core.features import build_feature_tensor
from repro.core.forecaster import make_model
from repro.core.importance import importance_map
from repro.core.scoring import ScoreConfig
from repro.core.stability import temporal_stability


class TestEvaluateRanking:
    def test_perfect_forecast(self):
        labels = np.array([1, 1, 0, 0, 0])
        result = evaluate_ranking(np.array([0.9, 0.8, 0.3, 0.2, 0.1]), labels)
        assert result.average_precision == pytest.approx(1.0)
        assert result.lift > 1.0
        assert result.defined

    def test_no_positives_undefined(self):
        result = evaluate_ranking(np.array([0.5, 0.4]), np.array([0, 0]))
        assert not result.defined
        assert np.isnan(result.lift)

    def test_cohort_counts(self):
        result = evaluate_ranking(np.array([0.5, 0.4, 0.3]), np.array([0, 1, 1]))
        assert result.n_sectors == 3
        assert result.n_positive == 2


class TestConfidenceInterval:
    def test_basic(self, rng):
        values = rng.normal(loc=5.0, size=400)
        mean, low, high = mean_confidence_interval(values)
        assert low < mean < high
        assert mean == pytest.approx(5.0, abs=0.2)

    def test_nan_dropped(self):
        mean, low, high = mean_confidence_interval(np.array([1.0, np.nan, 3.0]))
        assert mean == pytest.approx(2.0)

    def test_empty_all_nan(self):
        mean, low, high = mean_confidence_interval(np.array([np.nan]))
        assert np.isnan(mean)

    def test_single_value(self):
        mean, low, high = mean_confidence_interval(np.array([2.0]))
        assert mean == low == high == 2.0

    def test_summarize_lifts(self):
        results = [
            EvaluationResult(0.5, 3.0, 100, 10),
            EvaluationResult(0.6, 4.0, 100, 12),
            EvaluationResult(float("nan"), float("nan"), 100, 0),
        ]
        summary = summarize_lifts(results)
        assert summary["mean_lift"] == pytest.approx(3.5)
        assert summary["n_evaluations"] == 2


class TestSweepGrid:
    def test_paper_grid_counts(self):
        grid = SweepGrid.paper()
        assert len(grid.t_days) == 36
        assert len(grid.horizons) == 15
        assert len(grid.windows) == 8
        # all registered models: the paper's 4 baselines and 4 classifiers
        assert grid.n_combinations == len(ALL_MODEL_NAMES) * 36 * 15 * 8

    def test_small_grid(self):
        grid = SweepGrid.small(models=("Average",), n_t=3, horizons=(5,), windows=(7,))
        assert grid.n_combinations == 3
        assert all(52 <= t <= 87 for t in grid.t_days)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(models=("Nonsense",), t_days=(60,), horizons=(1,), windows=(1,))
        with pytest.raises(ValueError):
            SweepGrid(models=("Average",), t_days=(), horizons=(1,), windows=(1,))
        with pytest.raises(ValueError):
            SweepGrid(models=("Average",), t_days=(60,), horizons=(0,), windows=(1,))


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def runner(self, scored_dataset):
        return SweepRunner(
            scored_dataset, target="hot", n_estimators=4, n_training_days=3, seed=0
        )

    def test_baseline_cell(self, runner):
        result = runner.run_cell("Average", t_day=60, horizon=5, window=7)
        assert result.model == "Average"
        assert result.target == "hot"
        assert result.evaluation.n_sectors == runner.dataset.n_sectors

    def test_classifier_cell(self, runner):
        result = runner.run_cell("RF-F1", t_day=60, horizon=5, window=7)
        assert np.isfinite(result.evaluation.lift)

    def test_run_small_grid(self, runner):
        grid = SweepGrid.small(
            models=("Random", "Average"), n_t=2, horizons=(3,), windows=(7,)
        )
        results = runner.run(grid)
        assert len(results) == grid.n_combinations
        rows = [r.as_row() for r in results]
        assert {row["model"] for row in rows} == {"Random", "Average"}

    def test_model_rows_do_not_depend_on_other_models(self, runner):
        # Each cell seeds from CRC32(seed|model|t|h|w), so adding or
        # dropping a model leaves every other model's rows unchanged.
        cells = dict(n_t=2, horizons=(1, 7), windows=(7,))
        alone = runner.run(SweepGrid.small(models=("RF-F1",), **cells), n_jobs=1)
        mixed = runner.run(
            SweepGrid.small(models=("Tree", "RF-F1", "RF-F2"), **cells), n_jobs=1
        )
        np.testing.assert_equal(
            [r.as_row() for r in alone],
            [r.as_row() for r in mixed if r.model == "RF-F1"],
        )
        assert len(alone) == 4

    def test_deterministic_cells(self, scored_dataset):
        r1 = SweepRunner(scored_dataset, n_estimators=3, n_training_days=2, seed=7)
        r2 = SweepRunner(scored_dataset, n_estimators=3, n_training_days=2, seed=7)
        a = r1.run_cell("RF-F1", 60, 5, 7)
        b = r2.run_cell("RF-F1", 60, 5, 7)
        assert a.evaluation.average_precision == b.evaluation.average_precision

    def test_become_target(self, scored_dataset):
        runner = SweepRunner(scored_dataset, target="become", n_estimators=3,
                             n_training_days=6, seed=0)
        assert runner.targets_daily.sum() > 0
        result = runner.run_cell("Average", t_day=60, horizon=5, window=7)
        assert result.target == "become"

    def test_out_of_range_target_day_raises(self, runner):
        with pytest.raises(IndexError):
            runner.run_cell("Average", t_day=125, horizon=5, window=7)

    def test_invalid_target_raises(self, scored_dataset):
        with pytest.raises(ValueError):
            SweepRunner(scored_dataset, target="both")

    def test_requires_scores(self, small_dataset):
        with pytest.raises(RuntimeError):
            SweepRunner(small_dataset)

    def test_mean_lift_by_horizon(self, runner):
        grid = SweepGrid.small(models=("Average",), n_t=2, horizons=(3, 5), windows=(7,))
        results = runner.run(grid)
        table = mean_lift_by(results, "h")
        assert ("Average", 3) in table
        assert "mean_lift" in table[("Average", 3)]


class TestTemporalStability:
    def _fake_results(self, rng, shift=0.0):
        results = []
        for model in ("Average", "RF-F1"):
            for t in range(52, 88):
                psi = rng.normal(loc=0.5 + (shift if t > 69 else 0.0), scale=0.05)
                psi = float(np.clip(psi, 0.01, 0.99))
                results.append(
                    ExperimentResult(
                        model=model, t_day=t, horizon=5, window=7, target="hot",
                        evaluation=EvaluationResult(psi, psi / 0.1, 100, 10),
                    )
                )
        return results

    def test_stable_when_no_shift(self, rng):
        report = temporal_stability(self._fake_results(rng))
        assert report.n_combinations == 2
        assert report.is_stable(0.01)

    def test_detects_large_shift(self, rng):
        report = temporal_stability(self._fake_results(rng, shift=0.4))
        assert not report.is_stable(0.01)
        assert report.fraction_below_001 == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            temporal_stability([])


class TestImportanceMap:
    def test_map_shape_and_totals(self, scored_dataset):
        features = build_feature_tensor(scored_dataset, ScoreConfig())
        targets = np.asarray(scored_dataset.labels_daily, dtype=np.int64)
        model = make_model("RF-R", n_estimators=4, n_training_days=3, random_state=0)
        model.fit(features, targets, t_day=60, horizon=5, window=3)
        imap = importance_map(model, features, window=3)
        assert imap.raw.shape == (72, features.n_channels)
        assert imap.cumulative.max() == pytest.approx(1.0)
        assert np.all(np.diff(imap.cumulative, axis=0) >= -1e-12)
        top = imap.top_channels(3)
        assert len(top) == 3
        families = imap.family_totals(features)
        assert sum(families.values()) == pytest.approx(1.0, abs=1e-6)

    def test_scores_dominate_importance(self, analysis_dataset):
        """Paper Fig. 15 shape: past scores carry substantial importance
        and rank among the top channels, while the enriched calendar
        contributes almost nothing.  Needs the larger fixture: with only
        a few dozen training sectors a single KPI column can separate
        the classes perfectly and scores never get picked."""
        features = build_feature_tensor(analysis_dataset, ScoreConfig())
        targets = np.asarray(analysis_dataset.labels_daily, dtype=np.int64)
        model = make_model("RF-R", n_estimators=10, n_training_days=10, random_state=0)
        model.fit(features, targets, t_day=60, horizon=5, window=7)
        imap = importance_map(model, features, window=7)
        families = imap.family_totals(features)
        assert families["scores"] + families["label"] > families["calendar"]
        assert families["scores"] > 0.03
        top_names = [name for name, __ in imap.top_channels(5)]
        assert any(name.startswith("score_") for name in top_names)

    def test_requires_raw_view(self, scored_dataset):
        features = build_feature_tensor(scored_dataset, ScoreConfig())
        targets = np.asarray(scored_dataset.labels_daily, dtype=np.int64)
        model = make_model("RF-F1", n_estimators=3, n_training_days=2, random_state=0)
        model.fit(features, targets, t_day=60, horizon=5, window=3)
        with pytest.raises(ValueError):
            importance_map(model, features, window=3)

    def test_requires_fit(self, scored_dataset):
        features = build_feature_tensor(scored_dataset, ScoreConfig())
        model = make_model("RF-R", n_estimators=2, random_state=0)
        with pytest.raises(RuntimeError):
            importance_map(model, features, window=3)
