"""Tests for SweepGrid range handling and aggregation helpers."""

from __future__ import annotations

import pytest

from repro.core.evaluation import EvaluationResult
from repro.core.experiment import ExperimentResult, SweepGrid, mean_lift_by


def _result(model, t, h, w, lift):
    psi = lift * 0.1
    return ExperimentResult(
        model=model, t_day=t, horizon=h, window=w, target="hot",
        evaluation=EvaluationResult(psi, lift, 100, 10),
    )


class TestSweepGridRanges:
    def test_custom_t_range(self):
        grid = SweepGrid.small(models=("Average",), n_t=3, horizons=(1,),
                               windows=(1,), t_min=10, t_max=20)
        assert grid.t_days == (10, 15, 20)

    def test_single_t(self):
        grid = SweepGrid.small(models=("Average",), n_t=1, horizons=(1,),
                               windows=(1,), t_min=30, t_max=40)
        assert len(grid.t_days) == 1

    def test_paper_horizons_and_windows(self):
        grid = SweepGrid.paper()
        assert grid.horizons == (1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29)
        assert grid.windows == (1, 2, 3, 5, 7, 10, 14, 21)
        assert grid.t_days[0] == 52 and grid.t_days[-1] == 87


class TestMeanLiftBy:
    def test_group_by_horizon(self):
        results = [
            _result("Average", 60, 5, 7, 4.0),
            _result("Average", 61, 5, 7, 6.0),
            _result("Average", 60, 7, 7, 8.0),
        ]
        table = mean_lift_by(results, "h")
        assert table[("Average", 5)]["mean_lift"] == pytest.approx(5.0)
        assert table[("Average", 7)]["mean_lift"] == pytest.approx(8.0)
        assert table[("Average", 5)]["n_evaluations"] == 2

    def test_group_by_window(self):
        results = [
            _result("RF-R", 60, 5, 7, 4.0),
            _result("RF-R", 60, 5, 14, 6.0),
        ]
        table = mean_lift_by(results, "w")
        assert set(table) == {("RF-R", 7), ("RF-R", 14)}

    def test_group_by_t(self):
        results = [_result("Trend", 60, 5, 7, 4.0)]
        table = mean_lift_by(results, "t")
        assert ("Trend", 60) in table

    def test_undefined_evaluations_skipped(self):
        undefined = ExperimentResult(
            model="Average", t_day=60, horizon=5, window=7, target="hot",
            evaluation=EvaluationResult(float("nan"), float("nan"), 100, 0),
        )
        table = mean_lift_by([_result("Average", 61, 5, 7, 4.0), undefined], "h")
        assert table[("Average", 5)]["n_evaluations"] == 1

    def test_invalid_key(self):
        with pytest.raises(KeyError):
            mean_lift_by([], "z")
