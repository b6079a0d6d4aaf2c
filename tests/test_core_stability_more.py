"""Additional stability tests: split-day handling and report fields."""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import EvaluationResult
from repro.core.experiment import ExperimentResult
from repro.core.stability import temporal_stability


def _result(model, t, psi, h=5, w=7):
    return ExperimentResult(
        model=model, t_day=t, horizon=h, window=w, target="hot",
        evaluation=EvaluationResult(psi, psi / 0.1, 100, 10),
    )


class TestStabilitySplits:
    def test_explicit_split_day(self, rng):
        results = [_result("Average", t, float(rng.uniform(0.3, 0.7)))
                   for t in range(40, 80)]
        report = temporal_stability(results, split_day=59)
        assert report.n_combinations == 1
        assert 0.0 <= report.pvalues[("Average", 5, 7)] <= 1.0

    def test_min_samples_skips_thin_combinations(self, rng):
        results = [_result("Average", t, 0.5) for t in (52, 53, 80)]
        report = temporal_stability(results, min_samples=3)
        assert report.n_combinations == 0
        assert np.isnan(report.fraction_below_001)

    def test_multiple_combinations_counted(self, rng):
        results = []
        for h in (3, 7):
            for w in (7, 14):
                for t in range(52, 88):
                    results.append(
                        _result("RF-F1", t, float(rng.uniform(0.4, 0.6)), h=h, w=w)
                    )
        report = temporal_stability(results)
        assert report.n_combinations == 4

    def test_undefined_evaluations_ignored(self):
        undefined = ExperimentResult(
            model="Average", t_day=60, horizon=5, window=7, target="hot",
            evaluation=EvaluationResult(float("nan"), float("nan"), 100, 0),
        )
        defined = [_result("Average", t, 0.5 + 0.001 * t) for t in range(52, 80)]
        report = temporal_stability(defined + [undefined])
        assert report.n_combinations == 1
