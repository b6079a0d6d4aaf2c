"""Tests for repro.ml.regression_tree and repro.ml.boosting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.regression_tree import RegressionTree


def _regression_data(rng, n=300, p=6):
    X = rng.normal(size=(n, p))
    y = 2.0 * X[:, 1] - X[:, 3] + 0.1 * rng.normal(size=n)
    return X, y


class TestRegressionTree:
    def test_fits_piecewise_constant(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float) * 3.0
        tree = RegressionTree(max_depth=2).fit(X, y)
        pred = tree.predict(X)
        assert np.abs(pred - y).max() < 1e-9

    def test_reduces_mse_with_depth(self, rng):
        X, y = _regression_data(rng)
        shallow = RegressionTree(max_depth=1, random_state=0).fit(X, y)
        deep = RegressionTree(max_depth=5, random_state=0).fit(X, y)
        mse_shallow = np.mean((shallow.predict(X) - y) ** 2)
        mse_deep = np.mean((deep.predict(X) - y) ** 2)
        assert mse_deep < mse_shallow

    def test_importances_identify_signal(self, rng):
        X, y = _regression_data(rng, n=600)
        tree = RegressionTree(max_depth=4, random_state=0).fit(X, y)
        top_two = set(np.argsort(-tree.feature_importances_)[:2])
        assert top_two == {1, 3}

    def test_weighted_leaf_means(self):
        X = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 10.0, 10.0])
        weights = np.array([3.0, 3.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=1).fit(X, y, sample_weight=weights)
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(2.5)

    def test_constant_target_single_leaf(self, rng):
        X = rng.normal(size=(20, 3))
        tree = RegressionTree().fit(X, np.full(20, 7.0))
        assert tree.n_nodes_ == 1
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_state_round_trip_predicts_bitwise(self, rng):
        X, y = _regression_data(rng)
        tree = RegressionTree(max_depth=4, random_state=0).fit(X, y)
        restored = RegressionTree.from_state(tree.to_state())
        assert restored.n_nodes_ == tree.n_nodes_
        assert restored.predict(X).tobytes() == tree.predict(X).tobytes()
        assert (
            restored.feature_importances_.tobytes()
            == tree.feature_importances_.tobytes()
        )
        with pytest.raises(RuntimeError):
            RegressionTree().to_state()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(max_features=2.0)
        with pytest.raises(RuntimeError):
            RegressionTree().predict(rng.normal(size=(3, 2)))
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.normal(size=(3, 2)), np.zeros(4))


def _classification_data(rng, n=400, p=8):
    X = rng.normal(size=(n, p))
    y = ((X[:, 2] + 0.6 * X[:, 5] + 0.4 * rng.normal(size=n)) > 0).astype(int)
    return X, y


class TestGradientBoosting:
    def test_fits_and_beats_chance(self, rng):
        X, y = _classification_data(rng)
        model = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.85

    def test_probabilities_valid(self, rng):
        X, y = _classification_data(rng)
        model = GradientBoostingClassifier(n_estimators=20, random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_training_loss_decreases(self, rng):
        X, y = _classification_data(rng)
        model = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        assert model.train_loss_[-1] < model.train_loss_[0]

    def test_generalises(self, rng):
        X, y = _classification_data(rng, n=800)
        model = GradientBoostingClassifier(
            n_estimators=60, subsample=0.8, random_state=0
        ).fit(X[:600], y[:600])
        assert (model.predict(X[600:]) == y[600:]).mean() > 0.8

    def test_importances_identify_signal(self, rng):
        X, y = _classification_data(rng, n=800)
        model = GradientBoostingClassifier(n_estimators=40, random_state=0).fit(X, y)
        top_two = set(np.argsort(-model.feature_importances_)[:2])
        assert 2 in top_two

    def test_deterministic_per_seed(self, rng):
        X, y = _classification_data(rng)
        a = GradientBoostingClassifier(n_estimators=10, subsample=0.7,
                                       random_state=5).fit(X, y)
        b = GradientBoostingClassifier(n_estimators=10, subsample=0.7,
                                       random_state=5).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_imbalanced_with_balancing(self, rng):
        X = rng.normal(size=(300, 4))
        y = np.zeros(300, dtype=int)
        rare = X[:, 1] > 1.5
        y[rare] = 1
        if y.sum() < 3:
            y[:3] = 1
        model = GradientBoostingClassifier(
            n_estimators=40, class_balance=True, random_state=0
        ).fit(X, y)
        proba = model.predict_proba(X)[:, 1]
        # positives must rank above the median negative
        assert np.median(proba[y == 1]) > np.median(proba[y == 0])

    def test_multiclass_rejected(self, rng):
        X = rng.normal(size=(30, 3))
        y = np.arange(30) % 3
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(X, y)

    def test_nonconsecutive_labels(self, rng):
        X, y01 = _classification_data(rng)
        y = np.where(y01 == 1, 5, -2)
        model = GradientBoostingClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert set(np.unique(model.predict(X))) <= {5, -2}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(RuntimeError):
            GradientBoostingClassifier().predict(rng.normal(size=(2, 2)))


class TestSigmoidStability:
    def test_extreme_inputs_finite(self):
        from repro.ml.boosting import _sigmoid

        z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
        out = _sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[2] == pytest.approx(0.5)
        assert out[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_formula_in_safe_range(self, rng):
        from repro.ml.boosting import _sigmoid

        z = rng.uniform(-10, 10, size=100)
        np.testing.assert_allclose(_sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)
