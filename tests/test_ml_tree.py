"""Tests for repro.ml.tree — the from-scratch CART classifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeClassifier, balanced_sample_weights


class TestBalancedWeights:
    def test_two_class_balance(self):
        y = np.array([0, 0, 0, 1])
        weights = balanced_sample_weights(y)
        # Total weight per class must be equal.
        assert weights[y == 0].sum() == pytest.approx(weights[y == 1].sum())
        assert weights.sum() == pytest.approx(y.size)

    def test_uniform_when_balanced(self):
        weights = balanced_sample_weights(np.array([0, 1, 0, 1]))
        np.testing.assert_allclose(weights, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            balanced_sample_weights(np.zeros(0, int))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=80))
    def test_property_per_class_totals_equal(self, labels):
        y = np.asarray(labels)
        weights = balanced_sample_weights(y)
        totals = [weights[y == c].sum() for c in np.unique(y)]
        np.testing.assert_allclose(totals, totals[0])


def _separable(rng, n=200, p=6):
    """Two Gaussian blobs separated along feature 2."""
    X = rng.normal(size=(n, p))
    y = (X[:, 2] > 0).astype(int)
    return X, y


class TestDecisionTree:
    def test_fits_separable_data(self, rng):
        X, y = _separable(rng)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.95

    def test_probabilities_form_simplex(self, rng):
        X, y = _separable(rng)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (X.shape[0], 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0)

    def test_generalises_to_fresh_samples(self, rng):
        X, y = _separable(rng, n=400)
        tree = DecisionTreeClassifier(random_state=0).fit(X[:300], y[:300])
        assert (tree.predict(X[300:]) == y[300:]).mean() > 0.9

    def test_feature_importances_identify_signal(self, rng):
        X, y = _separable(rng)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_deterministic_given_seed(self, rng):
        X, y = _separable(rng)
        p1 = DecisionTreeClassifier(max_features=0.5, random_state=7).fit(X, y).predict_proba(X)
        p2 = DecisionTreeClassifier(max_features=0.5, random_state=7).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(p1, p2)

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_nodes_ == 1
        np.testing.assert_allclose(tree.predict_proba(X)[:, 0], 1.0)

    def test_min_weight_fraction_limits_growth(self, rng):
        X = rng.normal(size=(500, 6))
        # Noisy labels: no finite tree reaches purity, so node growth is
        # governed by the weight-fraction stopping rule alone.
        y = ((X[:, 2] + 0.8 * rng.normal(size=500)) > 0).astype(int)
        shallow = DecisionTreeClassifier(min_weight_fraction_split=0.5, random_state=0).fit(X, y)
        deep = DecisionTreeClassifier(min_weight_fraction_split=0.0002, random_state=0).fit(X, y)
        assert shallow.n_nodes_ < deep.n_nodes_

    def test_max_depth_zero_split(self, rng):
        X, y = _separable(rng)
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        assert stump.n_nodes_ <= 3

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_nodes_ == 1
        np.testing.assert_allclose(tree.predict_proba(X), 0.5)

    def test_sample_weight_shifts_leaf_probability(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 1, 1])
        weights = np.array([3.0, 3.0, 1.0, 1.0])
        tree = DecisionTreeClassifier(class_balance=False).fit(X, y, sample_weight=weights)
        proba = tree.predict_proba(np.zeros((1, 1)))
        assert proba[0, 0] == pytest.approx(0.75)

    def test_class_balance_equalises_probability(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        tree = DecisionTreeClassifier(class_balance=True).fit(X, y)
        np.testing.assert_allclose(tree.predict_proba(np.zeros((1, 1)))[0], 0.5)

    def test_multiclass(self, rng):
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.9
        assert tree.predict_proba(X).shape == (300, 4)

    def test_validation_errors(self, rng):
        X, y = _separable(rng)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=1.5)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features="log2")
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X[:5], y[:4])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X.ravel(), y)
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(bad, y)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba(np.zeros((2, 2)))

    def test_predict_wrong_width_raises(self, rng):
        X, y = _separable(rng)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            tree.predict_proba(X[:, :3])

    def test_labels_preserved_nonconsecutive(self, rng):
        X, __ = _separable(rng)
        y = np.where(X[:, 2] > 0, 10, -5)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert set(np.unique(tree.predict(X))) <= {10, -5}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_training_accuracy_beats_chance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        if y.min() == y.max():
            return
        tree = DecisionTreeClassifier(random_state=seed).fit(X, y)
        assert (tree.predict(X) == y).mean() >= 0.5


class TestSplitPathEquivalence:
    """The vectorised binary split path must agree with the general
    multiclass path on binary data."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_property_same_split_chosen(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 5))
        y = (X[:, 1] + 0.5 * rng.normal(size=40) > 0).astype(np.int64)
        if y.min() == y.max():
            return
        weights = rng.uniform(0.5, 2.0, size=40)

        tree = DecisionTreeClassifier(random_state=0)
        tree._rng = np.random.default_rng(0)
        tree._n_features = 5
        tree._n_classes = 2
        index = np.arange(40)
        node_weight = float(weights.sum())
        proba = np.array(
            [weights[y == 0].sum(), weights[y == 1].sum()]
        ) / node_weight
        parent_impurity = float(1.0 - (proba**2).sum())
        features = np.arange(5)

        fast = tree._best_split_binary(
            X, y, weights, index, parent_impurity, node_weight, features
        )
        slow = tree._best_split_multiclass(
            X, y, weights, index, parent_impurity, node_weight, features
        )
        if fast is None or slow is None:
            assert fast is None and slow is None
            return
        # gains must match; the chosen feature/threshold may only differ
        # between exactly tied candidates
        assert fast[2] == pytest.approx(slow[2], rel=1e-9)
        if abs(fast[2] - slow[2]) < 1e-12 and fast[0] == slow[0]:
            assert fast[1] == pytest.approx(slow[1])
