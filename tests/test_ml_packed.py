"""Bitwise parity tests for the packed struct-of-arrays forest kernel.

The contract under test (repro.ml.packed): ``predict_proba`` through
the packed kernel must be *bitwise* equal to the legacy per-tree loop
(``tests.oracles.predict_proba_legacy``), including forests whose
bootstrap members missed a class entirely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import _LEAF
from tests.oracles import predict_proba_legacy


def _blobs(rng, n=300, p=8):
    X = rng.normal(size=(n, p))
    y = ((X[:, 1] + 0.5 * X[:, 4]) > 0).astype(int)
    return X, y


def _rare_class_blobs(rng, n=300, p=8):
    """Three-class data where class 2 is a single instance.

    Bootstrap resamples almost surely drop the rare instance, so the
    forest contains members whose class axis misses class 2 — the case
    the pack-time class scatter must handle.
    """
    X, y = _blobs(rng, n=n, p=p)
    y = y.copy()
    y[0] = 2
    return X, y


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    np.testing.assert_array_equal(
        a.view(np.uint64), b.view(np.uint64), err_msg="not bitwise equal"
    )


class TestPackedParity:
    def test_serial_matches_legacy_bitwise(self, rng):
        X, y = _blobs(rng)
        forest = RandomForestClassifier(n_estimators=12, random_state=0).fit(X, y)
        _assert_bitwise(forest.predict_proba(X), predict_proba_legacy(forest, X))

    def test_members_missing_classes(self, rng):
        X, y = _rare_class_blobs(rng)
        forest = RandomForestClassifier(n_estimators=16, random_state=1).fit(X, y)
        positions = forest._member_positions()
        assert any(p is not None for p in positions), (
            "fixture regression: every member saw all classes"
        )
        assert forest.classes_.size == 3
        _assert_bitwise(forest.predict_proba(X), predict_proba_legacy(forest, X))

    def test_reduce_adds_in_tree_order(self, rng):
        # Shallow trees on noisy labels leave impure leaves, whose
        # class-balanced probabilities are not dyadic fractions.
        X, y = _blobs(rng)
        y = np.where(rng.random(y.size) < 0.2, 1 - y, y)
        forest = RandomForestClassifier(
            n_estimators=32, min_weight_fraction_split=0.05, random_state=6
        ).fit(X, y)
        planes = np.stack([
            forest._expand_proba(tree, X, position)
            for tree, position in zip(forest.estimators_, forest._member_positions())
        ])
        sequential = np.zeros(planes.shape[1:])
        for plane in planes:
            sequential += plane
        pairwise = np.ascontiguousarray(np.moveaxis(planes, 0, -1)).sum(axis=-1)
        assert not np.array_equal(pairwise, sequential), (
            "fixture regression: pairwise and sequential sums agree"
        )
        _assert_bitwise(forest.predict_proba(X), predict_proba_legacy(forest, X))

    def test_single_class_forest(self, rng):
        # NumPy sums a one-class gather pairwise; every leaf is exactly
        # 1.0 there, so the result must still match bitwise.
        X, _ = _blobs(rng, n=120)
        y = np.zeros(X.shape[0], dtype=np.int64)
        forest = RandomForestClassifier(n_estimators=20, random_state=7).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (X.shape[0], 1)
        _assert_bitwise(proba, predict_proba_legacy(forest, X))
        _assert_bitwise(forest.predict_proba(X[:1]), predict_proba_legacy(forest, X[:1]))

    def test_predict_labels_unchanged(self, rng):
        X, y = _blobs(rng)
        forest = RandomForestClassifier(n_estimators=10, random_state=3).fit(X, y)
        legacy_labels = forest.classes_[
            np.argmax(predict_proba_legacy(forest, X), axis=1)
        ]
        np.testing.assert_array_equal(forest.predict(X), legacy_labels)


class TestPackedStructure:
    def test_pack_concatenates_all_members(self, rng):
        X, y = _blobs(rng, n=150)
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        packed = forest.packed()
        total = sum(t._feature.size for t in forest.estimators_)
        assert packed.feature.shape == (total,)
        assert packed.proba.shape == (total, forest.classes_.size)
        assert packed.roots.shape == (5,)
        # Child indices are rebased: every non-leaf child index is global.
        internal = packed.feature != _LEAF
        assert packed.left[internal].max() < total
        assert (packed.left[internal] > np.arange(total)[internal]).all()

    def test_cache_reused_and_invalidated_by_fit(self, rng):
        X, y = _blobs(rng, n=150)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        first = forest.packed()
        assert forest.packed() is first
        forest.fit(X, y)
        assert forest.packed() is not first

    def test_rejects_wrong_width(self, rng):
        X, y = _blobs(rng, n=100)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            forest.packed().predict_proba(X[:, :4])

    def test_unfitted_forest_has_no_kernel(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier(n_estimators=3).packed()
