"""Packed struct-of-arrays forest kernel.

:class:`~repro.ml.forest.RandomForestClassifier.predict_proba` is the
serving hot path: every forecast walks every member tree for every
sector.  The member trees already store flat node arrays
(:meth:`repro.ml.tree.DecisionTreeClassifier.to_state`), but the legacy
loop still pays per-tree Python overhead — one active-lane walk, one
``_expand_proba`` zero-allocation and one class scatter per member.

:class:`PackedForest` concatenates all member node arrays into single
struct-of-arrays buffers: child indices are rebased to global node
indices, each tree's root sits at ``roots[k]``, and the per-node
probability table is pre-expanded onto the forest's class axis (the
member→forest class scatter is baked in at pack time, so members fitted
on bootstrap resamples that miss a class need no per-call handling).
Prediction then runs **one** vectorized node-index walk over all
``n_samples × n_trees`` lanes at once; the number of Python-level loop
iterations collapses from ``n_trees × max_depth`` to ``max_depth``.

Bitwise parity contract: split comparisons are exact float64
comparisons on identical values, so every lane reaches exactly the leaf
the legacy walk reaches.  The final reduction gathers the leaf
probabilities into a C-contiguous ``(n_trees, n_samples, n_classes)``
array and adds it with ``np.add.reduce`` over axis 0.  A reduce over
the outer axis adds whole ``(n_samples, n_classes)`` planes one after
another, **in tree order**, so the floating-point addition order — and
therefore every output bit — matches the legacy per-tree loop.  A
pairwise ``np.sum`` over a contiguous tree axis would not.  The one
exception is a single-class forest, where NumPy lays the gather out
with the tree axis innermost and does sum pairwise; every leaf there
is exactly 1.0, so any addition order gives the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _LEAF

__all__ = ["PackedForest"]


class PackedForest:
    """Immutable struct-of-arrays predict kernel for a fitted forest.

    Attributes
    ----------
    feature, threshold, left, right:
        Concatenated node arrays over all members; ``left``/``right``
        hold **global** node indices (``_LEAF`` at leaves).
    proba:
        ``(total_nodes, n_classes)`` leaf probabilities on the forest's
        class axis (member class positions pre-scattered).
    roots:
        ``(n_trees,)`` global node index of each member's root.
    classes:
        The forest's class labels.
    n_features, n_estimators:
        Design width and the bagging divisor (the forest's
        ``n_estimators``, which is also ``roots.size``).
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "proba",
        "roots",
        "classes",
        "n_features",
        "n_estimators",
        "_children",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        proba: np.ndarray,
        roots: np.ndarray,
        classes: np.ndarray,
        n_features: int,
        n_estimators: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.proba = proba
        self.roots = roots
        self.classes = classes
        self.n_features = int(n_features)
        self.n_estimators = int(n_estimators)
        # Interleaved (right, left) pairs: child of node i under
        # comparison outcome b is _children[2*i + b], turning the
        # left/right gathers plus np.where select into a single take.
        children = np.empty(2 * feature.size, dtype=np.int64)
        children[0::2] = right
        children[1::2] = left
        self._children = children

    # ------------------------------------------------------------- build
    @classmethod
    def from_forest(cls, forest) -> "PackedForest":
        """Pack a fitted :class:`~repro.ml.forest.RandomForestClassifier`."""
        trees = forest.estimators_
        if not trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        positions = forest._member_positions()
        n_classes = forest.classes_.size

        counts = np.array([tree._feature.size for tree in trees], dtype=np.int64)
        offsets = np.zeros(len(trees), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])

        feature = np.concatenate([tree._feature for tree in trees])
        threshold = np.concatenate([tree._threshold for tree in trees])
        # Rebase child indices to global node indices; leaves keep the
        # _LEAF sentinel (their children are never read by the walk).
        left_parts, right_parts, proba_parts = [], [], []
        for tree, position, offset in zip(trees, positions, offsets):
            internal = tree._feature != _LEAF
            left_parts.append(np.where(internal, tree._left + offset, _LEAF))
            right_parts.append(np.where(internal, tree._right + offset, _LEAF))
            if position is None:
                proba_parts.append(np.asarray(tree._proba, dtype=np.float64))
            else:
                block = np.zeros((tree._proba.shape[0], n_classes))
                block[:, position] = tree._proba
                proba_parts.append(block)
        return cls(
            feature=feature,
            threshold=threshold,
            left=np.concatenate(left_parts),
            right=np.concatenate(right_parts),
            proba=np.ascontiguousarray(np.concatenate(proba_parts, axis=0)),
            roots=offsets,
            classes=np.asarray(forest.classes_),
            n_features=trees[0]._n_features,
            n_estimators=forest.n_estimators,
        )

    # ----------------------------------------------------------- predict
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Bagged class probabilities, bitwise-equal to the legacy loop."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be (n_samples, {self.n_features}), got {X.shape}"
            )
        n_samples = X.shape[0]
        n_trees = self.roots.size

        # One lane per (sample, tree) pair; lane i*T + k walks tree k for
        # sample i.  All lanes advance one level per iteration; lanes
        # whose node went leaf drop out of the active set.  Gathers go
        # through flat ``take`` (cheaper than 2-D fancy indexing), and
        # each iteration carries the features it gathered for the lane
        # filter into the next comparison instead of re-gathering.
        X_flat = np.ascontiguousarray(X).ravel()
        row_base = np.repeat(
            np.arange(n_samples, dtype=np.int64) * self.n_features, n_trees
        )
        node = np.tile(self.roots, n_samples)
        feat = self.feature.take(node)
        active = np.nonzero(feat != _LEAF)[0]
        feat_active = feat.take(active)
        children = self._children
        while active.size:
            current = node.take(active)
            go_left = (
                X_flat.take(row_base.take(active) + feat_active)
                <= self.threshold.take(current)
            )
            stepped = children.take(2 * current + go_left)
            node[active] = stepped
            feat_stepped = self.feature.take(stepped)
            keep = feat_stepped != _LEAF
            active = active[keep]
            feat_active = feat_stepped[keep]

        # Sum leaf probabilities in tree order: a reduce over the outer
        # axis of the C-contiguous (T, n, C) gather adds one tree plane
        # at a time, so the float addition order matches the legacy loop
        # exactly (single-class leaves are all 1.0, exact in any order).
        leaf = node.reshape(n_samples, n_trees)
        return np.add.reduce(self.proba[leaf.T], axis=0) / self.n_estimators

