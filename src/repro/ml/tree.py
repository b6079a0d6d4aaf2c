"""CART decision tree classifier.

A numpy implementation of the classification tree the paper configures
in scikit-learn 0.17 (Sec. IV-D):

* Gini impurity as the split criterion;
* class-balanced sample weights (each sample weighted by the inverse of
  its class frequency);
* a random subset of the features evaluated at every partition
  (``max_features``: a fraction, ``"sqrt"``, or ``None`` for all);
* partitioning stops when a node's weight falls below a fraction of the
  total weight (the paper uses 2 % for the single Tree model and 0.02 %
  for forest member trees).

The tree is stored in flat arrays (feature, threshold, children, leaf
probabilities) so prediction is a vectorised loop over tree depth rather
than per-sample recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ml.rng import ensure_rng

__all__ = ["DecisionTreeClassifier", "balanced_sample_weights"]

_LEAF = -1


def balanced_sample_weights(y: np.ndarray) -> np.ndarray:
    """Class-balanced sample weights: inverse class frequency.

    Weights are scaled so that they sum to the number of samples, which
    keeps weight-fraction stopping criteria comparable across class
    distributions.
    """
    y = np.asarray(y, dtype=np.int64).ravel()
    if y.size == 0:
        raise ValueError("y must be non-empty")
    classes, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    weights = (y.size / (classes.size * counts))[inverse]
    return weights * (y.size / weights.sum())


@dataclass
class _Node:
    """Builder-side node record before flattening into arrays."""

    feature: int
    threshold: float
    left: int
    right: int
    proba: np.ndarray
    n_weight: float
    impurity: float


class DecisionTreeClassifier:
    """Binary/multi-class CART classifier with weighted Gini splits.

    Parameters
    ----------
    max_features:
        Number of features examined per split: a float in (0, 1] for a
        fraction of all features (the paper's Tree model uses 0.8),
        ``"sqrt"`` for the square-root rule (forest member trees), or
        ``None`` to examine all features.
    min_weight_fraction_split:
        A node whose total sample weight is below this fraction of the
        root's weight becomes a leaf (paper: 0.02 for Tree, 0.0002 for
        forest members).
    max_depth:
        Optional hard depth cap (None = unbounded).
    class_balance:
        If True (default, as in the paper), apply
        :func:`balanced_sample_weights` on top of any user weights.
    random_state:
        Seed or Generator controlling the feature subsets.

    Attributes
    ----------
    feature_importances_:
        Normalised total Gini impurity decrease per feature; available
        after :meth:`fit`.
    n_nodes_:
        Number of nodes in the fitted tree.
    """

    def __init__(
        self,
        max_features: float | str | None = None,
        min_weight_fraction_split: float = 0.02,
        max_depth: int | None = None,
        class_balance: bool = True,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if isinstance(max_features, float) and not 0.0 < max_features <= 1.0:
            raise ValueError(f"max_features fraction must be in (0, 1], got {max_features}")
        if isinstance(max_features, str) and max_features != "sqrt":
            raise ValueError(f"unknown max_features mode: {max_features!r}")
        if not 0.0 <= min_weight_fraction_split <= 1.0:
            raise ValueError(
                f"min_weight_fraction_split must be in [0, 1], got {min_weight_fraction_split}"
            )
        self.max_features = max_features
        self.min_weight_fraction_split = min_weight_fraction_split
        self.max_depth = max_depth
        self.class_balance = class_balance
        self.random_state = random_state

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        Parameters
        ----------
        X:
            Shape ``(n_samples, n_features)`` float matrix.  NaNs are not
            allowed; impute upstream.
        y:
            Integer class labels.
        sample_weight:
            Optional per-sample weights, multiplied with the class
            balancing weights when ``class_balance`` is on.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} labels")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty data set")
        if np.isnan(X).any():
            raise ValueError("X contains NaN; impute missing values first")

        self.classes_, y_enc = np.unique(y, return_inverse=True)
        n_classes = self.classes_.size
        weights = np.ones(y.size) if sample_weight is None else np.asarray(
            sample_weight, dtype=np.float64
        ).copy()
        if weights.shape != (y.size,):
            raise ValueError("sample_weight must be one weight per sample")
        if self.class_balance and n_classes > 1:
            weights = weights * balanced_sample_weights(y_enc)

        self._rng = ensure_rng(self.random_state)
        self._n_features = X.shape[1]
        self._n_classes = n_classes
        self._importance = np.zeros(self._n_features)
        total_weight = weights.sum()
        self._min_split_weight = self.min_weight_fraction_split * total_weight

        nodes: list[_Node] = []
        order = np.arange(y.size)
        self._build(X, y_enc, weights, order, depth=0, nodes=nodes)
        self._flatten(nodes)

        importance_total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / importance_total
            if importance_total > 0
            else np.zeros(self._n_features)
        )
        self.n_nodes_ = len(nodes)
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self._n_features
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(self._n_features)))
        return max(1, int(round(self.max_features * self._n_features)))

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        weights: np.ndarray,
        index: np.ndarray,
        depth: int,
        nodes: list[_Node],
    ) -> int:
        """Recursively grow a subtree over the samples in *index*."""
        node_y = y[index]
        node_w = weights[index]
        class_weight = np.bincount(node_y, weights=node_w, minlength=self._n_classes)
        node_weight = class_weight.sum()
        proba = class_weight / node_weight
        impurity = 1.0 - float((proba * proba).sum())

        node_id = len(nodes)
        nodes.append(
            _Node(
                feature=_LEAF,
                threshold=0.0,
                left=_LEAF,
                right=_LEAF,
                proba=proba,
                n_weight=node_weight,
                impurity=impurity,
            )
        )

        depth_ok = self.max_depth is None or depth < self.max_depth
        if (
            impurity <= 1e-12
            or node_weight < self._min_split_weight
            or index.size < 2
            or not depth_ok
        ):
            return node_id

        split = self._best_split(X, node_y, node_w, index, impurity, node_weight)
        if split is None:
            return node_id

        feature, threshold, gain = split
        go_left = X[index, feature] <= threshold
        left_index = index[go_left]
        right_index = index[~go_left]
        if left_index.size == 0 or right_index.size == 0:
            return node_id

        self._importance[feature] += gain
        node = nodes[node_id]
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, y, weights, left_index, depth + 1, nodes)
        node.right = self._build(X, y, weights, right_index, depth + 1, nodes)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        node_y: np.ndarray,
        node_w: np.ndarray,
        index: np.ndarray,
        parent_impurity: float,
        node_weight: float,
    ) -> tuple[int, float, float] | None:
        """Find the best (feature, threshold) by weighted Gini decrease.

        Returns None when no feature admits a valid split.  Binary
        problems take a vectorised path that evaluates candidate
        features in chunks (one sort call per chunk instead of one per
        feature); the general multi-class path loops per feature.
        """
        n_candidates = self._n_candidate_features()
        if n_candidates < self._n_features:
            features = self._rng.choice(self._n_features, size=n_candidates, replace=False)
        else:
            features = np.arange(self._n_features)

        if self._n_classes == 2:
            return self._best_split_binary(
                X, node_y, node_w, index, parent_impurity, node_weight, features
            )
        return self._best_split_multiclass(
            X, node_y, node_w, index, parent_impurity, node_weight, features
        )

    @staticmethod
    def _sorted_node_block(
        X: np.ndarray, index: np.ndarray, chunk: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Node rows of the candidate features, sorted once per chunk.

        Both split paths need every candidate column in ascending order;
        this helper gathers the ``(n_node, n_chunk)`` block with a single
        fancy index (``np.ix_`` instead of a row copy followed by a
        column copy) and one stable argsort call for the whole chunk, and
        both paths reuse the returned order for their cumulative sums and
        threshold lookups.
        """
        block = X[np.ix_(index, chunk)]
        order = np.argsort(block, axis=0, kind="stable")
        return order, np.take_along_axis(block, order, axis=0)

    def _best_split_binary(
        self,
        X: np.ndarray,
        node_y: np.ndarray,
        node_w: np.ndarray,
        index: np.ndarray,
        parent_impurity: float,
        node_weight: float,
        features: np.ndarray,
    ) -> tuple[int, float, float] | None:
        """Vectorised split search for two classes.

        Gini of a binary node is ``2 p (1 - p)`` with ``p`` the weighted
        positive fraction, so cumulative positive/total weights per
        sorted column are all that is needed.  Features are processed in
        chunks to bound memory at ``O(chunk * n_node)``.
        """
        pos_w = np.where(node_y == 1, node_w, 0.0)
        total_pos = pos_w.sum()
        n = index.size
        chunk_size = max(1, int(4_000_000 / max(n, 1)))

        best_gain = 1e-12
        best: tuple[int, float, float] | None = None
        for start in range(0, features.size, chunk_size):
            chunk = features[start : start + chunk_size]
            order, sorted_vals = self._sorted_node_block(X, index, chunk)
            pos_sorted = pos_w[order]
            all_sorted = node_w[order]
            cum_pos = np.cumsum(pos_sorted, axis=0)[:-1]     # (n-1, f)
            cum_all = np.cumsum(all_sorted, axis=0)[:-1]
            valid = np.diff(sorted_vals, axis=0) > 0

            right_pos = total_pos - cum_pos
            right_all = node_weight - cum_all
            with np.errstate(invalid="ignore", divide="ignore"):
                p_left = cum_pos / cum_all
                p_right = right_pos / right_all
                child = (
                    cum_all * 2.0 * p_left * (1.0 - p_left)
                    + right_all * 2.0 * p_right * (1.0 - p_right)
                ) / node_weight
            gain = node_weight * (parent_impurity - child)
            gain = np.where(valid, gain, -np.inf)
            flat = int(np.argmax(gain))
            row, col = np.unravel_index(flat, gain.shape)
            if gain[row, col] > best_gain:
                best_gain = float(gain[row, col])
                threshold = 0.5 * (sorted_vals[row, col] + sorted_vals[row + 1, col])
                best = (int(chunk[col]), float(threshold), best_gain)
        return best

    def _best_split_multiclass(
        self,
        X: np.ndarray,
        node_y: np.ndarray,
        node_w: np.ndarray,
        index: np.ndarray,
        parent_impurity: float,
        node_weight: float,
        features: np.ndarray,
    ) -> tuple[int, float, float] | None:
        """Chunked vectorised split search for three or more classes.

        Mirrors :meth:`_best_split_binary`: candidate features are
        processed in blocks sharing one stable argsort call, and the
        per-class cumulative weight sums run over the whole
        ``(n-1, chunk, n_classes)`` block at once instead of one sort
        and one cumsum per feature.  Chunks are sized to bound the
        working set at ``O(chunk * n_node * n_classes)``.
        """
        n = index.size
        # Per-class weight matrix for vectorised cumulative sums.
        onehot_w = np.zeros((n, self._n_classes))
        onehot_w[np.arange(n), node_y] = node_w
        chunk_size = max(1, int(4_000_000 / max(n * self._n_classes, 1)))

        best_gain = 1e-12
        best: tuple[int, float, float] | None = None
        for start in range(0, features.size, chunk_size):
            chunk = features[start : start + chunk_size]
            order, sorted_vals = self._sorted_node_block(X, index, chunk)
            # (n, f, c) class weights in each column's sorted order.
            cum_w = np.cumsum(onehot_w[order], axis=0)
            left_class = cum_w[:-1]                          # (n-1, f, c)
            total_class = cum_w[-1]                          # (f, c)
            right_class = total_class[None, :, :] - left_class
            left_weight = left_class.sum(axis=2)             # (n-1, f)
            right_weight = node_weight - left_weight
            valid = np.diff(sorted_vals, axis=0) > 0
            with np.errstate(invalid="ignore", divide="ignore"):
                gini_left = 1.0 - (
                    (left_class / left_weight[:, :, None]) ** 2
                ).sum(axis=2)
                gini_right = 1.0 - (
                    (right_class / right_weight[:, :, None]) ** 2
                ).sum(axis=2)
            child_impurity = (
                left_weight * gini_left + right_weight * gini_right
            ) / node_weight
            gain = node_weight * (parent_impurity - child_impurity)
            gain = np.where(valid, gain, -np.inf)
            # Per-feature winners, then a sequential scan in feature
            # order: ties keep the earliest feature, exactly like the
            # old per-feature loop.
            rows = np.argmax(gain, axis=0)
            cols = np.arange(chunk.size)
            col_gain = gain[rows, cols]
            for col in cols:
                if col_gain[col] > best_gain:
                    best_gain = float(col_gain[col])
                    row = rows[col]
                    threshold = 0.5 * (
                        sorted_vals[row, col] + sorted_vals[row + 1, col]
                    )
                    best = (int(chunk[col]), float(threshold), best_gain)
        return best

    def _flatten(self, nodes: list[_Node]) -> None:
        n = len(nodes)
        self._feature = np.fromiter((node.feature for node in nodes), np.int64, n)
        self._threshold = np.fromiter((node.threshold for node in nodes), np.float64, n)
        self._left = np.fromiter((node.left for node in nodes), np.int64, n)
        self._right = np.fromiter((node.right for node in nodes), np.int64, n)
        self._proba = np.stack([node.proba for node in nodes])

    # -------------------------------------------------------------- predict
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, shape ``(n_samples, n_classes)``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must be (n_samples, {self._n_features}), got {X.shape}"
            )
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[node] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            current = node[idx]
            go_left = (
                X[idx, self._feature[current]] <= self._threshold[current]
            )
            node[idx] = np.where(go_left, self._left[current], self._right[current])
            active = self._feature[node] != _LEAF
        return self._proba[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-probable class label per sample."""
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    # ---------------------------------------------------------------- state
    def to_state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of a fitted tree.

        The snapshot holds everything prediction and importance queries
        need (node arrays, classes, importances) and nothing else — no
        live Generator, no builder scratch — so it is cheap to pickle
        across process boundaries and to persist.  The inverse is
        :meth:`from_state`; the round trip is exact because every entry
        is an int64/float64 array.
        """
        self._check_fitted()
        return {
            "feature": self._feature,
            "threshold": self._threshold,
            "left": self._left,
            "right": self._right,
            "proba": self._proba,
            "classes": self.classes_,
            "importances": self.feature_importances_,
            "n_features": np.int64(self._n_features),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from a :meth:`to_state` snapshot."""
        tree = cls()
        tree.classes_ = np.asarray(state["classes"])
        tree._n_features = int(state["n_features"])
        tree._n_classes = tree.classes_.size
        tree._feature = np.asarray(state["feature"])
        tree._threshold = np.asarray(state["threshold"])
        tree._left = np.asarray(state["left"])
        tree._right = np.asarray(state["right"])
        tree._proba = np.asarray(state["proba"])
        tree.feature_importances_ = np.asarray(state["importances"])
        tree.n_nodes_ = int(tree._feature.size)
        return tree

    def _check_fitted(self) -> None:
        if not hasattr(self, "_proba"):
            raise RuntimeError("tree is not fitted; call fit() first")
