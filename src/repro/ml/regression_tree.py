"""CART regression tree (squared-error criterion).

Base learner for the gradient-boosting extension
(:mod:`repro.ml.boosting`).  The paper's related work forecasts data
center hot spots with gradient boosted trees [Bortnikov et al.,
HotCloud 2012], and GBDTs are the natural modern comparator for the
paper's random forests, so the library ships one.

The split search reuses the vectorised chunked strategy of the
classifier: for squared error, the impurity decrease of a split is
driven by ``sum^2 / weight`` of the children, computable from
cumulative weighted sums per sorted column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.rng import ensure_rng

__all__ = ["RegressionTree"]

_LEAF = -1


@dataclass
class _Node:
    feature: int
    threshold: float
    left: int
    right: int
    value: float


class RegressionTree:
    """Weighted least-squares CART regressor.

    Parameters
    ----------
    max_depth:
        Hard depth cap (boosting typically uses shallow trees; default 3).
    min_weight_fraction_split:
        Nodes lighter than this fraction of the root weight become
        leaves.
    max_features:
        ``None`` (all), ``"sqrt"``, or a float fraction of features
        examined per split.
    random_state:
        Seed or Generator for the feature subsets.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_weight_fraction_split: float = 0.001,
        max_features: float | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if isinstance(max_features, float) and not 0.0 < max_features <= 1.0:
            raise ValueError(f"max_features fraction must be in (0, 1], got {max_features}")
        if isinstance(max_features, str) and max_features != "sqrt":
            raise ValueError(f"unknown max_features mode: {max_features!r}")
        self.max_depth = max_depth
        self.min_weight_fraction_split = min_weight_fraction_split
        self.max_features = max_features
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit to continuous targets *y* (e.g. boosting residuals)."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.size or X.shape[0] == 0:
            raise ValueError("X and y must be non-empty and aligned")
        weights = (
            np.ones(y.size)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        if weights.shape != (y.size,):
            raise ValueError("sample_weight must be one weight per sample")

        self._rng = ensure_rng(self.random_state)
        self._n_features = X.shape[1]
        self._importance = np.zeros(self._n_features)
        self._min_split_weight = self.min_weight_fraction_split * weights.sum()

        nodes: list[_Node] = []
        self._build(X, y, weights, np.arange(y.size), 0, nodes)
        n = len(nodes)
        self._feature = np.fromiter((nd.feature for nd in nodes), np.int64, n)
        self._threshold = np.fromiter((nd.threshold for nd in nodes), np.float64, n)
        self._left = np.fromiter((nd.left for nd in nodes), np.int64, n)
        self._right = np.fromiter((nd.right for nd in nodes), np.int64, n)
        self._value = np.fromiter((nd.value for nd in nodes), np.float64, n)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else np.zeros(self._n_features)
        )
        self.n_nodes_ = n
        return self

    def _n_candidates(self) -> int:
        if self.max_features is None:
            return self._n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self._n_features)))
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
        node_y = y[index]
        node_w = weights[index]
        node_weight = node_w.sum()
        mean = float((node_y * node_w).sum() / node_weight)

        node_id = len(nodes)
        nodes.append(_Node(feature=_LEAF, threshold=0.0, left=_LEAF, right=_LEAF, value=mean))

        variance = float((node_w * (node_y - mean) ** 2).sum())
        if (
            depth >= self.max_depth
            or node_weight < self._min_split_weight
            or index.size < 2
            or variance <= 1e-12
        ):
            return node_id

        split = self._best_split(X, node_y, node_w, index, node_weight, mean)
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
        node_weight: float,
        node_mean: float,
    ) -> tuple[int, float, float] | None:
        """SSE-decrease split: maximise sum_l^2/w_l + sum_r^2/w_r."""
        n_cand = self._n_candidates()
        if n_cand < self._n_features:
            features = self._rng.choice(self._n_features, size=n_cand, replace=False)
        else:
            features = np.arange(self._n_features)

        wy = node_w * node_y
        total_wy = wy.sum()
        parent_score = total_wy * total_wy / node_weight
        n = index.size
        chunk_size = max(1, int(4_000_000 / max(n, 1)))

        best_gain = 1e-12
        best: tuple[int, float, float] | None = None
        for start in range(0, features.size, chunk_size):
            chunk = features[start : start + chunk_size]
            block = X[index][:, chunk]
            order = np.argsort(block, axis=0, kind="stable")
            sorted_vals = np.take_along_axis(block, order, axis=0)
            cum_wy = np.cumsum(wy[order], axis=0)[:-1]
            cum_w = np.cumsum(node_w[order], axis=0)[:-1]
            valid = np.diff(sorted_vals, axis=0) > 0

            right_wy = total_wy - cum_wy
            right_w = node_weight - cum_w
            with np.errstate(invalid="ignore", divide="ignore"):
                score = cum_wy * cum_wy / cum_w + right_wy * right_wy / right_w
            gain = np.where(valid, score - parent_score, -np.inf)
            flat = int(np.argmax(gain))
            row, col = np.unravel_index(flat, gain.shape)
            if gain[row, col] > best_gain:
                best_gain = float(gain[row, col])
                threshold = 0.5 * (sorted_vals[row, col] + sorted_vals[row + 1, col])
                best = (int(chunk[col]), float(threshold), best_gain)
        return best

    def to_state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot of a fitted tree: node arrays, leaf values
        and importances, every entry an int64/float64 array, so the
        :meth:`from_state` round trip is exact."""
        self._check_fitted()
        return {
            "feature": self._feature,
            "threshold": self._threshold,
            "left": self._left,
            "right": self._right,
            "value": self._value,
            "importances": self.feature_importances_,
            "n_features": np.int64(self._n_features),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "RegressionTree":
        """Rebuild a fitted tree from a :meth:`to_state` snapshot."""
        tree = cls()
        tree._n_features = int(state["n_features"])
        tree._feature = np.asarray(state["feature"])
        tree._threshold = np.asarray(state["threshold"])
        tree._left = np.asarray(state["left"])
        tree._right = np.asarray(state["right"])
        tree._value = np.asarray(state["value"])
        tree.feature_importances_ = np.asarray(state["importances"])
        tree.n_nodes_ = int(tree._feature.size)
        return tree

    def _check_fitted(self) -> None:
        if not hasattr(self, "_value"):
            raise RuntimeError("tree is not fitted; call fit() first")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every row of X."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(f"X must be (n, {self._n_features}), got {X.shape}")
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[node] != _LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            current = node[idx]
            go_left = X[idx, self._feature[current]] <= self._threshold[current]
            node[idx] = np.where(go_left, self._left[current], self._right[current])
            active = self._feature[node] != _LEAF
        return self._value[node]
