"""Random forest classifier.

Bagged ensemble of :class:`repro.ml.tree.DecisionTreeClassifier` members
configured the way the paper configures scikit-learn's forest
(Sec. IV-D): bootstrap sampling of the instances, a random subset of at
most sqrt(p) features per split, class-balanced sample weights, deep
trees stopped only when a node's weight drops below 0.02 % of the total.
Predictions average the member class probabilities (bagging), and feature
importances average the members' normalised Gini importances.

Members are independent once their randomness is fixed, so fitting
optionally fans out over worker processes (``n_jobs``): the bootstrap
resamples and per-tree seeds are pre-drawn in tree order
(:func:`repro.ml.rng.spawn_seeds`), which makes the parallel fit bitwise
identical to the serial one for any worker count.  Forked workers
(:func:`repro.parallel.pool.ordered_chunk_map`) inherit the fit's inputs
and fit trees by ordinal; the parent reassembles members, importances
and OOB votes in tree order, so reductions see the same floating-point
addition order too.  Prediction is serial in every process: one walk of
the packed kernel (:mod:`repro.ml.packed`), whatever ``n_jobs`` says.
"""

from __future__ import annotations

import numpy as np

from repro.ml.rng import ensure_rng, spawn_seeds
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel.pool import (
    PoolUnavailable,
    effective_jobs,
    flatten,
    ordered_chunk_map,
    partition,
)

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Bagged forest of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of member trees.
    max_features:
        Per-split feature budget for members (default ``"sqrt"`` as in
        the paper).
    min_weight_fraction_split:
        Weight-fraction stopping rule per member (paper: 0.0002, i.e.
        0.02 % — far deeper trees than the single Tree model's 2 %).
    max_depth:
        Optional depth cap for members.
    class_balance:
        Apply inverse-class-frequency sample weights (paper default).
    bootstrap:
        Draw each member's training set with replacement.
    oob_score:
        If True, compute the out-of-bag probability estimates and store
        them in ``oob_proba_`` after fitting.
    random_state:
        Seed or Generator; member trees get independent child streams.
    n_jobs:
        Worker processes for fitting: 1 (default) stays serial, 0/None
        uses every core, negative counts back from the core count.  The
        fit is identical for every value; it silently falls back to
        serial when the host cannot fork worker processes.
        Prediction ignores it and always walks the packed kernel serially.

    Attributes
    ----------
    feature_importances_:
        Mean of the members' normalised Gini importances.
    estimators_:
        The fitted member trees.
    oob_proba_:
        Out-of-bag class probabilities (only with ``oob_score=True``).
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_features: float | str | None = "sqrt",
        min_weight_fraction_split: float = 0.0002,
        max_depth: int | None = None,
        class_balance: bool = True,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: int | np.random.Generator | None = None,
        n_jobs: int | None = 1,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError(f"n_estimators must be positive, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.min_weight_fraction_split = min_weight_fraction_split
        self.max_depth = max_depth
        self.class_balance = class_balance
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "RandomForestClassifier":
        """Fit all member trees on bootstrap resamples of ``(X, y)``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} labels")
        n_samples = X.shape[0]
        self.classes_ = np.unique(y)
        n_classes = self.classes_.size

        # Pre-draw everything order-dependent in tree order: the k-th
        # bootstrap resample is the k-th draw of the bootstrap stream and
        # tree k owns the k-th spawned seed, no matter which process ends
        # up fitting it.
        rng = ensure_rng(self.random_state)
        bootstrap_seed, *tree_seeds = spawn_seeds(rng, self.n_estimators + 1)
        bootstrap_rng = np.random.default_rng(bootstrap_seed)
        if self.bootstrap:
            bootstrap_index = np.stack(
                [
                    bootstrap_rng.integers(0, n_samples, size=n_samples)
                    for _ in range(self.n_estimators)
                ]
            )
        else:
            bootstrap_index = np.broadcast_to(
                np.arange(n_samples), (self.n_estimators, n_samples)
            )

        trees = self._fit_members(X, y, sample_weight, bootstrap_index, tree_seeds)

        # Aggregate in tree order so floating-point reductions match the
        # serial path regardless of which worker finished first.
        self.estimators_ = trees
        self._packed_ = None
        self._class_positions_ = [self._position_map(tree) for tree in trees]
        importances = np.zeros(X.shape[1])
        oob_sum = np.zeros((n_samples, n_classes))
        oob_count = np.zeros(n_samples)
        for k, tree in enumerate(trees):
            importances += self._aligned_importances(tree, X.shape[1])
            if self.oob_score and self.bootstrap:
                out_of_bag = np.ones(n_samples, dtype=bool)
                out_of_bag[bootstrap_index[k]] = False
                if out_of_bag.any():
                    proba = self._expand_proba(
                        tree, X[out_of_bag], self._class_positions_[k]
                    )
                    oob_sum[out_of_bag] += proba
                    oob_count[out_of_bag] += 1

        self.feature_importances_ = importances / self.n_estimators
        if self.oob_score:
            with np.errstate(invalid="ignore"):
                self.oob_proba_ = oob_sum / oob_count[:, None]
        return self

    def _fit_members(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None,
        bootstrap_index: np.ndarray,
        tree_seeds: list[int],
    ) -> list[DecisionTreeClassifier]:
        """Fit the member trees, across processes when n_jobs allows."""
        fit = (
            X,
            y,
            sample_weight,
            bootstrap_index,
            tree_seeds,
            {
                "max_features": self.max_features,
                "min_weight_fraction_split": self.min_weight_fraction_split,
                "max_depth": self.max_depth,
                "class_balance": self.class_balance,
            },
        )
        ordinals = list(range(self.n_estimators))
        jobs = effective_jobs(self.n_jobs, self.n_estimators)
        if jobs > 1:
            try:
                return flatten(
                    ordered_chunk_map(
                        _fit_trees, partition(ordinals, jobs * 2), jobs, state=fit
                    )
                )
            except PoolUnavailable:
                pass  # degrade to the serial loop below
        return _fit_trees(fit, ordinals)

    def _aligned_importances(
        self, tree: DecisionTreeClassifier, n_features: int
    ) -> np.ndarray:
        imp = tree.feature_importances_
        if imp.size != n_features:
            raise RuntimeError("member tree feature count mismatch")
        return imp

    def _position_map(self, tree: DecisionTreeClassifier) -> np.ndarray | None:
        """Member → forest class positions; None when the axes coincide.

        A bootstrap resample can miss a class entirely; the member then
        knows fewer classes than the forest.  Computed once per member
        at fit time (and cached lazily for deserialised forests) instead
        of re-deriving it on every ``predict_proba`` call.
        """
        if tree.classes_.size == self.classes_.size and np.array_equal(
            tree.classes_, self.classes_
        ):
            return None
        return np.searchsorted(self.classes_, tree.classes_)

    def _member_positions(self) -> list[np.ndarray | None]:
        cached = getattr(self, "_class_positions_", None)
        if cached is None or len(cached) != len(self.estimators_):
            cached = [self._position_map(tree) for tree in self.estimators_]
            self._class_positions_ = cached
        return cached

    def _expand_proba(
        self,
        tree: DecisionTreeClassifier,
        X: np.ndarray,
        positions: np.ndarray | None,
    ) -> np.ndarray:
        """Map a member's probabilities onto the forest's class axis."""
        member_proba = tree.predict_proba(X)
        if positions is None:
            return member_proba
        out = np.zeros((X.shape[0], self.classes_.size))
        out[:, positions] = member_proba
        return out

    def packed(self):
        """The packed struct-of-arrays predict kernel, built lazily.

        Packing walks every member once; the result is cached on the
        forest so long-running services (registry warm LRU, serving
        engines) pay it once per loaded model.  :meth:`fit` invalidates
        the cache.
        """
        self._check_fitted()
        cached = getattr(self, "_packed_", None)
        if cached is None:
            from repro.ml.packed import PackedForest

            cached = PackedForest.from_forest(self)
            self._packed_ = cached
        return cached

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Bagged class probabilities: the mean over member trees.

        Walks the packed struct-of-arrays kernel (:meth:`packed`) — one
        vectorized node-index walk over all ``(n_samples × n_trees)``
        lanes — and is bitwise identical to the legacy per-tree loop,
        the parity oracle in ``tests/oracles.py``.
        """
        return self.packed().predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most-probable class label per sample."""
        self._check_fitted()
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def _check_fitted(self) -> None:
        if not hasattr(self, "estimators_") or not self.estimators_:
            raise RuntimeError("forest is not fitted; call fit() first")


def _fit_trees(fit: tuple, ordinals: list[int]) -> list[DecisionTreeClassifier]:
    """Fit the member trees with the given ordinals, in ordinal order.

    *fit* is ``(X, y, sample_weight, bootstrap_index, tree_seeds,
    tree_params)``.  Tree k trains on the k-th pre-drawn resample with
    the k-th pre-spawned seed, so it is the same tree in any process.
    """
    X, y, sample_weight, bootstrap_index, tree_seeds, tree_params = fit
    trees: list[DecisionTreeClassifier] = []
    for k in ordinals:
        sample_index = bootstrap_index[k]
        tree = DecisionTreeClassifier(
            **tree_params, random_state=np.random.default_rng(tree_seeds[k])
        )
        member_weight = None if sample_weight is None else sample_weight[sample_index]
        tree.fit(X[sample_index], y[sample_index], sample_weight=member_weight)
        trees.append(tree)
    return trees
