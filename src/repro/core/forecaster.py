"""Tree-based forecasting models (paper Sec. IV-D) and the model registry.

:class:`HotSpotForecaster` wraps a classifier (single CART tree or a
random forest) together with a feature view (RF-R raw slice, RF-F1
percentiles, RF-F2 hand-crafted) and implements the paper's train /
forecast protocol:

* training (Eq. 7): fit on the ``h``-delayed window
  ``X[:, t-h-w : t-h, :]`` against labels at day ``t``;
* forecasting (Eq. 6): predict hot spot probabilities for day ``t + h``
  from the window ``X[:, t-w : t, :]``.

The paper has tens of thousands of sectors, so a single training day
provides plenty of instances.  At the laptop scales used here a single
day yields only a few hundred, so the forecaster supports stacking
several recent training days (``n_training_days``); this is a documented
scale adaptation, not a methodological change — each stacked day follows
Eq. 7 exactly with its own shifted window.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.feature_sets import (
    hand_crafted_features,
    percentile_features,
    raw_features,
)
from repro.core.features import FeatureTensor
from repro.ml.forest import RandomForestClassifier
from repro.ml.rng import ensure_rng
from repro.ml.tree import DecisionTreeClassifier

__all__ = ["HotSpotForecaster", "MODEL_REGISTRY", "make_model"]

FeatureView = Callable[[np.ndarray], np.ndarray]

_FEATURE_VIEWS: dict[str, FeatureView] = {
    "raw": raw_features,
    "percentiles": percentile_features,
    "hand_crafted": hand_crafted_features,
}


class HotSpotForecaster:
    """A classifier-based hot spot forecaster.

    Parameters
    ----------
    kind:
        ``"tree"`` for the single CART model or ``"forest"`` for a
        random forest.
    feature_view:
        ``"raw"`` (RF-R), ``"percentiles"`` (RF-F1), or
        ``"hand_crafted"`` (RF-F2).
    n_estimators:
        Forest size (ignored for ``kind="tree"``).
    n_training_days:
        Number of recent days stacked into the training set (see module
        docstring).
    random_state:
        Seed or Generator for the underlying learner.
    n_jobs:
        Worker processes for forest fitting (forwarded to
        :class:`~repro.ml.forest.RandomForestClassifier`; ignored by the
        single tree).  The fitted model is identical for any value, and
        prediction is serial.

    Attributes
    ----------
    feature_importances_:
        Importances over the flat feature columns of the chosen view,
        available after :meth:`fit`.
    """

    def __init__(
        self,
        kind: str = "forest",
        feature_view: str = "raw",
        n_estimators: int = 20,
        n_training_days: int = 6,
        max_depth: int | None = None,
        random_state: int | np.random.Generator | None = None,
        n_jobs: int | None = 1,
    ) -> None:
        if kind not in ("tree", "forest"):
            raise ValueError(f"kind must be 'tree' or 'forest', got {kind!r}")
        if feature_view not in _FEATURE_VIEWS:
            raise ValueError(
                f"feature_view must be one of {sorted(_FEATURE_VIEWS)}, got {feature_view!r}"
            )
        if n_training_days < 1:
            raise ValueError(f"n_training_days must be >= 1, got {n_training_days}")
        self.kind = kind
        self.feature_view = feature_view
        self.n_estimators = n_estimators
        self.n_training_days = n_training_days
        self.max_depth = max_depth
        self.random_state = random_state
        self.n_jobs = n_jobs
        self._view: FeatureView = _FEATURE_VIEWS[feature_view]
        self._model: DecisionTreeClassifier | RandomForestClassifier | None = None

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        features: FeatureTensor,
        targets_daily: np.ndarray,
        t_day: int,
        horizon: int,
        window: int,
    ) -> "HotSpotForecaster":
        """Train per Eq. 7 for a forecast made at day *t_day*.

        Parameters
        ----------
        features:
            The assembled tensor X.
        targets_daily:
            Daily target labels, shape ``(n, m_d)`` — either ``Y^d`` or
            the 'become a hot spot' labels.
        t_day:
            Current day ``t``; training uses labels up to day ``t``.
        horizon:
            Prediction horizon ``h >= 1`` in days.
        window:
            Past window ``w >= 1`` in days.
        """
        self._validate_args(features, t_day, horizon, window)
        rng = ensure_rng(self.random_state)

        design_blocks: list[np.ndarray] = []
        label_blocks: list[np.ndarray] = []
        for delay in range(self.n_training_days):
            label_day = t_day - delay
            input_day = label_day - horizon
            if input_day - window + 1 < 0:
                break
            window_slice = features.window(input_day, window)
            design_blocks.append(self._view(window_slice))
            label_blocks.append(np.asarray(targets_daily[:, label_day], dtype=np.int64))
        if not design_blocks:
            raise ValueError(
                f"no training day fits: t={t_day}, h={horizon}, w={window}"
            )
        design = np.vstack(design_blocks)
        labels = np.concatenate(label_blocks)

        if labels.max() == labels.min():
            # Degenerate day: every sector shares one class.  Remember
            # the constant and skip fitting.
            self._model = None
            self._constant = float(labels[0])
            self.feature_importances_ = np.zeros(design.shape[1])
            return self

        model: DecisionTreeClassifier | RandomForestClassifier
        if self.kind == "tree":
            model = DecisionTreeClassifier(
                max_features=0.8,
                min_weight_fraction_split=0.02,
                max_depth=self.max_depth,
                random_state=rng,
            )
        else:
            model = RandomForestClassifier(
                n_estimators=self.n_estimators,
                max_features="sqrt",
                min_weight_fraction_split=0.0002,
                max_depth=self.max_depth,
                random_state=rng,
                n_jobs=self.n_jobs,
            )
        model.fit(design, labels)
        self._model = model
        self._constant = None
        self.feature_importances_ = model.feature_importances_
        return self

    # -------------------------------------------------------------- predict
    def forecast(
        self, features: FeatureTensor, t_day: int, window: int
    ) -> np.ndarray:
        """Hot spot probabilities for day ``t + h`` per Eq. 6.

        Uses the window ending at day *t_day*; the horizon is baked into
        the fitted model.
        """
        return self.forecast_window(features.window(t_day, window))

    def forecast_window(self, window_values: np.ndarray) -> np.ndarray:
        """Hot spot probabilities from a preassembled window block.

        *window_values* is the ``(n, 24 * w, channels)`` Eq. 5 slice a
        :meth:`repro.core.features.FeatureTensor.window` call would
        produce.  The online serving layer assembles such blocks
        directly from ring buffers (:mod:`repro.serve.ingest`) and calls
        this method, skipping full feature-tensor construction.
        """
        return self.forecast_design(self.build_design(window_values))

    def build_design(self, window_values: np.ndarray) -> np.ndarray:
        """Apply this model's feature view to a window block.

        Exposed separately from :meth:`forecast_window` so the serving
        layer can build the design matrix once per ``(t_day, window,
        feature_view)`` and reuse it across horizons — every horizon's
        model for the same name shares the same view of the same window.
        """
        return self._view(np.asarray(window_values, dtype=np.float64))

    def forecast_design(self, design: np.ndarray) -> np.ndarray:
        """Hot spot probabilities from a prebuilt design matrix.

        *design* must be the output of :meth:`build_design` (or a
        bitwise-equal assembly of it, e.g. the serving engine's per-day
        percentile concatenation).
        """
        if self._model is None and getattr(self, "_constant", None) is None:
            raise RuntimeError("forecaster is not fitted; call fit() first")
        if self._model is None:
            return np.full(design.shape[0], self._constant)
        proba = self._model.predict_proba(design)
        positive = np.nonzero(self._model.classes_ == 1)[0]
        if positive.size == 0:
            return np.zeros(design.shape[0])
        return proba[:, positive[0]]

    def fit_forecast(
        self,
        features: FeatureTensor,
        targets_daily: np.ndarray,
        t_day: int,
        horizon: int,
        window: int,
    ) -> np.ndarray:
        """Train at *t_day* and forecast day ``t_day + horizon`` in one call."""
        self.fit(features, targets_daily, t_day, horizon, window)
        return self.forecast(features, t_day, window)

    @staticmethod
    def _validate_args(
        features: FeatureTensor, t_day: int, horizon: int, window: int
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        n_days = features.n_hours // 24
        if not 0 <= t_day < n_days:
            raise IndexError(f"t_day {t_day} outside [0, {n_days})")


#: Factory registry: the paper's four classifier models (Sec. IV-D).
MODEL_REGISTRY: dict[str, dict] = {
    "Tree": {"kind": "tree", "feature_view": "raw"},
    "RF-R": {"kind": "forest", "feature_view": "raw"},
    "RF-F1": {"kind": "forest", "feature_view": "percentiles"},
    "RF-F2": {"kind": "forest", "feature_view": "hand_crafted"},
}


def make_model(
    name: str,
    n_estimators: int = 20,
    n_training_days: int = 6,
    random_state: int | np.random.Generator | None = None,
    n_jobs: int | None = 1,
) -> HotSpotForecaster:
    """Instantiate a registry model (``Tree``, ``RF-R``, ``RF-F1``, ``RF-F2``)."""
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}")
    spec = MODEL_REGISTRY[name]
    return HotSpotForecaster(
        kind=spec["kind"],
        feature_view=spec["feature_view"],
        n_estimators=n_estimators,
        n_training_days=n_training_days,
        random_state=random_state,
        n_jobs=n_jobs,
    )
