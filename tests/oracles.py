"""Reference implementations the fast runtime paths must match bitwise.

They live outside the runtime package: the tier-1 parity tests compare
the packed forest kernel and the sorted-day percentile kernel against
them, and ``benchmarks/bench_serve_throughput.py`` replays its legacy
hot path through them.
"""

from __future__ import annotations

import numpy as np

from repro.core.feature_sets import _PERCENTILES, _validate_window
from repro.data.tensor import HOURS_PER_DAY


def predict_proba_legacy(forest, X: np.ndarray) -> np.ndarray:
    """The per-tree prediction loop of a fitted ``RandomForestClassifier``.

    One active-lane walk and one class scatter per member, accumulated
    in tree order; ``forest.predict_proba`` must match it bitwise.
    """
    forest._check_fitted()
    X = np.asarray(X, dtype=np.float64)
    positions = forest._member_positions()
    total = np.zeros((X.shape[0], forest.classes_.size))
    for tree, position in zip(forest.estimators_, positions):
        total += forest._expand_proba(tree, X, position)
    return total / forest.n_estimators


def percentile_features_reference(window: np.ndarray) -> np.ndarray:
    """RF-F1 percentiles via ``np.percentile``, the pre-vectorized path.

    ``repro.core.feature_sets.percentile_features`` must match it
    bitwise.
    """
    window = _validate_window(window)
    n, hours, channels = window.shape
    days = hours // HOURS_PER_DAY
    daily = window.reshape(n, days, HOURS_PER_DAY, channels)
    pct = np.percentile(daily, _PERCENTILES, axis=2)
    return pct.transpose(1, 2, 3, 0).reshape(n, days * channels * len(_PERCENTILES))
