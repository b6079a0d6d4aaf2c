"""Golden digests: pinned sha256 hashes of outputs across commits.

The parity suites compare two code paths of one build; these pins
compare a build with the ones before it.  Every pinned output is a
forward fill, a score, a percentile or a tree output — none goes through
a BLAS matrix product, so the bytes do not depend on the CPU's kernels.

A change that moves a pin commits the new digest and names the cause in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.feature_sets import percentile_features
from repro.core.features import build_feature_tensor
from repro.core.forecaster import make_model
from repro.core.scoring import hourly_score

#: The forecast cell every design and forest pin uses.
T_DAY, HORIZON, WINDOW = 60, 3, 7

#: The fields of a member tree's state that prediction reads.
_NODE_FIELDS = ("feature", "threshold", "left", "right", "proba", "classes")

HOURLY_SCORE = "18f86134c2444fc760efaf3bfc1ebf39b3dc729777297564183f28f5658cf0f7"
LABELS = "68ab63ad970cc4c471cb4aa91ffdeb1668f192c7631ac3cccc5d0ccd33e02ab9"
PERCENTILE_DESIGN = "3a92366d77caf9784803366581787c66be9aeee52bc1ac9cec454070f015be8a"
FOREST_NODES = "2ebf65fdc36422531b7367cbbce5ee8f50e400a23dd57bacf723b5b6d728fbad"
FOREST_PROBA = "2181e5786d836238df1f16b6eff92518c839bb0a5c3470f4bec42e748110f03a"


def _digest(*arrays: np.ndarray) -> str:
    """sha256 over the C-order bytes of *arrays*, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def features(scored_dataset):
    return build_feature_tensor(scored_dataset)


@pytest.fixture(scope="module", params=[1, 2], ids=["n_jobs=1", "n_jobs=2"])
def rf_f1(request, features, scored_dataset):
    """An RF-F1 forecaster fitted per Eq. 7 with *n_jobs* workers."""
    model = make_model(
        "RF-F1", n_estimators=8, n_training_days=3, random_state=7, n_jobs=request.param
    )
    return model.fit(features, scored_dataset.labels_daily, T_DAY, HORIZON, WINDOW)


def test_hourly_score(scored_dataset):
    score = hourly_score(scored_dataset.kpis)
    assert score.dtype == np.float64
    assert _digest(score) == HOURLY_SCORE


def test_hot_labels(scored_dataset):
    labels = (
        scored_dataset.labels_hourly,
        scored_dataset.labels_daily,
        scored_dataset.labels_weekly,
    )
    assert _digest(*labels) == LABELS


def test_percentile_design(features):
    design = percentile_features(features.window(T_DAY, WINDOW))
    assert design.dtype == np.float64
    assert _digest(design) == PERCENTILE_DESIGN


def test_forest_nodes(rf_f1):
    states = [tree.to_state() for tree in rf_f1._model.estimators_]
    assert _digest(*(state[field] for state in states for field in _NODE_FIELDS)) == (
        FOREST_NODES
    )


def test_forest_predict_proba(rf_f1, features):
    design = rf_f1.build_design(features.window(T_DAY, WINDOW))
    assert _digest(rf_f1._model.predict_proba(design)) == FOREST_PROBA
