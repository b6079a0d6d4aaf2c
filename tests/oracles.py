"""Reference implementations the fast runtime paths must match bitwise.

They live outside the runtime package: the tier-1 parity tests compare
the packed forest kernel, the sorted-day percentile kernel, the
persistent feature ring and the one-pass block admission against them,
and replay whole event streams through the legacy hot path
(:func:`legacy_path`).
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core.feature_sets import _PERCENTILES, _validate_window
from repro.core.features import assemble_window
from repro.data.tensor import HOURS_PER_DAY
from repro.ml.forest import RandomForestClassifier
from repro.resilience.validate import ACCEPT
from repro.serve.engine import PredictionEngine


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


def _uncached_design(engine, model, t_day: int, window: int) -> np.ndarray:
    return model.build_design(engine.ingestor.feature_window(t_day, window))


@contextlib.contextmanager
def legacy_path(models):
    """Pin the legacy serving hot path for the served forecasters *models*.

    Forest predict runs the per-tree loop (:func:`predict_proba_legacy`),
    each model's feature view is :func:`percentile_features_reference`,
    and ``PredictionEngine._design`` builds every design uncached from
    the full window with ``model.build_design``: the per-call work the
    hot path did before the packed kernel, the per-day percentile ring
    and the cross-horizon design cache.  The engine must get *models*
    from the registry instance they were loaded from.
    """
    saved_predict = RandomForestClassifier.predict_proba
    saved_design = PredictionEngine._design
    saved_views = [(model, model._view) for model in models]
    RandomForestClassifier.predict_proba = predict_proba_legacy
    PredictionEngine._design = _uncached_design
    for model in models:
        model._view = percentile_features_reference
    try:
        yield
    finally:
        RandomForestClassifier.predict_proba = saved_predict
        PredictionEngine._design = saved_design
        for model, view in saved_views:
            model._view = view


def assembled_window(ingestor, lo_hour: int, hi_hour: int) -> np.ndarray:
    """Eq. 5 channels for ``[lo_hour, hi_hour)`` via ``assemble_window``.

    Concatenates the ingestor's component rings the way
    ``StreamIngestor.feature_window`` did before the persistent feature
    ring existed; ``feature_window`` must match it bitwise.
    """
    slots = ingestor._ring_slots(lo_hour, hi_hour)
    return assemble_window(
        ingestor.values[:, slots, :],
        ingestor.calendar[slots],
        ingestor.score_hourly[:, slots],
        ingestor.trail_daily[:, slots],
        ingestor.trail_weekly[:, slots],
        ingestor.trail_label[:, slots],
    )


def probe_block_reference(
    validator, values, missing, calendar_rows, first_hour, clock, default_row
):
    """The per-hour block probe: ``None`` (replay per tick) or the
    ``(values, missing, calendar_rows)`` a block is applied with.

    Every column is validated against the clock it would meet in
    per-hour order, stopping at the first verdict that is not a plain
    accept (no gap); the accepted verdicts are stacked hour by hour.
    ``repro.resilience.validate.admit_block`` must take the same
    decision and, on apply, pass bitwise-equal arrays.
    """
    values = np.asarray(values, dtype=np.float64)
    missing = None if missing is None else np.asarray(missing, dtype=bool)
    if calendar_rows is not None:
        calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
    verdicts = []
    for j in range(values.shape[1]):
        verdict = validator.validate(
            values[:, j, :],
            None if missing is None else missing[:, j, :],
            None if calendar_rows is None else calendar_rows[j],
            hour=None if first_hour is None else first_hour + j,
            clock=clock + j,
        )
        if verdict.action != ACCEPT or verdict.gap_hours:
            return None
        verdicts.append(verdict)
    rows = [
        default_row(clock + j) if v.calendar_row is None else v.calendar_row
        for j, v in enumerate(verdicts)
    ]
    return (
        np.stack([v.values for v in verdicts], axis=1),
        np.stack([v.missing for v in verdicts], axis=1),
        np.array(rows, dtype=np.float64),
    )
