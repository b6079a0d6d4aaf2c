"""Feature views fed to the tree-based models (paper Sec. IV-D).

Three ways to turn the window slice ``X[:, t-w : t, :]`` (shape
``(n, 24*w, c)``) into a flat design matrix:

* :func:`raw_features` (RF-R) — the raw slice, flattened:
  ``24 * w * c`` columns.
* :func:`percentile_features` (RF-F1) — the 5/25/50/75/95 percentiles of
  every day of every channel: ``5 * w * c`` columns.  This implicitly
  contains the Persist and Average baselines.
* :func:`hand_crafted_features` (RF-F2) — summary statistics of the
  whole window, its two halves and their differences, average and
  extreme day/week profiles, plus the raw last day: it implicitly
  contains Persist, Average, and Trend.
"""

from __future__ import annotations

import numpy as np

from repro.data.tensor import HOURS_PER_DAY

__all__ = [
    "raw_features",
    "percentile_features",
    "hand_crafted_features",
]

_PERCENTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


def _daily_percentiles(daily: np.ndarray) -> np.ndarray:
    """``np.percentile(daily, _PERCENTILES, axis=2)``, bitwise, but faster.

    One contiguous sort of each day's hours replaces the generic
    multi-kth introselect, and the linear interpolation replicates
    NumPy's ``_lerp`` exactly (including its ``t >= 0.5`` rewrite, which
    here resolves per percentile since the interpolation weight is a
    scalar) — so every output bit matches the reference.  Assumes no
    NaNs, which :func:`_validate_window` callers guarantee upstream
    (serving windows reject missing values, batch tensors are imputed).
    """
    n, days, hours, channels = daily.shape
    ordered = np.sort(np.ascontiguousarray(daily.transpose(0, 1, 3, 2)), axis=-1)
    q = np.true_divide(np.asarray(_PERCENTILES, dtype=np.float64), 100.0)
    virtual = q * (hours - 1)
    lo = np.floor(virtual).astype(np.int64)
    hi = np.ceil(virtual).astype(np.int64)
    gamma = virtual - lo
    out = np.empty((len(_PERCENTILES), n, days, channels))
    for i in range(len(_PERCENTILES)):
        a = ordered[..., lo[i]]
        b = ordered[..., hi[i]]
        diff = b - a
        t = gamma[i]
        out[i] = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
    return out


def _validate_window(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 3:
        raise ValueError(f"window must be (n, hours, channels), got {window.shape}")
    if window.shape[1] % HOURS_PER_DAY != 0:
        raise ValueError(
            f"window must cover whole days; got {window.shape[1]} hours"
        )
    if window.shape[1] == 0:
        raise ValueError("window must cover at least one day")
    return window


def raw_features(window: np.ndarray) -> np.ndarray:
    """RF-R: the raw slice flattened to ``(n, hours * channels)``.

    Flattening is hour-major within each channel block kept channel-minor
    (i.e., ``reshape`` of the ``(hours, channels)`` trailing block), so
    column ``j * c + k`` is hour ``j`` of channel ``k`` — the layout the
    importance maps (paper Figs. 15-16) expect.
    """
    window = _validate_window(window)
    n = window.shape[0]
    return window.reshape(n, -1)


def percentile_features(window: np.ndarray) -> np.ndarray:
    """RF-F1: per-day percentiles of every channel.

    Each of the ``w`` days of each channel contributes its 5, 25, 50,
    75, and 95 percentiles over the day's 24 hourly samples, reducing
    ``24 * w`` values per channel to ``5 * w``.
    """
    window = _validate_window(window)
    n, hours, channels = window.shape
    days = hours // HOURS_PER_DAY
    daily = window.reshape(n, days, HOURS_PER_DAY, channels)
    # percentile over the hour axis -> (5, n, days, channels)
    pct = _daily_percentiles(daily)
    # order columns day-major, then channel, then percentile
    return pct.transpose(1, 2, 3, 0).reshape(n, days * channels * len(_PERCENTILES))


def hand_crafted_features(window: np.ndarray) -> np.ndarray:
    """RF-F2: summary statistics, profiles, and the raw last day.

    Per channel:

    * mean / std / min / max of the whole window, its first half, and
      its second half (12 columns);
    * second-half minus first-half differences of those statistics
      (4 columns);
    * the average day profile (24 columns) and average week profile
      (7 columns, padded cyclically for short windows);
    * 'extreme' day profile: per-hour max over days (24 columns), and
      'extreme' week profile: per-day max of the daily means (7 columns);
    * differences between evening (15-18 h) and night (2-5 h) average
      profile components (1 column);
    * the raw 24 values of the last day plus their mean and std
      (26 columns).
    """
    window = _validate_window(window)
    n, hours, channels = window.shape
    days = hours // HOURS_PER_DAY
    half = hours // 2
    first = window[:, :half, :]
    second = window[:, half:, :]

    def stats(block: np.ndarray) -> list[np.ndarray]:
        return [
            block.mean(axis=1),
            block.std(axis=1),
            block.min(axis=1),
            block.max(axis=1),
        ]

    whole_stats = stats(window)
    first_stats = stats(first)
    second_stats = stats(second)
    diff_stats = [s - f for s, f in zip(second_stats, first_stats)]

    daily = window.reshape(n, days, HOURS_PER_DAY, channels)
    avg_day = daily.mean(axis=1)                     # (n, 24, c)
    extreme_day = daily.max(axis=1)                  # (n, 24, c)
    daily_means = daily.mean(axis=2)                 # (n, days, c)

    # Week profiles: fold the day axis modulo 7 (cyclic pad when w < 7).
    week_positions = np.arange(days) % 7
    avg_week = np.zeros((n, 7, channels))
    extreme_week = np.zeros((n, 7, channels))
    for position in range(7):
        mask = week_positions == position
        if mask.any():
            avg_week[:, position, :] = daily_means[:, mask, :].mean(axis=1)
            extreme_week[:, position, :] = daily_means[:, mask, :].max(axis=1)
        else:
            fallback = daily_means.mean(axis=1)
            avg_week[:, position, :] = fallback
            extreme_week[:, position, :] = fallback

    evening = avg_day[:, 15:19, :].mean(axis=1)
    night = avg_day[:, 2:6, :].mean(axis=1)
    commute_contrast = evening - night

    last_day = window[:, -HOURS_PER_DAY:, :]

    pieces = [np.stack(whole_stats, axis=2),        # (n, c, 4)
              np.stack(first_stats, axis=2),        # (n, c, 4)
              np.stack(second_stats, axis=2),       # (n, c, 4)
              np.stack(diff_stats, axis=2),         # (n, c, 4)
              avg_day.transpose(0, 2, 1),           # (n, c, 24)
              extreme_day.transpose(0, 2, 1),       # (n, c, 24)
              avg_week.transpose(0, 2, 1),          # (n, c, 7)
              extreme_week.transpose(0, 2, 1),      # (n, c, 7)
              commute_contrast[:, :, None],         # (n, c, 1)
              last_day.transpose(0, 2, 1),          # (n, c, 24)
              last_day.mean(axis=1)[:, :, None],    # (n, c, 1)
              last_day.std(axis=1)[:, :, None]]     # (n, c, 1)
    features = np.concatenate(pieces, axis=2)       # (n, c, 105)
    return features.reshape(n, -1)
