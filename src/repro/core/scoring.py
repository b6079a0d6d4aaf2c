"""Hot spot scoring (paper Eqs. 1-3).

The operator combines the hourly KPIs into a single per-sector score,

    S'_{i,j} = sum_k  Omega_k * H(K_{i,j,k} - epsilon_k),

a weighted sum of thresholded indicators (Eq. 1), where H is the
Heaviside step function and the weights/thresholds encode vendor and
operator experience.  The score is then integrated over hourly, daily,
and weekly periods with the trailing-average operator mu (Eqs. 2-3).

We normalise the score by ``sum(Omega)`` so it lives in ``[0, 1]``; the
paper re-scales it too (Fig. 4 shows a re-scaled axis).

The default weights and thresholds are calibrated against the synthetic
KPI catalog (:mod:`repro.synth.kpis`): service-impacting channels (voice
blocking, throughput deficit, drops, setup failures, unavailability)
carry the highest weights; usage/congestion thresholds are set so a
healthy busy sector does not trip them, a pre-onset precursor ramp trips
them only in its final days (while the raw KPI columns carry the ramp
from its first day), and capacity-starved and degraded sectors trip them
broadly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.dataset import Dataset
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK, KPITensor

__all__ = [
    "ScoreConfig",
    "hourly_score",
    "integrate_score",
    "trailing_mean",
    "attach_scores",
    "weighted_sum",
]

# Calibrated thresholds epsilon_k for the 21 synthetic KPI channels
# (1-based channel meanings documented in repro.synth.kpis.KPI_NAMES).
_DEFAULT_THRESHOLDS = (
    0.45,  # 1  pilot_power_deviation
    0.50,  # 2  rscp_coverage_shortfall
    0.45,  # 3  ecno_quality_degradation
    0.15,  # 4  voice_setup_failure_ratio
    0.18,  # 5  data_setup_failure_ratio
    0.60,  # 6  noise_rise
    0.15,  # 7  paging_failure_ratio
    0.75,  # 8  data_utilization_rate
    2.00,  # 9  hsdpa_queue_users
    0.18,  # 10 channel_setup_failure
    0.12,  # 11 voice_drop_ratio
    0.75,  # 12 noise_floor_level
    0.15,  # 13 data_drop_ratio
    0.80,  # 14 tti_occupancy
    0.15,  # 15 handover_failure_ratio
    0.55,  # 16 soft_handover_overhead
    0.20,  # 17 voice_blocking
    0.25,  # 18 data_throughput_deficit
    0.25,  # 19 free_channel_shortage
    0.22,  # 20 congestion_ratio
    0.30,  # 21 cell_unavailability
)

# Calibrated weights Omega_k: higher = more service-impacting.
_DEFAULT_WEIGHTS = (
    1.0, 1.0, 1.0,        # coverage
    3.0, 3.0,             # setup failures
    2.0, 2.0,             # noise rise, paging
    2.0, 2.0, 2.0,        # utilization, queue, channel setup failure
    3.0, 1.0, 3.0, 2.0,   # drops, noise floor, tti occupancy
    1.0, 1.0,             # mobility
    4.0, 4.0, 2.0, 3.0, 4.0,  # blocking, throughput, channels, congestion, avail
)


@dataclass(frozen=True)
class ScoreConfig:
    """Weights, thresholds, and the hot spot decision threshold.

    Attributes
    ----------
    weights:
        ``Omega``, one non-negative weight per KPI channel.
    thresholds:
        ``epsilon``, one threshold per KPI channel.
    hotspot_threshold:
        The label threshold (Eq. 4) applied to the *normalised*
        integrated score.  The default is placed in the natural valley
        of the synthetic score distribution (see the Fig. 4 bench).
    """

    weights: tuple[float, ...] = _DEFAULT_WEIGHTS
    thresholds: tuple[float, ...] = _DEFAULT_THRESHOLDS
    hotspot_threshold: float = 0.12

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.thresholds):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.thresholds)} thresholds"
            )
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if sum(self.weights) <= 0:
            raise ValueError("at least one weight must be positive")
        if not 0.0 < self.hotspot_threshold < 1.0:
            raise ValueError(
                f"hotspot_threshold must be in (0, 1), got {self.hotspot_threshold}"
            )

    @property
    def n_kpis(self) -> int:
        return len(self.weights)

    @property
    def weight_sum(self) -> float:
        return float(sum(self.weights))

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """``Omega`` as a read-only float64 vector."""
        vector = np.asarray(self.weights, dtype=np.float64)
        vector.setflags(write=False)
        return vector

    @cached_property
    def integral_weights(self) -> bool:
        """True when every partial sum of Eq. 1 is an exact float64 integer."""
        return all(float(w).is_integer() for w in self.weights) and self.weight_sum < 2.0**53


def hourly_score(kpis: KPITensor, config: ScoreConfig | None = None) -> np.ndarray:
    """Normalised hourly score ``S'`` (Eq. 1), shape ``(n, m_h)``.

    Missing KPI entries contribute zero to the sum (they cannot trip a
    threshold); run imputation first if that bias matters.
    """
    config = config or ScoreConfig()
    if kpis.n_kpis != config.n_kpis:
        raise ValueError(
            f"score config covers {config.n_kpis} KPIs, tensor has {kpis.n_kpis}"
        )
    thresholds = np.asarray(config.thresholds)
    tripped = kpis.values > thresholds[None, None, :]
    tripped &= ~kpis.missing
    return weighted_sum(tripped, config) / config.weight_sum


def weighted_sum(tripped: np.ndarray, config: ScoreConfig) -> np.ndarray:
    """Eq. 1's ``sum_k Omega_k * tripped[..., k]`` over the last axis.

    The bits do not depend on *tripped*'s memory layout, so the batch
    pipeline and the stream ingestor agree bitwise.  With integral
    weights (the defaults) every partial sum is exact, so one dot product
    in any summation order gives them.  Other weights are added one KPI
    at a time, in channel order.
    """
    weights = config.weight_vector
    if config.integral_weights:
        flat = np.dot(tripped.reshape(-1, weights.size), weights)
        return flat.reshape(tripped.shape[:-1])
    total = np.zeros(tripped.shape[:-1])
    for k, weight in enumerate(weights):
        total += tripped[..., k] * weight
    return total


def integrate_score(score_hourly: np.ndarray, period: str) -> np.ndarray:
    """Temporal integration of the hourly score (Eqs. 2-3).

    Parameters
    ----------
    score_hourly:
        Shape ``(n, m_h)`` hourly scores.
    period:
        ``"h"`` (identity), ``"d"`` (non-overlapping 24 h means), or
        ``"w"`` (non-overlapping 168 h means).

    Returns
    -------
    numpy.ndarray
        ``(n, m_h)``, ``(n, m_d)``, or ``(n, m_w)``.
    """
    score_hourly = np.asarray(score_hourly, dtype=np.float64)
    if score_hourly.ndim != 2:
        raise ValueError(f"score must be 2-D (n, m_h), got {score_hourly.shape}")
    if period == "h":
        return score_hourly.copy()
    if period == "d":
        length = HOURS_PER_DAY
    elif period == "w":
        length = HOURS_PER_WEEK
    else:
        raise ValueError(f"period must be 'h', 'd', or 'w', got {period!r}")
    n, m_h = score_hourly.shape
    n_periods = m_h // length
    usable = score_hourly[:, : n_periods * length]
    return usable.reshape(n, n_periods, length).mean(axis=2)


def trailing_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Causal trailing mean: ``out[:, j] = mean(series[:, j-window+1 : j+1])``.

    This is the mu operator of Eq. 3 evaluated at every position.  The
    first ``window - 1`` positions average over the shorter available
    prefix, so the output never looks ahead.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be 2-D, got {series.shape}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    n, m = series.shape
    cumsum = np.cumsum(series, axis=1)
    out = np.empty_like(series)
    window = min(window, m)
    out[:, :window] = cumsum[:, :window] / np.arange(1, window + 1)[None, :]
    if m > window:
        out[:, window:] = (cumsum[:, window:] - cumsum[:, :-window]) / window
    return out


def attach_scores(dataset: Dataset, config: ScoreConfig | None = None) -> Dataset:
    """Compute and attach all scores and labels to *dataset* in place.

    Attaches ``score_hourly`` / ``score_daily`` / ``score_weekly`` and
    the corresponding binary labels (Eq. 4) using the configured hot
    spot threshold.  Returns the same dataset for chaining.
    """
    config = config or ScoreConfig()
    s_hourly = hourly_score(dataset.kpis, config)
    s_daily = integrate_score(s_hourly, "d")
    s_weekly = integrate_score(s_hourly, "w")
    threshold = config.hotspot_threshold
    dataset.score_hourly = s_hourly
    dataset.score_daily = s_daily
    dataset.score_weekly = s_weekly
    dataset.labels_hourly = (s_hourly > threshold).astype(np.int8)
    dataset.labels_daily = (s_daily > threshold).astype(np.int8)
    dataset.labels_weekly = (s_weekly > threshold).astype(np.int8)
    return dataset
