"""Spatial correlation analysis of hot spot sequences (paper Fig. 8).

Three related experiments, all over the hourly labels ``Y^h``:

* **average** (Fig. 8A): for each sector, correlate its label series
  with its 500 spatially closest sectors, bucket the correlations by
  distance (log-spaced buckets with a dedicated same-tower bucket at
  0 km), and take the per-sector *average* per bucket;
* **maximum** (Fig. 8B): same, but take the per-sector *maximum* per
  bucket;
* **best** (Fig. 8C): for each sector, find its 100 most correlated
  sectors regardless of distance, bucket those by distance, and take
  the per-sector maximum — showing that near-twin behaviours exist at
  any distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import SectorGeography
from repro.stats.buckets import LogBuckets
from repro.stats.correlation import pearson_matrix_to_targets

__all__ = ["SpatialCorrelation", "spatial_correlation"]


@dataclass(frozen=True)
class SpatialCorrelation:
    """Distance-bucketed correlation summaries.

    Each attribute is a list with one array per distance bucket holding
    the per-sector summary values that fall into that bucket.

    Attributes
    ----------
    buckets:
        The bucketing used (labels give the km axis).
    average, maximum, best:
        Per-bucket arrays of per-sector average / maximum / best-match
        correlations (paper Fig. 8 A/B/C).
    """

    buckets: LogBuckets
    average: list[np.ndarray]
    maximum: list[np.ndarray]
    best: list[np.ndarray]

    def summary_rows(self) -> list[dict]:
        """One row per bucket with median and upper-quartile statistics."""
        rows = []
        for index, label in enumerate(self.buckets.labels):
            row = {"distance_km": label}
            for name, data in (
                ("average", self.average[index]),
                ("maximum", self.maximum[index]),
                ("best", self.best[index]),
            ):
                if data.size:
                    row[f"{name}_median"] = float(np.median(data))
                    row[f"{name}_q75"] = float(np.percentile(data, 75))
                    row[f"{name}_n"] = int(data.size)
                else:
                    row[f"{name}_median"] = float("nan")
                    row[f"{name}_q75"] = float("nan")
                    row[f"{name}_n"] = 0
            rows.append(row)
        return rows


def spatial_correlation(
    labels_hourly: np.ndarray,
    geography: SectorGeography,
    n_nearest: int = 500,
    n_best: int = 100,
    buckets: LogBuckets | None = None,
    max_sectors: int | None = None,
    seed: int = 0,
) -> SpatialCorrelation:
    """Run the three spatial correlation experiments.

    Parameters
    ----------
    labels_hourly:
        ``Y^h``, shape ``(n, m_h)``.
    geography:
        Sector positions (same-tower sectors share coordinates).
    n_nearest:
        Neighbourhood size for the average/maximum experiments
        (paper: 500; clipped to n-1).
    n_best:
        Number of most-correlated sectors for the best experiment
        (paper: 100; clipped to n-1).
    buckets:
        Distance buckets; defaults to the paper's axis.
    max_sectors:
        Optional subsample of reference sectors, for speed.
    seed:
        Seed for the subsample.
    """
    labels = np.asarray(labels_hourly, dtype=np.float64)
    if labels.ndim != 2:
        raise ValueError(f"labels must be 2-D, got {labels.shape}")
    n = labels.shape[0]
    if geography.n_sectors != n:
        raise ValueError(
            f"geography has {geography.n_sectors} sectors, labels have {n}"
        )
    if n < 3:
        raise ValueError("need at least three sectors")
    buckets = buckets or LogBuckets()
    n_nearest = min(n_nearest, n - 1)
    n_best = min(n_best, n - 1)

    if max_sectors is not None and max_sectors < n:
        reference = np.random.default_rng(seed).choice(n, size=max_sectors, replace=False)
    else:
        reference = np.arange(n)

    # Full correlation matrix once (n x n); cheap at laptop scale and
    # shared by the nearest and best experiments.
    corr = pearson_matrix_to_targets(labels)

    n_buckets = buckets.n_buckets
    average = [[] for _ in range(n_buckets)]
    maximum = [[] for _ in range(n_buckets)]
    best = [[] for _ in range(n_buckets)]

    for sector in reference:
        distances = geography.distances_from(int(sector))
        distances[sector] = np.inf

        # --- nearest-neighbour experiments (Fig. 8A/B)
        neighbours = np.argsort(distances, kind="stable")[:n_nearest]
        neighbour_corr = corr[sector, neighbours]
        neighbour_bucket = buckets.assign(distances[neighbours])
        for bucket in np.unique(neighbour_bucket):
            values = neighbour_corr[neighbour_bucket == bucket]
            average[bucket].append(values.mean())
            maximum[bucket].append(values.max())

        # --- best-match experiment (Fig. 8C)
        candidates = corr[sector].copy()
        candidates[sector] = -np.inf
        top = np.argsort(-candidates, kind="stable")[:n_best]
        top_bucket = buckets.assign(distances[top])
        for bucket in np.unique(top_bucket):
            values = candidates[top][top_bucket == bucket]
            best[bucket].append(values.max())

    def collect(store: list[list[float]]) -> list[np.ndarray]:
        return [np.asarray(bucket_values, dtype=np.float64) for bucket_values in store]

    return SpatialCorrelation(
        buckets=buckets,
        average=collect(average),
        maximum=collect(maximum),
        best=collect(best),
    )
