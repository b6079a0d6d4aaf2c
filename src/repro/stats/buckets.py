"""Logarithmically spaced bucketing.

The spatial correlation analysis (paper Fig. 8) distributes sector-pair
correlation values across logarithmically spaced distance buckets, with a
dedicated first bucket for distance 0 (sectors on the same tower).  This
module provides that bucketing as a small reusable component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LogBuckets", "bucket_indices"]


@dataclass(frozen=True)
class LogBuckets:
    """Log-spaced distance buckets with a dedicated zero bucket.

    The paper's Fig. 8 x-axis is ``0, 0.1, 0.2, 0.4, 0.8, 1.6, 3, 6, 12,
    25, 51, 102, 204`` km: a zero bucket followed by a dyadic progression.
    The default edges reproduce exactly that axis.

    Attributes
    ----------
    edges:
        Increasing array of positive bucket upper edges (km).  A value
        ``d`` with ``0 < d <= edges[0]`` falls in bucket 1, values in
        ``(edges[i-1], edges[i]]`` fall in bucket ``i + 1``; bucket 0 is
        reserved for ``d == 0``.  Values above the last edge are clipped
        into the last bucket.
    """

    edges: tuple[float, ...] = (
        0.1,
        0.2,
        0.4,
        0.8,
        1.6,
        3.0,
        6.0,
        12.0,
        25.0,
        51.0,
        102.0,
        204.0,
    )

    def __post_init__(self) -> None:
        arr = np.asarray(self.edges, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("edges must be non-empty")
        if np.any(arr <= 0):
            raise ValueError("edges must be strictly positive")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("edges must be strictly increasing")

    @property
    def n_buckets(self) -> int:
        """Number of buckets, including the zero bucket."""
        return len(self.edges) + 1

    @property
    def labels(self) -> list[str]:
        """Human-readable bucket labels, matching the paper's x-axis."""
        def fmt(value: float) -> str:
            return f"{value:g}"

        return ["0"] + [fmt(edge) for edge in self.edges]

    def assign(self, distances: np.ndarray) -> np.ndarray:
        """Map each distance (km) to its bucket index.

        Parameters
        ----------
        distances:
            Array of non-negative distances.

        Returns
        -------
        numpy.ndarray
            Integer bucket indices in ``[0, n_buckets)`` with the same
            shape as the input.
        """
        d = np.asarray(distances, dtype=np.float64)
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        edges = np.asarray(self.edges, dtype=np.float64)
        idx = np.searchsorted(edges, d, side="left") + 1
        idx = np.minimum(idx, self.n_buckets - 1)
        idx[d == 0.0] = 0
        return idx


def bucket_indices(distances: np.ndarray, buckets: LogBuckets | None = None) -> np.ndarray:
    """Convenience wrapper: assign *distances* to default :class:`LogBuckets`."""
    return (buckets or LogBuckets()).assign(distances)
