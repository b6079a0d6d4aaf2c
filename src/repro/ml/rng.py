"""Seeded random-generator helpers.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``; these helpers make deriving independent
child seeds from a single seed ergonomic and reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng", "spawn_seeds"]


def ensure_rng(
    seed_or_rng: int | np.random.Generator | None,
) -> np.random.Generator:
    """Normalise a seed / generator / None into a Generator instance."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def spawn_seeds(
    seed_or_rng: int | np.random.Generator | None, count: int
) -> list[int]:
    """Derive *count* child seeds from the parent stream.

    A seed can be shipped to a worker process, and ``default_rng(seed)``
    there yields the exact stream the serial path would have used.  The
    k-th seed depends only on the parent state and k, never on how the
    work is later partitioned across processes.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(seed_or_rng)
    return [int(seed) for seed in parent.integers(0, 2**63, size=count)]

