"""repro.parallel — process-parallel execution over forked workers.

The sweep of paper Table III and the forests it trains are both
embarrassingly parallel once their randomness is derived instead of
consumed sequentially.  :mod:`repro.parallel.pool` is the one execution
layer both use: worker-count resolution, contiguous chunking, and an
ordered chunked map over a forked pool whose workers inherit the map's
inputs (the sweep runner with its feature tensor, or a forest fit's
arrays) copy-on-write.  :meth:`~repro.core.experiment.SweepRunner.run`
and :class:`~repro.ml.forest.RandomForestClassifier` call it directly.
Prediction stays serial in every process: the packed walk beats a pool
at every serving size.

The determinism contract (see DESIGN.md): CRC32 cell seeds and
pre-spawned RNG streams make every result bitwise identical to the
serial path for any worker count; callers degrade to serial when the
host cannot fork worker processes (:class:`PoolUnavailable`).
"""

from repro.parallel.pool import (
    ChunkFailedError,
    PoolUnavailable,
    effective_jobs,
    flatten,
    ordered_chunk_map,
    partition,
)

__all__ = [
    "ChunkFailedError",
    "PoolUnavailable",
    "effective_jobs",
    "flatten",
    "ordered_chunk_map",
    "partition",
]
