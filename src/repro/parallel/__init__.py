"""repro.parallel — process-parallel execution with shared-memory tensors.

The sweep of paper Table III and the forests it trains are both
embarrassingly parallel once their randomness is derived instead of
consumed sequentially; this package supplies the execution layer:

* :mod:`repro.parallel.shm` — numpy arrays in named shared-memory
  blocks, so worker processes map the feature tensor zero-copy;
* :mod:`repro.parallel.pool` — worker-count resolution, contiguous
  chunking, and an ordered chunked map over a process pool;
* :mod:`repro.parallel.sweep` — the parallel
  :meth:`~repro.core.experiment.SweepRunner.run` backend;
* :mod:`repro.parallel.forest` — parallel member-tree fitting for
  :class:`~repro.ml.forest.RandomForestClassifier`.  Prediction stays
  serial in every process: the packed walk beats a pool at every
  serving size.

The determinism contract (see DESIGN.md): CRC32 cell seeds and
pre-spawned RNG streams make every result bitwise identical to the
serial path for any worker count; callers degrade to serial when shared
memory or process pools are unavailable.
"""

from repro.parallel.pool import (
    ChunkFailedError,
    PoolUnavailable,
    effective_jobs,
    flatten,
    ordered_chunk_map,
    partition,
)
from repro.parallel.shm import (
    SharedArrayBundle,
    SharedArraySpec,
    SharedMemoryUnavailable,
    SharedNDArray,
    shared_memory_available,
)
from repro.parallel.sweep import ParallelExecutionUnavailable, run_sweep_parallel

__all__ = [
    "ChunkFailedError",
    "PoolUnavailable",
    "effective_jobs",
    "flatten",
    "ordered_chunk_map",
    "partition",
    "SharedArrayBundle",
    "SharedArraySpec",
    "SharedNDArray",
    "SharedMemoryUnavailable",
    "shared_memory_available",
    "ParallelExecutionUnavailable",
    "run_sweep_parallel",
]
