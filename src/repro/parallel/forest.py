"""Process-parallel random-forest fitting.

A bagged forest is a set of independent trees, but the *serial* fit
draws its randomness from two sequential streams: one bootstrap stream
(tree k's resample is the k-th draw) and one spawned child stream per
tree.  To parallelise without changing a single bit of the result, the
parent pre-draws what is order-dependent — the bootstrap index matrix
and the per-tree child seeds (:func:`repro.ml.rng.spawn_seeds`) — and
ships tree *ordinals* to the workers.  Worker w fitting tree k therefore
uses exactly the data and RNG stream the serial loop would have used,
and the parent reassembles members, importances, and OOB votes in tree
order, so reductions see the same floating-point addition order too.

Prediction has no parallel path: the serial packed walk
(:class:`repro.ml.packed.PackedForest`) is faster than a pool at every
serving size, so a forest predicts serially in every process whatever
its ``n_jobs``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier
from repro.parallel.pool import (
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
)

__all__ = ["fit_trees_parallel", "ForestParallelUnavailable"]


class ForestParallelUnavailable(RuntimeError):
    """Parallel forest fitting cannot run here; use the serial path."""


# ------------------------------------------------------------------- fit
_FIT_BUNDLE: SharedArrayBundle | None = None
_FIT_CTX: dict | None = None


def _init_fit_worker(specs: dict[str, SharedArraySpec], payload: dict) -> None:
    global _FIT_BUNDLE, _FIT_CTX
    _FIT_BUNDLE = SharedArrayBundle.attach(specs)
    _FIT_CTX = dict(payload)
    _FIT_CTX["X"] = _FIT_BUNDLE["X"]
    _FIT_CTX["y"] = _FIT_BUNDLE["y"]
    _FIT_CTX["bootstrap_index"] = _FIT_BUNDLE["bootstrap_index"]
    _FIT_CTX["sample_weight"] = (
        _FIT_BUNDLE["sample_weight"] if "sample_weight" in specs else None
    )


def _fit_tree_chunk(ordinals: list[int]) -> list[tuple[int, dict]]:
    """Fit the trees with the given ordinals; return flat tree states."""
    ctx = _FIT_CTX
    X, y = ctx["X"], ctx["y"]
    out: list[tuple[int, dict]] = []
    for k in ordinals:
        sample_index = ctx["bootstrap_index"][k]
        tree = DecisionTreeClassifier(
            max_features=ctx["max_features"],
            min_weight_fraction_split=ctx["min_weight_fraction_split"],
            max_depth=ctx["max_depth"],
            class_balance=ctx["class_balance"],
            random_state=np.random.default_rng(ctx["tree_seeds"][k]),
        )
        weight = ctx["sample_weight"]
        member_weight = None if weight is None else weight[sample_index]
        tree.fit(X[sample_index], y[sample_index], sample_weight=member_weight)
        out.append((k, tree.to_state()))
    return out


def fit_trees_parallel(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None,
    bootstrap_index: np.ndarray,
    tree_seeds: list[int],
    tree_params: dict,
    n_jobs: int,
) -> list[DecisionTreeClassifier]:
    """Fit ``len(tree_seeds)`` member trees across a worker pool.

    *bootstrap_index* is the pre-drawn ``(n_trees, n_samples)`` resample
    matrix and *tree_seeds* the pre-spawned per-tree seeds, both in tree
    order, so tree k is bit-identical to the serial loop's tree k.  The
    returned list is in tree order.  Raises
    :class:`ForestParallelUnavailable` when the pool or shared memory
    cannot be set up.
    """
    n_trees = len(tree_seeds)
    jobs = effective_jobs(n_jobs, n_trees)
    if jobs == 1:
        raise ForestParallelUnavailable("only one worker resolves; fit serially")

    arrays = {
        "X": X,
        "y": y,
        "bootstrap_index": bootstrap_index,
    }
    if sample_weight is not None:
        arrays["sample_weight"] = sample_weight
    try:
        bundle = SharedArrayBundle.create(arrays)
    except SharedMemoryUnavailable as error:
        raise ForestParallelUnavailable(str(error)) from error

    payload = dict(tree_params)
    payload["tree_seeds"] = list(tree_seeds)

    chunks = partition(list(range(n_trees)), n_chunks=jobs * 2)
    with bundle:
        try:
            chunk_results = ordered_chunk_map(
                _fit_tree_chunk,
                chunks,
                jobs,
                initializer=_init_fit_worker,
                initargs=(bundle.specs(), payload),
            )
        except PoolUnavailable as error:
            raise ForestParallelUnavailable(str(error)) from error

    states = dict(flatten(chunk_results))
    return [DecisionTreeClassifier.from_state(states[k]) for k in range(n_trees)]
