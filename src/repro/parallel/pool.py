"""Process-pool plumbing shared by the parallel sweep and forest.

Thin, deterministic conveniences over :class:`concurrent.futures.\
ProcessPoolExecutor`: resolving a user-facing ``n_jobs`` knob into a
worker count, cutting a work list into contiguous chunks, and running a
chunked map that *streams completions* (for progress reporting) while
*returning results in submission order* (for determinism — callers
reassemble grid order no matter which worker finished first).

Workers are forked, so they inherit the map's read-only *state* (a
sweep runner with its feature tensor, a forest fit's inputs) from the
parent's pages copy-on-write: nothing is pickled or copied on the way
in, and a worker reads the same bytes the serial path reads.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "effective_jobs",
    "partition",
    "ordered_chunk_map",
    "flatten",
    "PoolUnavailable",
    "ChunkFailedError",
]

T = TypeVar("T")
R = TypeVar("R")

# The running map's state.  Set before the pool forks, so every worker
# inherits it; cleared when the map returns, so the parent does not keep
# the inputs alive.  The lock lets one map at a time own it.
_STATE = None
_STATE_LOCK = threading.Lock()


class PoolUnavailable(RuntimeError):
    """Raised when worker processes cannot be started on this host."""


class ChunkFailedError(RuntimeError):
    """A chunk's worker function raised; identifies *which* partition died.

    Wraps the original worker exception (available as ``__cause__``)
    with the chunk index and the contiguous item range it covered, so a
    failed shard/sector partition can be named in logs without
    re-deriving the chunking.
    """

    def __init__(
        self, chunk_index: int, n_chunks: int, item_range: tuple[int, int],
        error: Exception,
    ) -> None:
        lo, hi = item_range
        super().__init__(
            f"chunk {chunk_index}/{n_chunks} (items [{lo}:{hi}]) failed: "
            f"{type(error).__name__}: {error}"
        )
        self.chunk_index = chunk_index
        self.item_range = item_range


def _chunk_ranges(chunks: list[list]) -> list[tuple[int, int]]:
    """Half-open global item range covered by each contiguous chunk."""
    ranges = []
    start = 0
    for chunk in chunks:
        ranges.append((start, start + len(chunk)))
        start += len(chunk)
    return ranges


def effective_jobs(n_jobs: int | None, n_items: int | None = None) -> int:
    """Resolve an ``n_jobs`` knob into an actual worker count.

    ``None`` and ``0`` mean "all cores"; negative values count back from
    the core count (``-1`` = all cores, ``-2`` = all but one, the sklearn
    convention); positive values are taken literally.  The result is
    clamped to ``n_items`` when given — more workers than work is waste.
    "Cores" are the CPUs this process may run on (its affinity mask), not
    every CPU of the host.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        jobs = cores
    elif n_jobs < 0:
        jobs = cores + 1 + n_jobs
    else:
        jobs = n_jobs
    if n_items is not None:
        jobs = min(jobs, n_items)
    return max(1, jobs)


def partition(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Cut *items* into at most *n_chunks* contiguous, near-equal chunks.

    Contiguity is what keeps reassembly trivial: concatenating the chunk
    results in chunk order reproduces item order exactly.
    """
    n_items = len(items)
    if n_items == 0:
        return []
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    chunks: list[list[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def _terminate_pool(executor: ProcessPoolExecutor) -> None:
    """Force a (possibly hung or broken) pool down without blocking."""
    # ProcessPoolExecutor exposes no public kill switch; `_processes`
    # is a private CPython detail (stable since 3.7).  Guard the access
    # so a future rename degrades to a plain non-blocking shutdown —
    # workers may linger, but the parent still makes progress.
    workers = list((getattr(executor, "_processes", None) or {}).values())
    for process in workers:
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass
    executor.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        process.join(timeout=5)


def _run_with_state(fn: Callable, chunk: list):
    """Worker entry point: apply *fn* to the inherited state and a chunk."""
    return fn(_STATE, chunk)


def ordered_chunk_map(
    fn: Callable[[object, list[T]], R],
    chunks: list[list[T]],
    n_jobs: int,
    state: object = None,
    on_chunk_done: Callable[[int, int], None] | None = None,
    chunk_timeout: float | None = None,
) -> list[R]:
    """Run ``fn(state, chunk)`` for every chunk on a forked worker pool.

    *state* reaches the workers by fork inheritance, never by pickling,
    so it may be as large as the parent can hold; *fn* (a module-level
    function) and each chunk and result are pickled.  *fn* must treat
    *state* as read-only and must not start a map of its own.  One map
    runs at a time per process; a concurrent call waits for the lock.

    Results come back **in chunk order** regardless of completion order.
    *on_chunk_done(done_items, total_items)* fires as chunks complete,
    in completion order, for progress reporting.  Worker exceptions
    propagate wrapped in :class:`ChunkFailedError` (naming the chunk
    index and item range that died, with the original exception as
    ``__cause__``); a host that cannot fork or start the pool raises
    :class:`PoolUnavailable` so callers can fall back to serial.

    *chunk_timeout* (seconds, also settable via the
    ``REPRO_CHUNK_TIMEOUT`` environment variable) is a progress
    watchdog: if no chunk completes within it, the pool is declared
    hung.  The watchdog cannot distinguish a hung worker from one
    mid-way through a legitimately long chunk — a false positive tears
    the pool down and re-runs every unfinished chunk serially, which is
    far slower than waiting would have been.  **Set it comfortably
    above the slowest chunk you expect** (a generous multiple, not a
    tight bound), or leave it unset to wait indefinitely.  A hung or
    **died** pool (a worker killed mid-chunk) no longer sinks
    the whole map — the surviving workers' results are kept, the pool is
    torn down, and the lost chunks are re-run serially in the calling
    process, so the map always returns complete, correctly ordered
    results instead of hanging or forcing the caller to redo finished
    work.
    """
    global _STATE
    if chunk_timeout is None:
        env = os.environ.get("REPRO_CHUNK_TIMEOUT")
        chunk_timeout = float(env) if env else None
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ValueError(f"chunk_timeout must be > 0, got {chunk_timeout}")
    try:
        context = multiprocessing.get_context("fork")
    except ValueError as error:
        raise PoolUnavailable(f"fork start method unavailable: {error}") from error
    with _STATE_LOCK:
        _STATE = state
        try:
            return _map_on_pool(
                fn, chunks, n_jobs, context, state, on_chunk_done, chunk_timeout
            )
        finally:
            _STATE = None


def _map_on_pool(fn, chunks, n_jobs, context, state, on_chunk_done, chunk_timeout):
    """:func:`ordered_chunk_map` once its state is published."""
    total_items = sum(len(chunk) for chunk in chunks)
    try:
        executor = ProcessPoolExecutor(max_workers=n_jobs, mp_context=context)
    except (OSError, ValueError) as error:
        raise PoolUnavailable(f"cannot start worker processes: {error}") from error

    results: dict[int, object] = {}
    done_items = 0
    salvage_reason: str | None = None
    try:
        futures = [executor.submit(_run_with_state, fn, chunk) for chunk in chunks]
        index_of = {id(future): i for i, future in enumerate(futures)}
        pending = set(futures)
        while pending and salvage_reason is None:
            finished, pending = wait(
                pending, timeout=chunk_timeout, return_when=FIRST_COMPLETED
            )
            if not finished:
                salvage_reason = (
                    f"no chunk completed within {chunk_timeout:.1f}s "
                    "(hung worker?)"
                )
                break
            for future in finished:
                index = index_of[id(future)]
                try:
                    results[index] = future.result()
                except BrokenProcessPool as error:
                    salvage_reason = f"worker pool died: {error}"
                    break
                except Exception as error:  # noqa: BLE001 - annotate and re-raise
                    raise ChunkFailedError(
                        index, len(chunks), _chunk_ranges(chunks)[index], error
                    ) from error
                done_items += len(chunks[index])
            if salvage_reason is None and on_chunk_done is not None:
                on_chunk_done(done_items, total_items)
    except BrokenProcessPool as error:
        salvage_reason = f"worker pool died: {error}"
    finally:
        if salvage_reason is None:
            # Success, or a genuine worker exception propagating: cancel
            # whatever is still queued and reap the pool.
            executor.shutdown(wait=True, cancel_futures=True)
        else:
            _terminate_pool(executor)

    if salvage_reason is not None:
        lost = [i for i in range(len(chunks)) if i not in results]
        warnings.warn(
            f"{salvage_reason}; re-running {len(lost)}/{len(chunks)} lost "
            "chunk(s) serially in the parent process",
            RuntimeWarning,
            stacklevel=3,
        )
        for index in lost:
            try:
                results[index] = fn(state, chunks[index])
            except Exception as error:  # noqa: BLE001 - annotate and re-raise
                raise ChunkFailedError(
                    index, len(chunks), _chunk_ranges(chunks)[index], error
                ) from error
            done_items += len(chunks[index])
            if on_chunk_done is not None:
                on_chunk_done(done_items, total_items)
    return [results[i] for i in range(len(chunks))]


def flatten(chunked: Iterable[list[R]]) -> list[R]:
    """Concatenate chunk results back into one flat, ordered list."""
    out: list[R] = []
    for chunk in chunked:
        out.extend(chunk)
    return out
