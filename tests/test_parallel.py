"""Parallel-vs-serial determinism: sweep, forest, and pool plumbing.

The contract under test (DESIGN.md): every sweep cell derives its seed
from CRC32 of (master_seed, model, t, h, w) and every forest member gets
a pre-spawned child stream, so results are bitwise identical for any
``n_jobs`` — not merely statistically equivalent.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core.experiment import SweepGrid, SweepRunner
from repro.ml.forest import RandomForestClassifier
from repro.parallel import effective_jobs, partition, pool
from repro.parallel.pool import ChunkFailedError, ordered_chunk_map

#: Grid for the determinism sweeps: baselines + both stochastic model
#: families, two t-days, two horizons.  Small enough to run three times
#: in a unit test, varied enough to cover every execution path.
GRID = SweepGrid.small(
    models=("Random", "Persist", "Tree", "RF-F1"),
    n_t=2,
    horizons=(1, 5),
    windows=(3,),
    t_min=55,
    t_max=75,
)


def rows_identical(rows_a: list[dict], rows_b: list[dict]) -> None:
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        for key in ("model", "t", "h", "w", "target", "n_sectors", "n_positive"):
            assert a[key] == b[key], key
        for key in ("psi", "lift"):
            if math.isnan(a[key]) and math.isnan(b[key]):
                continue
            assert a[key] == b[key], (key, a, b)  # bitwise, not approx


def _no_fork(method=None):
    raise ValueError(f"cannot find context for {method!r}")


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def runner(self, scored_dataset):
        return SweepRunner(scored_dataset, n_estimators=5, seed=3)

    @pytest.fixture(scope="class")
    def serial_rows(self, runner):
        return [r.as_row() for r in runner.run(GRID, n_jobs=1)]

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_rows_match_serial(self, runner, serial_rows, n_jobs):
        rows = [r.as_row() for r in runner.run(GRID, n_jobs=n_jobs)]
        rows_identical(serial_rows, rows)
        assert pool._STATE is None  # the runner is not pinned after the map

    def test_order_matches_grid_cells(self, runner, serial_rows):
        cells = list(GRID.cells())
        assert len(serial_rows) == len(cells)
        for row, (model, t_day, horizon, window) in zip(serial_rows, cells):
            assert (row["model"], row["t"], row["h"], row["w"]) == (
                model, t_day, horizon, window,
            )

    def test_falls_back_to_serial_without_fork(self, runner, serial_rows, monkeypatch):
        """A host without fork degrades to the serial path, same rows."""
        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        rows = [r.as_row() for r in runner.run(GRID, n_jobs=2)]
        rows_identical(serial_rows, rows)

    def test_progress_goes_to_stderr(self, scored_dataset, capsys):
        runner = SweepRunner(scored_dataset, n_estimators=2, seed=3)
        grid = SweepGrid.small(
            models=("Persist",), n_t=5, horizons=tuple(range(1, 12)),
            windows=(1,), t_min=55, t_max=75,
        )
        runner.run(grid, progress=True, n_jobs=1)
        captured = capsys.readouterr()
        assert "sweep progress" in captured.err
        assert captured.out == ""


class TestParallelForest:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(400, 15))
        y = (X[:, 3] - 0.5 * X[:, 7] + 0.4 * rng.normal(size=400) > 0).astype(np.int64)
        return X, y

    def test_fit_matches_serial(self, data):
        X, y = data
        serial = RandomForestClassifier(n_estimators=8, random_state=9, n_jobs=1)
        parallel = RandomForestClassifier(n_estimators=8, random_state=9, n_jobs=4)
        serial.fit(X, y)
        parallel.fit(X, y)
        assert np.array_equal(serial.feature_importances_, parallel.feature_importances_)
        assert np.array_equal(serial.predict_proba(X), parallel.predict_proba(X))
        for tree_s, tree_p in zip(serial.estimators_, parallel.estimators_):
            assert np.array_equal(tree_s._feature, tree_p._feature)
            assert np.array_equal(tree_s._threshold, tree_p._threshold)
            assert np.array_equal(tree_s._proba, tree_p._proba)

    def test_fit_falls_back_to_serial_without_fork(self, data, monkeypatch):
        X, y = data
        serial = RandomForestClassifier(n_estimators=6, random_state=4).fit(X, y)
        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        forest = RandomForestClassifier(n_estimators=6, random_state=4, n_jobs=2)
        forest.fit(X, y)
        assert np.array_equal(serial.feature_importances_, forest.feature_importances_)
        for tree_s, tree_p in zip(serial.estimators_, forest.estimators_):
            assert np.array_equal(tree_s._feature, tree_p._feature)
            assert np.array_equal(tree_s._threshold, tree_p._threshold)
            assert np.array_equal(tree_s._proba, tree_p._proba)

    def test_n_jobs_does_not_reach_predict(self, data, monkeypatch):
        X, y = data
        serial = RandomForestClassifier(n_estimators=6, random_state=1).fit(X, y)
        forest = RandomForestClassifier(n_estimators=6, random_state=1, n_jobs=2)
        forest.fit(X, y)

        def no_pool(*args, **kwargs):
            raise AssertionError("predict must not start a pool")

        monkeypatch.setattr("repro.ml.forest.ordered_chunk_map", no_pool)
        proba = forest.predict_proba(X)
        assert np.array_equal(
            proba.view(np.uint64), serial.predict_proba(X).view(np.uint64)
        )

    def test_oob_matches_serial(self, data):
        X, y = data
        serial = RandomForestClassifier(
            n_estimators=8, random_state=2, oob_score=True, n_jobs=1
        ).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=8, random_state=2, oob_score=True, n_jobs=2
        ).fit(X, y)
        assert np.array_equal(serial.oob_proba_, parallel.oob_proba_, equal_nan=True)

    def test_expand_proba_positions_cached_at_fit(self, data):
        X, y = data
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        assert len(forest._class_positions_) == 4
        # Rebuild the cache lazily when estimators are swapped in (the
        # registry's load path sets estimators_ directly).
        del forest._class_positions_
        proba = forest.predict_proba(X[:10])
        assert proba.shape == (10, 2)
        assert len(forest._class_positions_) == 4


# Salvage-test work functions must be importable by worker processes, so
# they live at module level.  The map's state is the parent's PID:
# hazards only fire in child processes, which keeps the parent-side
# serial re-run (the salvage path under test) well behaved.
def _chunk_with_hazards(parent_pid, chunk):
    in_worker = os.getpid() != parent_pid
    out = []
    for item in chunk:
        if item == "hang" and in_worker:
            time.sleep(120)
        if item == "die" and in_worker:
            os._exit(1)
        out.append(f"ok-{item}")
    return out


def _raise_on_x(state, chunk):
    if chunk == ["x"]:
        raise ValueError("boom")
    return chunk


def _die_in_worker_raise_in_parent(parent_pid, chunk):
    if chunk == ["x"]:
        if os.getpid() != parent_pid:
            os._exit(1)  # kill the pool; the chunk becomes a salvage re-run
        raise ValueError("boom")
    return [f"ok-{item}" for item in chunk]


def _tag_items(state, chunk):
    return [(state, item) for item in chunk]


class TestPoolSalvage:
    def test_hung_worker_salvaged_serially(self):
        chunks = [["a"], ["hang"], ["b"], ["c"]]
        with pytest.warns(RuntimeWarning, match="hung worker"):
            results = ordered_chunk_map(
                _chunk_with_hazards, chunks, n_jobs=2,
                state=os.getpid(), chunk_timeout=1.5,
            )
        assert results == [["ok-a"], ["ok-hang"], ["ok-b"], ["ok-c"]]

    def test_dead_worker_salvaged_serially(self):
        chunks = [["a"], ["die"], ["b"]]
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            results = ordered_chunk_map(
                _chunk_with_hazards, chunks, n_jobs=2, state=os.getpid()
            )
        assert results == [["ok-a"], ["ok-die"], ["ok-b"]]
        assert pool._STATE is None

    def test_worker_exception_names_failed_chunk(self):
        """A chunk failure reports which partition died, cause attached."""
        with pytest.raises(
            ChunkFailedError, match=r"chunk 1/2 \(items \[1:2\]\).*boom"
        ) as excinfo:
            ordered_chunk_map(_raise_on_x, [["a"], ["x"]], n_jobs=2, state="inputs")
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert excinfo.value.chunk_index == 1
        assert excinfo.value.item_range == (1, 2)
        assert pool._STATE is None

    def test_serial_salvage_exception_names_failed_chunk(self):
        """Exceptions in the serial salvage re-run carry chunk context."""
        chunks = [["a"], ["x"], ["b"]]
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            with pytest.raises(ChunkFailedError, match=r"chunk 1/3") as excinfo:
                ordered_chunk_map(
                    _die_in_worker_raise_in_parent, chunks, n_jobs=2,
                    state=os.getpid(),
                )
        assert excinfo.value.item_range == (1, 2)

    def test_concurrent_maps_keep_their_own_state(self):
        """Maps started from two threads each see only their own state."""
        results: dict[str, list] = {}

        def run(tag):
            results[tag] = [
                ordered_chunk_map(_tag_items, [[1], [2], [3]], n_jobs=2, state=tag)
                for _ in range(3)
            ]

        threads = [threading.Thread(target=run, args=(tag,)) for tag in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for tag in "ab":
            assert results[tag] == [[[(tag, 1)], [(tag, 2)], [(tag, 3)]]] * 3
        assert pool._STATE is None

    def test_chunk_timeout_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="chunk_timeout"):
            ordered_chunk_map(_raise_on_x, [["a"]], 1, chunk_timeout=0)
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="chunk_timeout"):
            ordered_chunk_map(_raise_on_x, [["a"]], 1)


class TestPoolHelpers:
    def test_effective_jobs(self):
        assert effective_jobs(1) == 1
        assert effective_jobs(3) == 3
        assert effective_jobs(None) >= 1
        assert effective_jobs(0) >= 1
        assert effective_jobs(-1) >= 1
        assert effective_jobs(8, n_items=3) == 3
        assert effective_jobs(2, n_items=0) == 1

    def test_effective_jobs_counts_usable_cpus(self, monkeypatch):
        """``0`` means the CPUs this process may run on, not the host's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert effective_jobs(0) == 1
        assert effective_jobs(None) == 1

    def test_partition_contiguous_and_complete(self):
        items = list(range(11))
        chunks = partition(items, 4)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) == 4
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1
        assert partition(items, 100) == [[i] for i in items]
        assert partition([], 3) == []
