"""Tests for repro.data.dataset and repro.data.store."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GeneratorConfig, TelemetryGenerator
from repro.data.dataset import Dataset, SectorGeography
from repro.data.store import (
    CorruptStoreError,
    load_dataset,
    load_result_table,
    save_dataset,
    save_result_table,
)


class TestSectorGeography:
    def _geo(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
        return SectorGeography(
            positions_km=positions,
            tower_ids=np.array([0, 0, 1, 2]),
            land_use=np.array([0, 0, 1, 5]),
        )

    def test_distances(self):
        geo = self._geo()
        dist = geo.distances_from(0)
        np.testing.assert_allclose(dist, [0.0, 0.0, 5.0, 10.0])

    def test_select(self):
        geo = self._geo().select(np.array([2, 3]))
        assert geo.n_sectors == 2
        np.testing.assert_array_equal(geo.tower_ids, [1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            SectorGeography(
                positions_km=np.zeros((3, 3)),
                tower_ids=np.zeros(3, int),
                land_use=np.zeros(3, int),
            )
        with pytest.raises(ValueError):
            SectorGeography(
                positions_km=np.zeros((3, 2)),
                tower_ids=np.zeros(2, int),
                land_use=np.zeros(3, int),
            )


class TestDataset:
    def test_generated_dataset_consistent(self, small_dataset):
        data = small_dataset
        assert data.calendar.shape == (data.kpis.n_hours, 5)
        assert data.geography.n_sectors == data.n_sectors
        assert not data.has_scores

    def test_require_scores_raises_before_attach(self, small_dataset):
        with pytest.raises(RuntimeError):
            small_dataset.require_scores()

    def test_select_sectors_propagates(self, scored_dataset):
        subset = scored_dataset.select_sectors(np.arange(5))
        assert subset.n_sectors == 5
        assert subset.score_daily.shape[0] == 5
        assert subset.labels_weekly.shape[0] == 5

    def test_calendar_validation(self, small_dataset):
        with pytest.raises(ValueError):
            Dataset(
                kpis=small_dataset.kpis,
                geography=small_dataset.geography,
                calendar=small_dataset.calendar[:-1],
            )


class TestStore:
    def test_roundtrip_raw(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "data")
        assert path.suffix == ".npz"
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.kpis.missing, small_dataset.kpis.missing)
        observed = ~small_dataset.kpis.missing
        np.testing.assert_allclose(
            loaded.kpis.values[observed], small_dataset.kpis.values[observed]
        )
        assert loaded.kpis.kpi_names == small_dataset.kpis.kpi_names
        assert loaded.time_axis.start_weekday == small_dataset.time_axis.start_weekday
        np.testing.assert_array_equal(
            loaded.geography.land_use, small_dataset.geography.land_use
        )

    def test_roundtrip_scored(self, scored_dataset, tmp_path):
        path = save_dataset(scored_dataset, tmp_path / "scored.npz")
        loaded = load_dataset(path)
        assert loaded.has_scores
        np.testing.assert_allclose(loaded.score_daily, scored_dataset.score_daily)
        np.testing.assert_array_equal(loaded.labels_daily, scored_dataset.labels_daily)

    def test_suffix_added_when_missing(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "data")
        assert path.name == "data.npz"
        # Both the bare and the suffixed spelling load it back.
        assert load_dataset(tmp_path / "data").n_sectors == small_dataset.n_sectors
        assert load_dataset(path).n_sectors == small_dataset.n_sectors

    def test_dotted_stem_round_trips(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "data.v2")
        assert path.name == "data.v2.npz"
        assert load_dataset(tmp_path / "data.v2").n_sectors == small_dataset.n_sectors

    def test_missing_file_clean_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no dataset found"):
            load_dataset(tmp_path / "absent")
        with pytest.raises(FileNotFoundError, match="hotspot-repro generate"):
            load_dataset(tmp_path / "absent.npz")

    def test_result_table_roundtrip(self, tmp_path):
        rows = [
            {"model": "RF-R", "t": 60, "lift": 5.5},
            {"model": "Average", "t": 60, "lift": 4.2},
        ]
        path = save_result_table(rows, tmp_path / "results.jsonl")
        assert load_result_table(path) == rows

    def test_result_table_empty(self, tmp_path):
        path = save_result_table([], tmp_path / "empty.jsonl")
        assert load_result_table(path) == []


class TestAtomicWrites:
    """Torn-write regressions: a crash mid-save must never damage the
    previously committed file, and must not leave temp debris behind."""

    def test_interrupted_save_keeps_old_dataset(
        self, small_dataset, tmp_path, monkeypatch
    ):
        path = save_dataset(small_dataset, tmp_path / "data.npz")
        before = path.read_bytes()

        import repro.data.store as store_mod

        def exploding_savez(handle, **arrays):
            handle.write(b"half a zip archive")  # partial bytes, then crash
            raise KeyboardInterrupt

        monkeypatch.setattr(store_mod.np, "savez_compressed", exploding_savez)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(small_dataset, path)
        assert path.read_bytes() == before  # old archive untouched
        assert not list(tmp_path.glob("*.tmp"))
        assert load_dataset(path).n_sectors == small_dataset.n_sectors

    def test_interrupted_result_table_keeps_old_rows(self, tmp_path, monkeypatch):
        rows = [{"model": "RF-R", "lift": 5.5}]
        path = save_result_table(rows, tmp_path / "results.jsonl")

        import repro.data.store as store_mod

        def exploding_dumps(row, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(store_mod.json, "dumps", exploding_dumps)
        with pytest.raises(KeyboardInterrupt):
            save_result_table([{"model": "other"}], path)
        monkeypatch.undo()
        assert load_result_table(path) == rows
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptStores:
    def test_truncated_npz_is_corrupt_not_traceback(self, small_dataset, tmp_path):
        path = save_dataset(small_dataset, tmp_path / "data.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptStoreError, match="corrupt or truncated"):
            load_dataset(path)

    def test_single_byte_flips_load_equal_or_raise_corrupt(self, tmp_path):
        dataset = TelemetryGenerator(GeneratorConfig(n_towers=2, n_weeks=1, seed=3)).generate()
        path = save_dataset(dataset, tmp_path / "data.npz")
        blob = path.read_bytes()
        rng = np.random.default_rng(24)
        corrupt = 0
        for _ in range(200):
            damaged = bytearray(blob)
            damaged[int(rng.integers(len(blob)))] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(damaged))
            try:
                loaded = load_dataset(path)
            except CorruptStoreError:
                corrupt += 1
                continue
            np.testing.assert_array_equal(loaded.kpis.values, dataset.kpis.values)
            np.testing.assert_array_equal(loaded.kpis.missing, dataset.kpis.missing)
            assert loaded.kpis.kpi_names == dataset.kpis.kpi_names
            assert loaded.time_axis == dataset.time_axis
            np.testing.assert_array_equal(loaded.calendar, dataset.calendar)
            for name in ("positions_km", "tower_ids", "land_use"):
                np.testing.assert_array_equal(
                    getattr(loaded.geography, name), getattr(dataset.geography, name)
                )
        assert corrupt > 0

    def test_garbage_npz_is_corrupt(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CorruptStoreError, match="hotspot-repro generate"):
            load_dataset(path)

    def test_result_table_missing_file_friendly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="hotspot-repro sweep"):
            load_result_table(tmp_path / "absent.jsonl")

    def test_result_table_corrupt_line_reported(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorruptStoreError, match="line 2"):
            load_result_table(path)
