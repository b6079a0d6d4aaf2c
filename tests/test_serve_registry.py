"""Model registry: exact persistence round-trips and warm-cache behaviour."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import BaselineModel
from repro.core.experiment import ALL_MODEL_NAMES, BASELINE_NAMES, SweepRunner
from repro.core.features import build_feature_tensor
from repro.serve import ModelKey, ModelRegistry, RegistryCorruptError, train_and_register

T_DAY, HORIZON, WINDOW = 100, 3, 7

#: Archives in the per-tree layout (seven arrays per tree), written by
#: ``ModelRegistry.save`` before the member-table layout (commit 7918b7e)
#: from the ``runner`` fixture's Tree, RF-F1, GBT and Average cells at
#: (T_DAY, HORIZON, WINDOW).  GBT (gradient-boosted trees) has since been
#: retired; its archive stays to pin how a model of no known kind fails.
LEGACY_REGISTRY = Path(__file__).parent / "data" / "legacy_registry"

_PACKED_ARRAYS = ("feature", "threshold", "left", "right", "proba", "roots", "classes")


@pytest.fixture(scope="module")
def runner(scored_dataset):
    return SweepRunner(
        scored_dataset, target="hot", n_estimators=3, n_training_days=3, seed=13
    )


@pytest.fixture(scope="module")
def features(scored_dataset):
    return build_feature_tensor(scored_dataset)


def assert_same_forecasts(trained, reloaded, scored_dataset, features):
    if isinstance(trained, BaselineModel):
        args = (
            scored_dataset.score_daily,
            scored_dataset.labels_daily,
            T_DAY,
            HORIZON,
            WINDOW,
        )
        np.testing.assert_array_equal(trained.forecast(*args), reloaded.forecast(*args))
    else:
        np.testing.assert_array_equal(
            trained.forecast(features, T_DAY, WINDOW),
            reloaded.forecast(features, T_DAY, WINDOW),
        )


def assert_same_packing(trained_forest, reloaded_forest):
    expected, found = trained_forest.packed(), reloaded_forest.packed()
    for name in _PACKED_ARRAYS:
        a, b = getattr(expected, name), getattr(found, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (found.n_features, found.n_estimators) == (
        expected.n_features,
        expected.n_estimators,
    )


class TestModelKey:
    def test_filename_roundtrip(self):
        key = ModelKey("hot", "RF-F1", 7, 21)
        assert key.filename == "hot__RF-F1__h007__w021.npz"
        assert ModelKey.from_filename(key.filename) == key

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon and window"):
            ModelKey("hot", "RF-F1", 0, 7)
        with pytest.raises(ValueError, match="must not contain"):
            ModelKey("hot", "bad__name", 1, 7)
        with pytest.raises(ValueError, match="must not contain"):
            ModelKey("a/b", "RF-F1", 1, 7)


class TestExactRoundTrip:
    @pytest.mark.parametrize("model_name", ALL_MODEL_NAMES)
    def test_reloaded_model_reproduces_forecasts(
        self, model_name, runner, features, scored_dataset, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", model_name, HORIZON, WINDOW)
        trained = runner.train_cell(model_name, T_DAY, HORIZON, WINDOW)
        registry.save(key, trained)
        reloaded = registry.load(key)
        assert isinstance(reloaded, BaselineModel) == (model_name in BASELINE_NAMES)
        assert_same_forecasts(trained, reloaded, scored_dataset, features)

    def test_reloaded_forecaster_matches_on_other_days(
        self, runner, features, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", "RF-F1", HORIZON, WINDOW)
        trained = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        registry.save(key, trained)
        reloaded = registry.load(key)
        for t_day in (80, 110, 120):
            np.testing.assert_array_equal(
                trained.forecast(features, t_day, WINDOW),
                reloaded.forecast(features, t_day, WINDOW),
            )

    def test_baseline_random_state_persists(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", "Random", HORIZON, WINDOW)
        trained = runner.train_cell("Random", T_DAY, HORIZON, WINDOW)
        registry.save(key, trained)
        reloaded = registry.load(key)
        assert isinstance(reloaded, BaselineModel)
        assert reloaded.random_state == trained.random_state


class TestArchiveLayout:
    """Member tables: one array per node field, not seven per tree."""

    KEY = ModelKey("hot", "RF-F1", HORIZON, WINDOW)

    def test_member_count_does_not_grow_with_trees(self, scored_dataset, tmp_path):
        n_files = []
        for n_trees in (3, 30):
            runner = SweepRunner(
                scored_dataset, target="hot", n_estimators=n_trees, n_training_days=3, seed=13
            )
            model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
            assert len(model._model.estimators_) == n_trees
            path = ModelRegistry(tmp_path / str(n_trees)).save(self.KEY, model)
            with np.load(path) as archive:
                n_files.append(len(archive.files))
        assert n_files[0] == n_files[1]

    @pytest.mark.parametrize("model_name", ["Tree", "RF-F1", "Average"])
    def test_old_archive_loads_bitwise(
        self, model_name, runner, features, scored_dataset
    ):
        key = ModelKey("hot", model_name, HORIZON, WINDOW)
        with np.load(LEGACY_REGISTRY / key.filename) as archive:
            assert not any(name.startswith("members__") for name in archive.files)
        reloaded = ModelRegistry(LEGACY_REGISTRY).load(key)
        trained = runner.train_cell(model_name, T_DAY, HORIZON, WINDOW)
        assert type(reloaded) is type(trained)
        assert_same_forecasts(trained, reloaded, scored_dataset, features)
        if model_name == "RF-F1":
            assert_same_packing(trained._model, reloaded._model)

    def test_retired_gbt_archive_raises_corrupt(self):
        key = ModelKey("hot", "GBT", HORIZON, WINDOW)
        with pytest.raises(RegistryCorruptError) as raised:
            ModelRegistry(LEGACY_REGISTRY).load(key)
        assert "GBT" in str(raised.value) and "boosting" in str(raised.value)

    def test_new_archive_packs_like_the_trained_forest(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        trained = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        registry.save(self.KEY, trained)
        assert_same_packing(trained._model, registry.load(self.KEY)._model)

    @staticmethod
    def _reverse_node_counts(arrays):
        counts = arrays["members__node_count"]
        assert not np.array_equal(counts, counts[::-1])
        arrays["members__node_count"] = counts[::-1].copy()

    @staticmethod
    def _shift_one_node(arrays):
        arrays["members__node_count"][:2] += (1, -1)

    @staticmethod
    def _short_node_count(arrays):
        arrays["members__node_count"][0] -= 1

    @staticmethod
    def _extra_class(arrays):
        arrays["members__class_count"][0] += 1

    @staticmethod
    def _missing_importances_row(arrays):
        arrays["members__importances"] = arrays["members__importances"][:-1]

    @pytest.mark.parametrize(
        "tamper",
        ["_reverse_node_counts", "_shift_one_node", "_short_node_count",
         "_extra_class", "_missing_importances_row"],
    )
    def test_counts_disagreeing_with_tables_raise_corrupt(self, tamper, runner, tmp_path):
        """A well-formed archive whose counts do not fit its tables never
        slices into wrong trees."""
        registry = ModelRegistry(tmp_path)
        path = registry.save(self.KEY, runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW))
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        getattr(self, tamper)(arrays)
        np.savez_compressed(path, **arrays)
        with pytest.raises(RegistryCorruptError, match="corrupt registry entry"):
            registry.load(self.KEY)

    def test_single_byte_flips_load_equal_or_raise_corrupt(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        trained = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        path = registry.save(self.KEY, trained)
        blob = path.read_bytes()
        rng = np.random.default_rng(24)
        corrupt = 0
        for _ in range(300):
            damaged = bytearray(blob)
            damaged[int(rng.integers(len(blob)))] ^= int(rng.integers(1, 256))
            path.write_bytes(bytes(damaged))
            try:
                reloaded = registry.load(self.KEY)
            except RegistryCorruptError:
                corrupt += 1
                continue
            assert_same_packing(trained._model, reloaded._model)
        assert corrupt > 0


class TestRegistry:
    def test_missing_model_clean_error(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(FileNotFoundError, match="no registered model"):
            registry.load(ModelKey("hot", "RF-F1", 1, 7))

    def test_contains_and_keys(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", "Average", 1, 7)
        assert key not in registry
        registry.save(key, runner.train_cell("Average", T_DAY, 1, 7))
        assert key in registry
        # A cold registry (fresh instance, same directory) also sees it.
        assert key in ModelRegistry(tmp_path)
        # Foreign npz files in the directory are skipped, not fatal.
        np.savez(tmp_path / "not-a-model.npz", data=np.arange(3))
        assert ModelRegistry(tmp_path).keys() == [key]

    def test_warm_lru_eviction(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = runner.train_cell("Average", T_DAY, 1, 7)
        keys = [ModelKey("hot", "Average", h, 7) for h in range(1, 10)]
        for key in keys:
            registry.save(key, model)
        stats = registry.stats()
        assert stats["warm_models"] == stats["max_warm"] == 8
        assert stats["evictions"] == 1
        assert stats["saves"] == 9
        # keys[0] was evicted: getting it is a disk load, not a warm hit.
        registry.get(keys[0])
        assert registry.stats()["disk_loads"] == 1
        registry.get(keys[0])
        assert registry.stats()["warm_hits"] == 1

    def test_evict_all_reloads_from_disk(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", "Persist", 1, 7)
        registry.save(key, runner.train_cell("Persist", T_DAY, 1, 7))
        registry.evict_all()
        assert registry.stats()["warm_models"] == 0
        registry.get(key)
        assert registry.stats()["disk_loads"] == 1


class TestTrainAndRegister:
    def test_grid_registered_once(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        keys = train_and_register(
            runner, registry, ("Average", "Persist"), T_DAY, (1, 2), (7,)
        )
        assert len(keys) == 4
        assert all(key in registry for key in keys)
        assert registry.stats()["saves"] == 4
        # Second call without overwrite trains/saves nothing new.
        again = train_and_register(
            runner, registry, ("Average", "Persist"), T_DAY, (1, 2), (7,)
        )
        assert again == keys
        assert registry.stats()["saves"] == 4


class TestCrashSafety:
    """Atomic saves and corrupt-entry handling (RegistryCorruptError)."""

    def save_one(self, runner, root, model_name="Average"):
        registry = ModelRegistry(root)
        key = ModelKey("hot", model_name, HORIZON, WINDOW)
        registry.save(key, runner.train_cell(model_name, T_DAY, HORIZON, WINDOW))
        return registry, key

    def test_save_leaves_no_temp_files(self, runner, tmp_path):
        registry, key = self.save_one(runner, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [key.filename]

    def test_failed_save_cleans_up_temp_file(self, runner, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path)
        key = ModelKey("hot", "Average", HORIZON, WINDOW)

        def broken_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.serve.registry.np.savez_compressed", broken_savez
        )
        with pytest.raises(OSError, match="disk full"):
            registry.save(key, runner.train_cell("Average", T_DAY, HORIZON, WINDOW))
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_raises_registry_corrupt(self, runner, tmp_path):
        registry, key = self.save_one(runner, tmp_path)
        registry.path_for(key).write_bytes(b"this is not an npz archive")
        registry.evict_all()
        with pytest.raises(RegistryCorruptError, match="corrupt registry entry"):
            registry.get(key)
        # Distinct from a model that was never registered at all.
        with pytest.raises(FileNotFoundError):
            registry.load(ModelKey("hot", "Persist", HORIZON, WINDOW))

    def test_keys_skips_corrupt_entries_with_warning(self, runner, tmp_path):
        registry, good_key = self.save_one(runner, tmp_path)
        bad_key = ModelKey("hot", "Persist", HORIZON, WINDOW)
        registry.path_for(bad_key).write_bytes(b"torn mid-write")
        with pytest.warns(RuntimeWarning, match="corrupt registry entry"):
            keys = registry.keys()
        assert keys == [good_key]


class TestVersionedEntries:
    """Lifecycle versioning: monotonic numbers, provenance sidecars."""

    KEY = ModelKey("hot", "RF-F1", HORIZON, WINDOW)

    def test_versioned_filename_roundtrip(self):
        versioned = ModelKey("hot", "RF-F1", 7, 21, version=4)
        assert versioned.filename == "hot__RF-F1__h007__w021__v0004.npz"
        assert ModelKey.from_filename(versioned.filename) == versioned
        assert versioned.base == ModelKey("hot", "RF-F1", 7, 21)
        assert versioned.base.version is None

    def test_version_validation(self):
        with pytest.raises(ValueError, match="version"):
            ModelKey("hot", "RF-F1", 1, 7, version=0)
        with pytest.raises(ValueError, match="version segment"):
            ModelKey.from_filename("hot__RF-F1__h001__w007__x0004.npz")
        with pytest.raises(ValueError):
            ModelKey.from_filename("hot__RF-F1__h001__w007__vXYZ.npz")

    def test_save_version_is_monotonic(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        assert registry.versions(self.KEY) == []
        assert registry.next_version(self.KEY) == 1
        first = registry.save_version(self.KEY, model)
        second = registry.save_version(self.KEY, model)
        assert (first.version, second.version) == (1, 2)
        assert registry.versions(self.KEY) == [1, 2]
        # The unversioned entry coexists and is not counted.
        registry.save(self.KEY, model)
        assert registry.versions(self.KEY) == [1, 2]

    def test_explicit_version_overwrites_idempotently(
        self, runner, features, tmp_path
    ):
        """Re-minting the same number (the crash re-processing path)
        overwrites the archive instead of leaking a stray version."""
        registry = ModelRegistry(tmp_path)
        model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        registry.save_version(self.KEY, model, {"seed": 1}, version=1)
        registry.save_version(self.KEY, model, {"seed": 1}, version=1)
        assert registry.versions(self.KEY) == [1]
        registry.evict_all()
        newest = registry.versions(self.KEY)[-1]
        reloaded = registry.load(ModelKey("hot", "RF-F1", HORIZON, WINDOW, version=newest))
        np.testing.assert_array_equal(
            model.forecast(features, T_DAY, WINDOW),
            reloaded.forecast(features, T_DAY, WINDOW),
        )

    def test_provenance_sidecar(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        versioned = registry.save_version(
            self.KEY, model, {"trigger": "drift", "seed": 42, "parent_version": None}
        )
        record = registry.provenance(versioned)
        assert record["trigger"] == "drift"
        assert record["seed"] == 42
        assert record["parent_version"] is None
        # Identity fields are filled in automatically.
        assert record["version"] == versioned.version
        assert record["model"] == "RF-F1"
        assert record["target"] == "hot"
        assert (record["horizon"], record["window"]) == (HORIZON, WINDOW)
        assert registry.provenance(self.KEY) is None  # unversioned: no sidecar

    def test_history_pairs_versions_with_provenance(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        registry.save_version(self.KEY, model, {"trigger": "drift"})
        registry.save_version(self.KEY, model, {"trigger": "cadence"})
        history = registry.history(self.KEY)
        assert [key.version for key, _ in history] == [1, 2]
        assert [rec["trigger"] for _, rec in history] == ["drift", "cadence"]
        # history() accepts a versioned key too: same base, same answer.
        assert registry.history(history[0][0]) == history

    def test_latest_empty_and_corrupt_sidecar(self, runner, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.versions(self.KEY) == []
        model = runner.train_cell("RF-F1", T_DAY, HORIZON, WINDOW)
        versioned = registry.save_version(self.KEY, model)
        registry.provenance_path_for(versioned).write_text("{torn", encoding="utf-8")
        with pytest.raises(RegistryCorruptError, match="provenance"):
            registry.provenance(versioned)
