"""Model persistence keyed by (target, model, horizon, window).

Trained forecasters are flat-array machines (the CART trees store their
nodes in numpy arrays), so persistence follows the same conventions as
:mod:`repro.data.store`: one compressed ``.npz`` archive per model with
a small ``meta_json`` payload.  A forest or a single tree is stored as
member tables: one concatenated array per node field plus per-member
node counts, classes and importances, so an archive holds about a dozen
members whatever the tree count.  Loading slices the tables back into
member trees (views, no copies) and packs a forest for the predict
kernel.  Archives of older builds, with seven arrays per tree, still
load through the same path.  A reloaded model reproduces the in-memory
model's predictions *exactly* — prediction only touches the flattened
node arrays, and float64/int64 round-trip bitwise through npz.

Registry loads sit on the serving path at every cold start: the first
forecast of a service, a gateway or a fleet shard (also after a
restart), and every lifecycle promotion.

:class:`ModelRegistry` adds the serving niceties on top: lazy loading on
first use, a warm-model LRU so a long-running service keeps only the
hot ``(horizon, window)`` combinations in memory, and hit/load/eviction
statistics for the telemetry layer.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.baselines import (
    AverageModel,
    BaselineModel,
    PersistModel,
    RandomModel,
    TrendModel,
)
from repro.core.forecaster import HotSpotForecaster
from repro.data.store import ARCHIVE_DECODE_ERRORS, _atomic_replace, write_json_atomic
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import _LEAF, DecisionTreeClassifier

__all__ = ["ModelKey", "ModelRegistry", "RegistryCorruptError", "train_and_register"]

#: Deserialised models the registry keeps warm (LRU).
_MAX_WARM = 8


class RegistryCorruptError(RuntimeError):
    """A registry archive exists but cannot be deserialised.

    Distinct from :class:`FileNotFoundError` (model never registered) so
    the degraded-mode engine can treat both as "model unavailable" while
    operators see the true cause in the event log.
    """

_BASELINE_FACTORIES = {
    "Random": lambda seed: RandomModel(random_state=seed),
    "Persist": lambda seed: PersistModel(),
    "Average": lambda seed: AverageModel(),
    "Trend": lambda seed: TrendModel(),
}


@dataclass(frozen=True)
class ModelKey:
    """Identity of a registered model.

    Attributes
    ----------
    target:
        ``"hot"`` or ``"become"`` — the forecasting task.
    model:
        Registry model name (``RF-F1``, ``Average``, ...).
    horizon:
        Prediction horizon ``h`` (days) baked into the trained model.
    window:
        Past window ``w`` (days) the model consumes.
    version:
        Optional lifecycle version.  ``None`` is the classic unversioned
        entry (PR 1 serving); versioned entries carry a monotonically
        increasing integer assigned by :meth:`ModelRegistry.save_version`
        and coexist with the unversioned one on disk.
    """

    target: str
    model: str
    horizon: int
    window: int
    version: int | None = None

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.window < 1:
            raise ValueError(
                f"horizon and window must be >= 1, got h={self.horizon}, w={self.window}"
            )
        if self.version is not None and self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        for field_name in ("target", "model"):
            value = getattr(self, field_name)
            if "__" in value or "/" in value:
                raise ValueError(f"{field_name} must not contain '__' or '/': {value!r}")

    @property
    def base(self) -> "ModelKey":
        """The unversioned key this (possibly versioned) key belongs to."""
        if self.version is None:
            return self
        return ModelKey(self.target, self.model, self.horizon, self.window)

    @property
    def stem(self) -> str:
        parts = f"{self.target}__{self.model}__h{self.horizon:03d}__w{self.window:03d}"
        if self.version is not None:
            parts += f"__v{self.version:04d}"
        return parts

    @property
    def filename(self) -> str:
        return f"{self.stem}.npz"

    @classmethod
    def from_filename(cls, name: str) -> "ModelKey":
        stem = name.removesuffix(".npz")
        parts = stem.split("__")
        if len(parts) == 5:
            target, model, h_part, w_part, v_part = parts
            if not v_part.startswith("v"):
                raise ValueError(f"bad version segment in registry name {name!r}")
            version: int | None = int(v_part.removeprefix("v"))
        elif len(parts) == 4:
            target, model, h_part, w_part = parts
            version = None
        else:
            raise ValueError(f"unrecognised registry name {name!r}")
        return cls(
            target=target,
            model=model,
            horizon=int(h_part.removeprefix("h")),
            window=int(w_part.removeprefix("w")),
            version=version,
        )


# ----------------------------------------------------------- member tables
# An ensemble is stored as one table per node field, not as one set of
# arrays per tree.  Every member's nodes are concatenated into
# ``members__<field>``, and ``members__node_count`` gives each member's
# share, so the number of archive members stays the same whatever
# ``n_estimators`` is.  Opening an npz member costs about 100 µs while a
# member tree holds only ~2 KB of nodes, so with arrays per tree the
# member overhead, not the data, would set the load time.  A single
# CART tree is stored as a one-member table.
_NODE_FIELDS = ("feature", "threshold", "left", "right")


def _member_tables(states: list[dict]) -> dict[str, np.ndarray]:
    """Concatenate member states into the ``members__*`` tables.

    Each node's leaf payload is its ``proba`` row over the member's own
    classes, stored flattened.
    """
    tables = {
        "members__node_count": np.array(
            [state["feature"].size for state in states], dtype=np.int64
        ),
        "members__importances": np.stack([state["importances"] for state in states]),
        "members__proba": np.concatenate([np.ravel(state["proba"]) for state in states]),
    }
    for field in _NODE_FIELDS:
        tables[f"members__{field}"] = np.concatenate([state[field] for state in states])
    tables["members__class_count"] = np.array(
        [state["classes"].size for state in states], dtype=np.int64
    )
    tables["members__classes"] = np.concatenate([state["classes"] for state in states])
    return tables


def _read_tables(archive, meta: dict) -> dict[str, np.ndarray]:
    """The member tables of *archive*.

    Archives written before the table layout hold seven arrays per tree
    under ``tree__*`` or ``est{i:03d}__*``; those are gathered into the
    same tables, so every archive goes through one unpack path.
    """
    if "members__node_count" in archive.files:
        return {name: archive[name] for name in archive.files if name.startswith("members__")}
    if meta["inner"] == "tree":
        prefixes = ["tree__"]
    else:
        prefixes = [f"est{i:03d}__" for i in range(int(meta["n_members"]))]
    keys = [*_NODE_FIELDS, "proba", "importances", "classes"]
    states = [{key: archive[f"{prefix}{key}"] for key in keys} for prefix in prefixes]
    return _member_tables(states)


def _expect_shape(tables: dict, name: str, shape: tuple) -> None:
    if tables[name].shape != shape:
        raise ValueError(
            f"{name} has shape {tables[name].shape}, but the member counts "
            f"call for {shape}"
        )


def _member_counts(tables: dict, name: str, n_members: int) -> np.ndarray:
    counts = tables[name]
    if counts.dtype != np.int64 or counts.shape != (n_members,) or (counts < 1).any():
        raise ValueError(
            f"{name} (dtype {counts.dtype}, shape {counts.shape}) does not give "
            f"{n_members} positive member counts"
        )
    return counts


def _cut(column: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Consecutive slices (views) of *column*, one per entry of *lengths*."""
    ends = np.cumsum(lengths).tolist()
    return [column[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def _check_trees(tables: dict, node_count: np.ndarray) -> None:
    """Raise :class:`ValueError` unless each member's nodes form one tree.

    Every node of a member but its root (local index 0) must be the
    child of exactly one internal node of the same member.  A node
    count that shifts a member boundary breaks this even when the counts
    still sum to the table length.
    """
    feature = tables["members__feature"]
    internal = feature != _LEAF
    starts = np.cumsum(node_count) - node_count
    start = np.tile(np.repeat(starts, node_count)[internal], 2)
    size = np.tile(np.repeat(node_count, node_count)[internal], 2)
    child = np.concatenate(
        [tables["members__left"][internal], tables["members__right"][internal]]
    )
    if ((child < 1) | (child >= size)).any():
        raise ValueError("a member's child index points outside its node block")
    expected = np.ones(feature.size, dtype=np.int64)
    expected[starts] = 0
    if not np.array_equal(np.bincount(child + start, minlength=feature.size), expected):
        raise ValueError("the member node counts do not split the tables into trees")


def _split_members(
    tables: dict, n_members: int, n_features: int
) -> list[dict[str, np.ndarray]]:
    """Slice the member tables back into per-member states.

    Every slice is a view into its table; nothing is copied.  Raises
    :class:`ValueError` when a count or the importances matrix disagrees
    with the tables, so a damaged archive never slices into wrong trees.
    """
    node_count = _member_counts(tables, "members__node_count", n_members)
    n_nodes = int(node_count.sum())
    for field in _NODE_FIELDS:
        _expect_shape(tables, f"members__{field}", (n_nodes,))
    _expect_shape(tables, "members__importances", (n_members, n_features))
    _check_trees(tables, node_count)
    class_count = _member_counts(tables, "members__class_count", n_members)
    _expect_shape(tables, "members__classes", (int(class_count.sum()),))
    cells = node_count * class_count
    _expect_shape(tables, "members__proba", (int(cells.sum()),))
    columns = {field: _cut(tables[f"members__{field}"], node_count) for field in _NODE_FIELDS}
    columns["importances"] = list(tables["members__importances"])
    columns["classes"] = _cut(tables["members__classes"], class_count)
    columns["proba"] = [
        block.reshape(rows, width)
        for block, rows, width in zip(
            _cut(tables["members__proba"], cells),
            node_count.tolist(),
            class_count.tolist(),
        )
    ]
    return [
        {key: parts[i] for key, parts in columns.items()} for i in range(n_members)
    ]


# ---------------------------------------------------------- model (de)ser
def _dump_model(model) -> tuple[dict, dict]:
    """Split a trained model into (json-able meta, numpy arrays)."""
    arrays: dict[str, np.ndarray] = {}
    if isinstance(model, BaselineModel):
        meta = {
            "family": "baseline",
            "name": model.name,
            "random_state": getattr(model, "random_state", None),
        }
        return meta, arrays
    if not isinstance(model, HotSpotForecaster):
        raise TypeError(f"cannot persist model of type {type(model).__name__}")

    constant = getattr(model, "_constant", None)
    meta = {
        "family": "forecaster",
        "kind": model.kind,
        "feature_view": model.feature_view,
        "n_estimators": model.n_estimators,
        "n_training_days": model.n_training_days,
        "max_depth": model.max_depth,
        "constant": constant,
    }
    arrays["feature_importances"] = np.asarray(model.feature_importances_)
    fitted = model._model
    if fitted is None:
        if constant is None:
            raise RuntimeError("forecaster is not fitted; nothing to persist")
        return meta, arrays

    if isinstance(fitted, DecisionTreeClassifier):
        meta["inner"] = "tree"
        members = [fitted]
    elif isinstance(fitted, RandomForestClassifier):
        meta["inner"] = "forest"
        members = fitted.estimators_
        arrays["forest__classes"] = fitted.classes_
        arrays["forest__importances"] = np.asarray(fitted.feature_importances_)
    else:
        raise TypeError(f"cannot persist inner model {type(fitted).__name__}")
    meta["n_members"] = len(members)
    meta["n_features"] = int(members[0]._n_features)
    arrays.update(_member_tables([member.to_state() for member in members]))
    return meta, arrays


def _load_model(meta: dict, archive):
    if meta["family"] == "baseline":
        factory = _BASELINE_FACTORIES.get(meta["name"])
        if factory is None:
            raise ValueError(f"unknown baseline {meta['name']!r} in registry entry")
        return factory(meta.get("random_state"))

    forecaster = HotSpotForecaster(
        kind=meta["kind"],
        feature_view=meta["feature_view"],
        n_estimators=meta["n_estimators"],
        n_training_days=meta["n_training_days"],
        max_depth=meta["max_depth"],
    )
    forecaster._constant = meta["constant"]
    forecaster.feature_importances_ = archive["feature_importances"]
    inner = meta.get("inner")
    if inner is None:
        forecaster._model = None
        return forecaster
    if inner not in ("tree", "forest"):
        raise ValueError(f"unknown inner model kind {inner!r} in registry entry")
    n_features = int(meta["n_features"])
    # Archives of older builds carry no n_members for a single tree.
    n_members = int(meta.get("n_members", 1))
    states = _split_members(_read_tables(archive, meta), n_members, n_features)
    trees = [
        DecisionTreeClassifier.from_state({**state, "n_features": n_features})
        for state in states
    ]
    if inner == "tree":
        forecaster._model = trees[0]
        return forecaster
    forest = RandomForestClassifier(n_estimators=n_members)
    forest.classes_ = archive["forest__classes"]
    forest.feature_importances_ = archive["forest__importances"]
    forest.estimators_ = trees
    # Pack eagerly: loaded forests go straight into the warm LRU /
    # serving engines, so every forecast_window hits the packed
    # kernel without a first-call packing stall.
    forest.packed()
    forecaster._model = forest
    return forecaster


class ModelRegistry:
    """On-disk model store with a warm-model LRU cache.

    Parameters
    ----------
    root:
        Directory holding one ``.npz`` archive per registered model.

    At most :data:`_MAX_WARM` deserialised models stay in memory; the
    least recently used one is evicted past that and reloads
    transparently from disk on next use.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._warm: OrderedDict[ModelKey, object] = OrderedDict()
        self.warm_hits = 0
        self.disk_loads = 0
        self.evictions = 0
        self.saves = 0

    def path_for(self, key: ModelKey) -> Path:
        return self.root / key.filename

    def __contains__(self, key: ModelKey) -> bool:
        return key in self._warm or self.path_for(key).exists()

    def keys(self) -> list[ModelKey]:
        """Every key with an archive on disk, sorted by filename."""
        if not self.root.is_dir():
            return []
        out = []
        for path in sorted(self.root.glob("*.npz")):
            try:
                key = ModelKey.from_filename(path.name)
            except (ValueError, TypeError):
                continue  # foreign npz file in the registry directory
            if not zipfile.is_zipfile(path):
                warnings.warn(
                    f"skipping corrupt registry entry '{path}' (not a valid npz "
                    "archive); re-register the model to repair it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            out.append(key)
        return out

    # ----------------------------------------------------------------- io
    def save(self, key: ModelKey, model) -> Path:
        """Persist *model* under *key* and warm the cache with it.

        The archive is written to a temporary file in the registry
        directory and :func:`os.replace`\\ d into place, so a crash
        mid-save never leaves a torn ``.npz`` under a valid key — readers
        see either the old entry or the new one, atomically.
        """
        meta, arrays = _dump_model(model)
        path = self.path_for(key)
        meta_blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with _atomic_replace(path) as handle:
            np.savez_compressed(handle, meta_json=meta_blob, **arrays)
        self.saves += 1
        self._remember(key, model)
        return path

    def load(self, key: ModelKey):
        """Deserialise *key* straight from disk (no cache interaction).

        Raises :class:`FileNotFoundError` when the key was never
        registered and :class:`RegistryCorruptError` when an archive
        exists but cannot be parsed back into a model.
        """
        path = self.path_for(key)
        if not path.exists():
            raise FileNotFoundError(
                f"no registered model for {key} at '{path}'; train and save it first"
            )
        try:
            with np.load(path) as archive:
                meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
                return _load_model(meta, archive)
        except ARCHIVE_DECODE_ERRORS as error:
            raise RegistryCorruptError(
                f"corrupt registry entry for {key} at '{path}': {error}"
            ) from error

    def get(self, key: ModelKey):
        """The model for *key*: warm if cached, lazily loaded otherwise."""
        if key in self._warm:
            self._warm.move_to_end(key)
            self.warm_hits += 1
            return self._warm[key]
        model = self.load(key)
        self.disk_loads += 1
        self._remember(key, model)
        return model

    def _remember(self, key: ModelKey, model) -> None:
        self._warm[key] = model
        self._warm.move_to_end(key)
        while len(self._warm) > _MAX_WARM:
            self._warm.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------ versions
    def provenance_path_for(self, key: ModelKey) -> Path:
        return self.root / f"{key.stem}.provenance.json"

    def versions(self, key: ModelKey) -> list[int]:
        """Sorted on-disk version numbers registered under *key*'s base."""
        base = key.base
        out = []
        pattern = f"{base.stem}__v*.npz"
        if not self.root.is_dir():
            return out
        for path in self.root.glob(pattern):
            try:
                candidate = ModelKey.from_filename(path.name)
            except (ValueError, TypeError):
                continue
            if candidate.version is not None and candidate.base == base:
                out.append(candidate.version)
        return sorted(out)

    def next_version(self, key: ModelKey) -> int:
        """The next unused (monotonically increasing) version for *key*."""
        versions = self.versions(key)
        return versions[-1] + 1 if versions else 1

    def save_version(
        self,
        key: ModelKey,
        model,
        provenance: dict | None = None,
        version: int | None = None,
    ) -> ModelKey:
        """Persist *model* as a new (or explicit) version of *key*.

        Without *version* the next free number is assigned; passing one
        makes the write idempotent — a lifecycle controller re-running a
        deterministic retrain after a crash overwrites the orphaned
        archive with identical content instead of minting a stray
        version.  The *provenance* dict (train window, seed, feature
        set, parent version, ...) is persisted atomically alongside the
        archive as ``<stem>.provenance.json``.  Returns the versioned
        key.
        """
        resolved = self.next_version(key) if version is None else int(version)
        versioned = ModelKey(
            key.target, key.model, key.horizon, key.window, version=resolved
        )
        self.save(versioned, model)
        record = dict(provenance or {})
        record.setdefault("version", resolved)
        record.setdefault("target", key.target)
        record.setdefault("model", key.model)
        record.setdefault("horizon", key.horizon)
        record.setdefault("window", key.window)
        write_json_atomic(self.provenance_path_for(versioned), record)
        return versioned

    def provenance(self, key: ModelKey) -> dict | None:
        """The provenance sidecar for *key*, or None when absent."""
        path = self.provenance_path_for(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as error:
            raise RegistryCorruptError(
                f"corrupt provenance sidecar for {key} at '{path}': {error}"
            ) from error

    def history(self, key: ModelKey) -> list[tuple[ModelKey, dict | None]]:
        """Every version of *key*'s base with its provenance, ascending."""
        base = key.base
        out: list[tuple[ModelKey, dict | None]] = []
        for version in self.versions(key):
            versioned = ModelKey(
                base.target, base.model, base.horizon, base.window, version=version
            )
            out.append((versioned, self.provenance(versioned)))
        return out

    def evict_all(self) -> None:
        """Drop every warm model (they reload from disk on demand)."""
        self._warm.clear()

    def stats(self) -> dict:
        """Cache statistics snapshot for the telemetry layer."""
        return {
            "warm_models": len(self._warm),
            "max_warm": _MAX_WARM,
            "warm_hits": self.warm_hits,
            "disk_loads": self.disk_loads,
            "evictions": self.evictions,
            "saves": self.saves,
        }


def train_and_register(
    runner,
    registry: ModelRegistry,
    model_names: tuple[str, ...],
    t_day: int,
    horizons: tuple[int, ...],
    windows: tuple[int, ...],
    overwrite: bool = False,
    n_jobs: int | None = 1,
) -> list[ModelKey]:
    """Train sweep-cell models and persist them into *registry*.

    *runner* is a :class:`repro.core.experiment.SweepRunner`; each
    ``(model, horizon, window)`` combination is trained at day *t_day*
    via :meth:`~repro.core.experiment.SweepRunner.train_cell` and saved
    under ``ModelKey(runner.target, model, horizon, window)``.  Existing
    entries are kept unless *overwrite* is set.  Returns the keys now
    present for the requested grid.  *n_jobs* parallelises the member
    tree fitting of each forest model across processes; the persisted
    archives are identical for any value.
    """
    keys: list[ModelKey] = []
    for model_name in model_names:
        for window in windows:
            for horizon in horizons:
                key = ModelKey(runner.target, model_name, horizon, window)
                if overwrite or key not in registry:
                    model = runner.train_cell(
                        model_name, t_day, horizon, window, n_jobs=n_jobs
                    )
                    registry.save(key, model)
                keys.append(key)
    return keys
