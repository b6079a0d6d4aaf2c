"""Persistence for datasets and experiment results.

Everything is stored as compressed ``.npz`` archives so that generated
telemetry and long sweep results can be cached between runs.  The format
is deliberately simple and self-describing: one archive per object, with
array entries named after the :class:`~repro.data.dataset.Dataset` fields
plus small metadata arrays.
"""

from __future__ import annotations

import json
import os
import tempfile
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.data.dataset import Dataset, SectorGeography
from repro.data.tensor import KPITensor, TimeAxis

__all__ = [
    "CorruptStoreError",
    "save_dataset",
    "load_dataset",
    "save_result_table",
    "load_result_table",
    "write_json_atomic",
    # Chunked / memory-mapped store (implemented in repro.data.chunked,
    # re-exported here lazily so `data.store` stays the single façade).
    "save_dataset_chunked",
    "open_dataset_mmap",
]

# Names served lazily from repro.data.chunked via module __getattr__
# (PEP 562) — a plain top-level import would be circular, since the
# chunked store builds on write_json_atomic/CorruptStoreError below.
_CHUNKED_EXPORTS = frozenset(
    {
        "save_dataset_chunked",
        "open_dataset_mmap",
        "ChunkedDatasetWriter",
        "verify_chunked_dataset",
        "dataset_content_hash",
        "load_manifest",
        "MANIFEST_NAME",
    }
)


def __getattr__(name: str):
    if name in _CHUNKED_EXPORTS:
        from repro.data import chunked

        return getattr(chunked, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CorruptStoreError(RuntimeError):
    """A dataset archive, chunk, manifest, or result table is damaged.

    Raised instead of the raw numpy/zipfile/json traceback so callers
    (and the CLI) can tell "the file is broken" apart from "the file is
    absent" (:class:`FileNotFoundError`) and report it in one line.
    """


#: What reading a damaged npz archive raises: zip structure
#: (``BadZipFile``, including a member's CRC-32 mismatch, and
#: ``NotImplementedError`` for a garbled compression method), the deflate
#: stream (``zlib.error``), the ``.npy`` header (``ValueError``,
#: ``TypeError`` for a garbled dtype, ``tokenize.TokenError``), a short
#: read (``EOFError``) and a missing member (``KeyError``).  The dataset
#: store and the model registry map these onto their corrupt-archive
#: errors.
ARCHIVE_DECODE_ERRORS = (
    zipfile.BadZipFile,
    NotImplementedError,
    zlib.error,
    ValueError,
    TypeError,
    tokenize.TokenError,
    EOFError,
    KeyError,
)


@contextmanager
def _atomic_replace(path: Path, text: bool = False, sync: bool = False):
    """Yield a temp-file handle that is renamed onto *path* on success.

    The one atomic writer behind every durable file (JSON state, dataset
    and model archives, checkpoint snapshots): a same-directory temp
    file plus ``os.replace``, so readers only ever see the previous
    contents or the complete new ones, never a torn file.  With *sync*
    the temp file is fsync'd before the rename (crash-durable, one disk
    sync per write).  On any failure the temp file is removed and *path*
    is left untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        if text:
            handle = os.fdopen(fd, "w", encoding="utf-8")
        else:
            handle = os.fdopen(fd, "wb")
        with handle:
            yield handle
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise

_OPTIONAL_FIELDS = (
    "score_hourly",
    "score_daily",
    "score_weekly",
    "labels_hourly",
    "labels_daily",
    "labels_weekly",
)


def _with_npz_suffix(path: Path) -> Path:
    """Append ``.npz`` unless the name already ends with it.

    Appending to the *name* (rather than ``Path.with_suffix``) keeps
    dotted stems predictable: ``out/data`` -> ``out/data.npz`` and
    ``out/data.v2`` -> ``out/data.v2.npz``.
    """
    if path.suffix == ".npz":
        return path
    return path.parent / (path.name + ".npz")


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Serialise *dataset* to a compressed npz archive at *path*.

    The archive is written to a same-directory temp file and
    :func:`os.replace`d into place, so a crash (or ``kill -9``) mid-save
    can never leave a torn archive at *path* — readers see either the
    previous dataset or the new one.  Returns the written path (with
    ``.npz`` suffix appended if absent).
    """
    path = _with_npz_suffix(Path(path))
    meta = {
        "kpi_names": dataset.kpis.kpi_names,
        "start_weekday": dataset.time_axis.start_weekday,
        "start_hour": dataset.time_axis.start_hour,
    }
    arrays: dict[str, np.ndarray] = {
        "kpi_values": dataset.kpis.values,
        "kpi_missing": dataset.kpis.missing,
        "positions_km": dataset.geography.positions_km,
        "tower_ids": dataset.geography.tower_ids,
        "land_use": dataset.geography.land_use,
        "calendar": dataset.calendar,
        "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    for name in _OPTIONAL_FIELDS:
        value = getattr(dataset, name)
        if value is not None:
            arrays[name] = value
    with _atomic_replace(path) as handle:
        np.savez_compressed(handle, **arrays)
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`.

    Accepts the same path forms :func:`save_dataset` does: if *path*
    itself does not exist, the ``.npz``-suffixed variant is tried, so a
    ``save_dataset(ds, "out/data")`` / ``load_dataset("out/data")`` pair
    round-trips.  A *directory* path is dispatched to
    :func:`~repro.data.chunked.open_dataset_mmap`, so every consumer of
    ``load_dataset`` (CLI ``--data`` included) transparently accepts
    chunked stores.  Raises a plain :class:`FileNotFoundError` (not a
    numpy traceback) when nothing exists at *path*, and
    :class:`CorruptStoreError` when an archive is present but damaged.
    """
    path = Path(path)
    if path.is_dir():
        from repro.data.chunked import open_dataset_mmap

        return open_dataset_mmap(path)
    if not path.exists():
        candidate = _with_npz_suffix(path)
        if candidate != path and candidate.exists():
            path = candidate
        else:
            tried = f"'{path}'" if candidate == path else f"'{path}' or '{candidate}'"
            raise FileNotFoundError(
                f"no dataset found at {tried}; run 'hotspot-repro generate' "
                "or save_dataset() first"
            )
    try:
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            n_hours = archive["kpi_values"].shape[1]
            tensor = KPITensor(
                values=archive["kpi_values"],
                missing=archive["kpi_missing"],
                kpi_names=list(meta["kpi_names"]),
                time_axis=TimeAxis(
                    n_hours=n_hours,
                    start_weekday=int(meta["start_weekday"]),
                    start_hour=int(meta["start_hour"]),
                ),
            )
            geography = SectorGeography(
                positions_km=archive["positions_km"],
                tower_ids=archive["tower_ids"],
                land_use=archive["land_use"],
            )
            optional = {
                name: archive[name]
                for name in _OPTIONAL_FIELDS
                if name in archive.files
            }
            return Dataset(
                kpis=tensor,
                geography=geography,
                calendar=archive["calendar"],
                **optional,
            )
    except ARCHIVE_DECODE_ERRORS as error:
        raise CorruptStoreError(
            f"dataset archive '{path}' is corrupt or truncated ({error}); "
            "regenerate it with 'hotspot-repro generate' or save_dataset()"
        ) from error


def write_json_atomic(path: str | Path, payload: dict, sync: bool = False) -> Path:
    """Write *payload* as JSON via a temp file and :func:`os.replace`.

    Readers see either the previous contents or the new ones, never a
    torn file — the property the checkpoint metadata, model provenance
    sidecars, and lifecycle state journal all rely on.  *sync* is
    :func:`_atomic_replace`'s fsync-before-rename flag.  The document
    is compact (no indentation) and encoded in one call to the C
    encoder, then written at once: ``json.dump`` with ``indent`` would
    run the pure-Python encoder and write it piece by piece.
    """
    path = Path(path)
    text = json.dumps(payload, sort_keys=True)
    with _atomic_replace(path, text=True, sync=sync) as handle:
        handle.write(text)
    return path


def save_result_table(rows: list[dict], path: str | Path) -> Path:
    """Persist a list of flat result dictionaries as JSON lines.

    Experiment sweeps (paper Table III) produce one row per
    ``(model, t, h, w)`` combination.  JSON lines keeps them diffable and
    streamable.  Written atomically (temp file + rename), like
    :func:`save_dataset`.
    """
    path = Path(path)
    with _atomic_replace(path, text=True) as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def load_result_table(path: str | Path) -> list[dict]:
    """Load rows previously written by :func:`save_result_table`.

    Raises a plain :class:`FileNotFoundError` when the table is absent
    and :class:`CorruptStoreError` (with the offending line number) when
    a present file contains broken JSON — never a raw traceback.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(
            f"no result table found at '{path}'; run 'hotspot-repro sweep' "
            "or save_result_table() first"
        )
    rows: list[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise CorruptStoreError(
                    f"result table '{path}' is corrupt at line {line_no} "
                    f"({error.msg}); re-run the sweep that produced it"
                ) from error
    return rows
