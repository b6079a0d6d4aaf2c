"""Canonical inputs of the end-to-end benchmark, built from one seed.

A separate process builds the inputs once and caches them under
``benchmarks/e2e/.cache/``, keyed by the sha256 of every ``.py`` file
under ``src/repro/`` and ``benchmarks/e2e/`` so that a cached input
never crosses commits.  Two kinds of directory:

* the **canonical** directory (one per scale): ``world.pickle`` is
  ``GeneratorConfig(n_towers, n_weeks, seed=5)`` after
  ``filter_sectors``, ``ForwardFillImputer`` and ``attach_scores``;
  ``registry/`` holds RF-F1 and the Average baseline for horizons
  (1, 3, 7) and w = 7, trained on it at day 21 on 3 days;
  ``manifest.json`` holds the raw world's ``dataset_content_hash`` and
  build times (reported, never compared);
* the **seed** directory (one per scale and seed): ``reference.tsv`` is
  the oracle event stream, one ``hour<TAB>json`` line per event, from a
  plain per-hour ``HotSpotService.ingest_hour`` replay of the seed's
  world with no guard and no checkpoint; ``manifest.json`` holds the
  stream shape and the reference sha256.

The seed's world is the canonical world with its sectors in the order
:func:`sector_order` draws from the seed.  Every seed thus serves the
same sectors, rows and model, so the work per tick, and with it every
timing, does not depend on the seed; the event stream does, because
alerts name sectors by index and rank ties by index.

At most :data:`MAX_CANONICAL` canonical and :data:`MAX_SEEDS` seed
directories are kept, least recently used going first.  Run as a script
it builds one directory::

    python benchmarks/e2e/fixture.py --scale paper --canonical --out DIR
    python benchmarks/e2e/fixture.py --scale paper --seed 5 --canonical-dir DIR --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
CACHE = HERE / ".cache"
MAX_CANONICAL = 2  # ~230 MB each at paper scale
MAX_SEEDS = 64  # ~100 kB each

MODEL = "RF-F1"
BASELINE = "Average"
HORIZONS = (1, 3, 7)
WINDOW = 7
W_MAX = 7  # max(window, 7), as the CLI bootstraps size the ring
TRAIN_DAY = 21
TRAINING_DAYS = 3
TOP_K = 5
CANONICAL_SEED = 5
#: Entropy tag of the sector order, so it shares no stream with the
#: generator's use of the same seed.
SECTOR_ORDER_TAG = 0x5EC7


@dataclass(frozen=True)
class Scale:
    n_towers: int
    n_weeks: int
    n_estimators: int


#: ``paper`` is the canonical world: 394 sectors x 3,024 h, the paper's
#: 18 weeks.  ``smoke`` is the tiny world of the smoke test.
SCALES = {
    "paper": Scale(n_towers=150, n_weeks=18, n_estimators=128),
    "smoke": Scale(n_towers=10, n_weeks=4, n_estimators=8),
}


def source_digest() -> str:
    """sha256 over every ``.py`` file of the library and the benchmark."""
    digest = hashlib.sha256()
    for root in (SRC / "repro", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure(scale: str, seed: int) -> Path:
    """The cached seed directory for *seed*, built by child processes."""
    key = source_digest()[:16]
    canonical = _ensure(CACHE / f"{scale}-canonical-{key}", ["--scale", scale, "--canonical"])
    world = _ensure(
        CACHE / f"{scale}-seed{seed}-{key}",
        ["--scale", scale, "--seed", str(seed), "--canonical-dir", str(canonical)],
    )
    _evict(keep={canonical, world})
    return world


def _ensure(final: Path, args: list[str]) -> Path:
    if not (final / "manifest.json").exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        building = final.with_name(f"{final.name}.building-{os.getpid()}")
        shutil.rmtree(building, ignore_errors=True)
        try:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *args,
                 "--out", str(building)],
                check=True, stdout=sys.stderr,
            )
            try:
                os.rename(building, final)
            except OSError:
                if not (final / "manifest.json").exists():
                    raise  # not a lost race with another process building it
        finally:
            shutil.rmtree(building, ignore_errors=True)
    os.utime(final / "manifest.json")
    return final


def _evict(keep: set[Path]) -> None:
    built = sorted(
        (path for path in CACHE.iterdir() if (path / "manifest.json").exists()),
        key=lambda path: (path / "manifest.json").stat().st_mtime,
    )
    worlds = [path for path in built if (path / "world.pickle").exists()]
    streams = [path for path in built if path not in worlds]
    for group, limit in ((worlds, MAX_CANONICAL), (streams, MAX_SEEDS)):
        for stale in group[: max(0, len(group) - limit)]:
            if stale not in keep:
                shutil.rmtree(stale, ignore_errors=True)


def sector_order(seed: int, n_sectors: int) -> np.ndarray:
    """The seed's sector order: its sector ``i`` is canonical sector ``order[i]``."""
    return np.random.default_rng([SECTOR_ORDER_TAG, seed]).permutation(n_sectors)


def _reorder_rows(array: np.ndarray, order: np.ndarray) -> None:
    """Set ``array[i] = array[order[i]]`` for every row, in place.

    Follows the permutation's cycles with one row held aside, so a
    reordered 200 MB tensor never needs a second copy of itself.
    """
    done = np.zeros(len(order), dtype=bool)
    for start in range(len(order)):
        if done[start]:
            continue
        held = array[start].copy()
        row = start
        while True:
            done[row] = True
            source = int(order[row])
            if source == start:
                array[row] = held
                break
            array[row] = array[source]
            row = source


def reorder_sectors(world, order: np.ndarray) -> None:
    """Put *world*'s sectors in *order*, in place (see ``Dataset.select_sectors``)."""
    arrays = [world.kpis.values, world.kpis.missing, world.geography.positions_km,
              world.geography.tower_ids, world.geography.land_use]
    arrays += [getattr(world, f"{kind}_{scale}")
               for kind in ("score", "labels") for scale in ("hourly", "daily", "weekly")]
    for array in arrays:
        _reorder_rows(array, order)


def _prepare(scale: Scale):
    """The prepared canonical world and its raw content hash."""
    from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
    from repro.data.chunked import dataset_content_hash
    from repro.imputation import ForwardFillImputer

    raw = TelemetryGenerator(
        GeneratorConfig(n_towers=scale.n_towers, n_weeks=scale.n_weeks, seed=CANONICAL_SEED)
    ).generate()
    raw_hash = dataset_content_hash(raw)
    world, _ = filter_sectors(raw)
    del raw
    world.kpis = ForwardFillImputer().fit_transform(world.kpis)
    return attach_scores(world), raw_hash


def build_canonical(scale_name: str, out: Path) -> None:
    """Prepare the canonical world and train the served models; write *out*."""
    from repro.core.experiment import SweepRunner
    from repro.serve import ModelRegistry, train_and_register

    scale = SCALES[scale_name]
    out.mkdir(parents=True)
    times = {}
    start = time.perf_counter()
    world, raw_hash = _prepare(scale)
    times["world_s"] = time.perf_counter() - start
    start = time.perf_counter()
    runner = SweepRunner(
        world, target="hot", n_estimators=scale.n_estimators,
        n_training_days=TRAINING_DAYS, seed=CANONICAL_SEED,
    )
    train_and_register(
        runner, ModelRegistry(out / "registry"), (MODEL, BASELINE),
        TRAIN_DAY, HORIZONS, (WINDOW,),
    )
    times["train_s"] = time.perf_counter() - start
    with open(out / "world.pickle", "wb") as handle:
        pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
    manifest = {
        "scale": scale_name,
        "world_seed": CANONICAL_SEED,
        "training_seed": CANONICAL_SEED,
        "n_estimators": scale.n_estimators,
        "n_sectors": world.n_sectors,
        "raw_content_hash": raw_hash,
        "build_times": times,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def build_seed(scale_name: str, seed: int, canonical_dir: Path, out: Path) -> None:
    """Replay the oracle over the seed's world; write *out*."""
    from repro.serve import (
        HotSpotService,
        ModelRegistry,
        PredictionEngine,
        ServeConfig,
        StreamIngestor,
    )

    out.mkdir(parents=True)
    world = _load_world(canonical_dir, seed)
    start = time.perf_counter()
    service = HotSpotService(
        PredictionEngine(
            StreamIngestor.for_dataset(world, w_max=W_MAX),
            ModelRegistry(canonical_dir / "registry"), model=MODEL, window=WINDOW,
        ),
        ServeConfig(horizons=HORIZONS, start_day=TRAIN_DAY, top_k=TOP_K),
    )
    kpis = world.kpis
    digest = hashlib.sha256()
    with open(out / "reference.tsv", "w", encoding="utf-8") as handle:
        for hour in range(kpis.n_hours):
            for event in service.ingest_hour(
                kpis.values[:, hour, :], kpis.missing[:, hour, :], world.calendar[hour]
            ):
                line = json.dumps(event)
                digest.update(line.encode("utf-8") + b"\n")
                handle.write(f"{hour}\t{line}\n")
    axis = world.time_axis
    manifest = {
        "scale": scale_name,
        "seed": seed,
        "canonical": canonical_dir.name,
        "stream": {
            "n_sectors": world.n_sectors,
            "n_kpis": kpis.n_kpis,
            "n_hours": kpis.n_hours,
            "start_weekday": axis.start_weekday,
            "start_hour": axis.start_hour,
        },
        "reference_sha256": digest.hexdigest(),
        "build_times": {"reference_s": time.perf_counter() - start},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _load_world(canonical_dir: Path, seed: int):
    with open(canonical_dir / "world.pickle", "rb") as handle:
        world = pickle.load(handle)  # written by build_canonical() above
    reorder_sectors(world, sector_order(seed, world.n_sectors))
    return world


def canonical_dir(world_dir: Path, manifest: dict) -> Path:
    """The canonical directory a seed directory was built from."""
    return world_dir.parent / manifest["canonical"]


def registry_dir(world_dir: Path, manifest: dict) -> Path:
    """The registry of the model a seed's reference was replayed with."""
    return canonical_dir(world_dir, manifest) / "registry"


@dataclass
class Fixture:
    """A loaded seed directory."""

    directory: Path
    manifest: dict
    world: object
    reference_hours: list[int]
    reference_lines: list[str]
    load_s: float  # time to load the world into this process

    @property
    def registry_dir(self) -> Path:
        return registry_dir(self.directory, self.manifest)

    @property
    def n_hours(self) -> int:
        return self.manifest["stream"]["n_hours"]

    def reference_until(self, hour: int) -> list[str]:
        """Reference lines emitted by hours ``< hour``."""
        return self.reference_lines[: bisect.bisect_left(self.reference_hours, hour)]


def load(directory: Path) -> Fixture:
    """Read a built seed directory and its canonical world, in the seed's order."""
    manifest = json.loads((directory / "manifest.json").read_text())
    canonical = canonical_dir(directory, manifest)
    manifest["raw_content_hash"] = json.loads(
        (canonical / "manifest.json").read_text()
    )["raw_content_hash"]
    start = time.perf_counter()
    world = _load_world(canonical, manifest["seed"])
    load_s = time.perf_counter() - start
    hours, lines = [], []
    with open(directory / "reference.tsv", encoding="utf-8") as handle:
        for row in handle:
            hour, line = row.rstrip("\n").split("\t", 1)
            hours.append(int(hour))
            lines.append(line)
    return Fixture(directory, manifest, world, hours, lines, load_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Build one end-to-end input directory.")
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--out", type=Path, required=True)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--canonical", action="store_true",
                      help="prepare the canonical world and train the served models")
    what.add_argument("--seed", type=int, help="build this seed's reference stream")
    parser.add_argument("--canonical-dir", type=Path, help="the canonical directory to use")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.canonical:
        build_canonical(args.scale, args.out)
    elif args.canonical_dir is None:
        parser.error("--seed needs --canonical-dir")
    else:
        build_seed(args.scale, args.seed, args.canonical_dir, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
