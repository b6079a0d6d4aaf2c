"""The (model, t, h, w) experiment sweep (paper Table III, Sec. V).

:class:`SweepGrid` captures the four swept variables.  The paper's grid
is ``t in {52..87}``, ``h in {1,2,3,4,5,7,8,10,12,14,16,19,22,26,29}``,
``w in {1,2,3,5,7,10,14,21}`` over all eight models;
:meth:`SweepGrid.paper` returns exactly that, and :meth:`SweepGrid.small`
a subsampled grid for laptop-scale benches.

:class:`SweepRunner` executes the sweep on a scored dataset: it builds
the feature tensor once, runs every requested combination, and records
one :class:`ExperimentResult` per evaluation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.baselines import (
    AverageModel,
    BaselineModel,
    PersistModel,
    RandomModel,
    TrendModel,
)
from repro.core.evaluation import EvaluationResult, evaluate_ranking
from repro.core.features import FeatureTensor, build_feature_tensor
from repro.core.forecaster import MODEL_REGISTRY, make_model
from repro.core.labels import become_hot_labels
from repro.core.scoring import ScoreConfig
from repro.data.dataset import Dataset
from repro.parallel.pool import (
    PoolUnavailable,
    effective_jobs,
    flatten,
    ordered_chunk_map,
    partition,
)

__all__ = ["SweepGrid", "ExperimentResult", "SweepRunner", "BASELINE_NAMES", "ALL_MODEL_NAMES"]

BASELINE_NAMES = ("Random", "Persist", "Average", "Trend")
ALL_MODEL_NAMES = BASELINE_NAMES + tuple(MODEL_REGISTRY)

PAPER_HORIZONS = (1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29)
PAPER_WINDOWS = (1, 2, 3, 5, 7, 10, 14, 21)


@dataclass(frozen=True)
class SweepGrid:
    """The swept variable values (paper Table III).

    Attributes
    ----------
    models:
        Model names from :data:`ALL_MODEL_NAMES`.
    t_days:
        Forecast days ``t``.
    horizons:
        Prediction horizons ``h`` (days).
    windows:
        Past window lengths ``w`` (days).
    """

    models: tuple[str, ...]
    t_days: tuple[int, ...]
    horizons: tuple[int, ...]
    windows: tuple[int, ...]

    def __post_init__(self) -> None:
        unknown = [m for m in self.models if m not in ALL_MODEL_NAMES]
        if unknown:
            raise ValueError(f"unknown models: {unknown}; valid: {ALL_MODEL_NAMES}")
        if not self.t_days or not self.horizons or not self.windows:
            raise ValueError("t_days, horizons, and windows must be non-empty")
        if min(self.horizons) < 1 or min(self.windows) < 1:
            raise ValueError("horizons and windows must be >= 1")

    @classmethod
    def paper(cls) -> "SweepGrid":
        """The full grid of paper Table III."""
        return cls(
            models=ALL_MODEL_NAMES,
            t_days=tuple(range(52, 88)),
            horizons=PAPER_HORIZONS,
            windows=PAPER_WINDOWS,
        )

    @classmethod
    def small(
        cls,
        models: tuple[str, ...] = ALL_MODEL_NAMES,
        n_t: int = 4,
        horizons: tuple[int, ...] = (1, 3, 5, 7, 8, 10, 14, 15, 19, 22, 26, 29),
        windows: tuple[int, ...] = (7,),
        t_min: int = 52,
        t_max: int = 87,
    ) -> "SweepGrid":
        """A subsampled grid; defaults preserve the paper's t range."""
        t_days = tuple(int(t) for t in np.linspace(t_min, t_max, n_t).round())
        return cls(models=models, t_days=t_days, horizons=horizons, windows=windows)

    @property
    def n_combinations(self) -> int:
        return (
            len(self.models) * len(self.t_days) * len(self.horizons) * len(self.windows)
        )

    def cells(self) -> Iterator[tuple[str, int, int, int]]:
        """Every (model, t, h, w) cell in canonical sweep order.

        This is the single source of cell ordering: the serial loop and
        the parallel executor both enumerate it, which is what makes
        their result lists row-for-row identical.
        """
        for model_name in self.models:
            for window in self.windows:
                for horizon in self.horizons:
                    for t_day in self.t_days:
                        yield model_name, t_day, horizon, window


@dataclass(frozen=True)
class ExperimentResult:
    """One sweep cell: the evaluation of (model, t, h, w)."""

    model: str
    t_day: int
    horizon: int
    window: int
    target: str
    evaluation: EvaluationResult

    def as_row(self) -> dict:
        """Flat dictionary for persistence/printing."""
        return {
            "model": self.model,
            "t": self.t_day,
            "h": self.horizon,
            "w": self.window,
            "target": self.target,
            "psi": self.evaluation.average_precision,
            "lift": self.evaluation.lift,
            "n_sectors": self.evaluation.n_sectors,
            "n_positive": self.evaluation.n_positive,
        }


class SweepRunner:
    """Execute a sweep over a scored, imputation-complete dataset.

    Parameters
    ----------
    dataset:
        A dataset with scores attached and a complete KPI tensor.
    target:
        ``"hot"`` for the 'be a hot spot' task (targets = ``Y^d``) or
        ``"become"`` for the 'become a hot spot' task.
    score_config:
        Scoring configuration (for the feature tensor and the 'become'
        threshold); defaults match :func:`repro.core.scoring.attach_scores`.
    n_estimators, n_training_days:
        Passed to the classifier models.
    seed:
        Master seed; every (model, t, h, w) cell gets a derived stream.
    n_jobs:
        Default worker-process count for :meth:`run`: 1 stays serial,
        0/None uses every core, negative counts back from the core
        count.  Any value produces identical results (see DESIGN.md's
        determinism contract); the runner degrades to the serial loop
        when the host cannot fork worker processes.
    """

    def __init__(
        self,
        dataset: Dataset,
        target: str = "hot",
        score_config: ScoreConfig | None = None,
        n_estimators: int = 20,
        n_training_days: int = 6,
        seed: int = 0,
        n_jobs: int | None = 1,
    ) -> None:
        if target not in ("hot", "become"):
            raise ValueError(f"target must be 'hot' or 'become', got {target!r}")
        dataset.require_scores()
        self.dataset = dataset
        self.target = target
        self.score_config = score_config or ScoreConfig()
        self.n_estimators = n_estimators
        self.n_training_days = n_training_days
        self.seed = seed
        self.n_jobs = n_jobs

        self.features: FeatureTensor = build_feature_tensor(dataset, self.score_config)
        self.score_daily = dataset.score_daily
        self.labels_daily = dataset.labels_daily
        if target == "hot":
            self.targets_daily = np.asarray(dataset.labels_daily, dtype=np.int64)
        else:
            self.targets_daily = np.asarray(
                become_hot_labels(
                    dataset.score_daily, self.score_config.hotspot_threshold
                ),
                dtype=np.int64,
            )

    # ------------------------------------------------------------------ run
    def run(
        self,
        grid: SweepGrid,
        progress: bool = False,
        n_jobs: int | None = None,
    ) -> list[ExperimentResult]:
        """Run every grid combination; returns one result per cell.

        Cells whose evaluation day has no positive target labels yield a
        result with NaN psi/lift (``evaluation.defined`` is False);
        aggregation helpers skip them.

        *n_jobs* overrides the constructor's worker count for this call.
        Because every cell derives its own CRC32 seed, the parallel path
        returns exactly the rows the serial loop would; progress lines
        go to stderr so stdout stays machine-parseable.
        """
        jobs = effective_jobs(
            self.n_jobs if n_jobs is None else n_jobs, grid.n_combinations
        )
        if jobs > 1:
            # Several chunks per worker smooth over uneven cell costs
            # (forest cells dwarf baseline cells) without giving up
            # contiguity, so concatenating chunk results keeps grid order.
            try:
                return flatten(
                    ordered_chunk_map(
                        _run_cell_chunk,
                        partition(list(grid.cells()), jobs * 4),
                        jobs,
                        state=self,
                        on_chunk_done=_report_progress if progress else None,
                    )
                )
            except PoolUnavailable:
                pass  # degrade to the serial loop below

        results: list[ExperimentResult] = []
        total = grid.n_combinations
        for done, (model_name, t_day, horizon, window) in enumerate(grid.cells(), 1):
            results.append(self.run_cell(model_name, t_day, horizon, window))
            if progress and done % 50 == 0:
                _report_progress(done, total)
        return results

    def run_cell(
        self, model_name: str, t_day: int, horizon: int, window: int
    ) -> ExperimentResult:
        """Evaluate a single (model, t, h, w) combination."""
        target_day = t_day + horizon
        if target_day >= self.targets_daily.shape[1]:
            raise IndexError(
                f"target day {target_day} beyond the {self.targets_daily.shape[1]} "
                "available days"
            )
        cell_seed = self._cell_seed(model_name, t_day, horizon, window)
        scores = self._forecast(model_name, t_day, horizon, window, cell_seed)
        evaluation = evaluate_ranking(scores, self.targets_daily[:, target_day])
        return ExperimentResult(
            model=model_name,
            t_day=t_day,
            horizon=horizon,
            window=window,
            target=self.target,
            evaluation=evaluation,
        )

    def _cell_seed(self, model_name: str, t_day: int, horizon: int, window: int) -> int:
        """Deterministic per-cell seed derived from the master seed.

        Uses CRC32 rather than ``hash()`` so seeds are stable across
        processes (Python randomises string hashing per process).
        """
        import zlib

        key = f"{self.seed}|{model_name}|{t_day}|{horizon}|{window}".encode()
        return zlib.crc32(key) % (2**31)

    def train_cell(
        self,
        model_name: str,
        t_day: int,
        horizon: int,
        window: int,
        n_jobs: int | None = 1,
    ):
        """Fit and return the model of one sweep cell, without evaluating.

        The returned model is what :meth:`run_cell` trains internally —
        same derived per-cell seed, same Eq. 7 training protocol — so its
        forecasts reproduce the sweep's exactly.  Baselines are stateless
        and are returned ready to use.  The serving layer uses this to
        export trained models into a :class:`repro.serve.ModelRegistry`
        instead of discarding them after evaluation.  *n_jobs* fans the
        member-tree fitting of forest models out over worker processes
        (the trained model is identical for any value).
        """
        cell_seed = self._cell_seed(model_name, t_day, horizon, window)
        return self._fit_cell_model(
            model_name, t_day, horizon, window, cell_seed, n_jobs=n_jobs
        )

    def _fit_cell_model(
        self,
        model_name: str,
        t_day: int,
        horizon: int,
        window: int,
        seed: int,
        n_jobs: int | None = 1,
    ):
        if model_name in BASELINE_NAMES:
            return self._make_baseline(model_name, seed)
        model = make_model(
            model_name,
            n_estimators=self.n_estimators,
            n_training_days=self.n_training_days,
            random_state=seed,
            n_jobs=n_jobs,
        )
        model.fit(self.features, self.targets_daily, t_day, horizon, window)
        return model

    def _forecast(
        self, model_name: str, t_day: int, horizon: int, window: int, seed: int
    ) -> np.ndarray:
        model = self._fit_cell_model(model_name, t_day, horizon, window, seed)
        if isinstance(model, BaselineModel):
            return model.forecast(
                self.score_daily, self.labels_daily, t_day, horizon, window
            )
        return model.forecast(self.features, t_day, window)

    @staticmethod
    def _make_baseline(name: str, seed: int) -> BaselineModel:
        if name == "Random":
            return RandomModel(random_state=seed)
        if name == "Persist":
            return PersistModel()
        if name == "Average":
            return AverageModel()
        return TrendModel()


def _report_progress(done: int, total: int) -> None:
    print(f"  sweep progress: {done}/{total}", file=sys.stderr)


def _run_cell_chunk(
    runner: SweepRunner, cells: list[tuple[str, int, int, int]]
) -> list[ExperimentResult]:
    """Evaluate one contiguous chunk of grid cells (a pool work item)."""
    return [runner.run_cell(*cell) for cell in cells]


def mean_lift_by(
    results: list[ExperimentResult], key: str
) -> dict[tuple[str, int], dict[str, float]]:
    """Aggregate mean lift (with CI) per (model, key value).

    *key* is one of ``"h"``, ``"w"``, ``"t"``.  Returns a mapping from
    ``(model, value)`` to the summary of
    :func:`repro.core.evaluation.summarize_lifts`.
    """
    from collections import defaultdict

    from repro.core.evaluation import summarize_lifts

    attr = {"h": "horizon", "w": "window", "t": "t_day"}[key]
    groups: dict[tuple[str, int], list] = defaultdict(list)
    for result in results:
        groups[(result.model, getattr(result, attr))].append(result.evaluation)
    return {cell: summarize_lifts(evals) for cell, evals in groups.items()}
