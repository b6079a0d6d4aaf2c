"""Batched online prediction from ring-buffer state.

:class:`PredictionEngine` ties the serving pieces together: it feeds
hourly ticks into a :class:`~repro.serve.ingest.StreamIngestor`, pulls
trained models lazily from a :class:`~repro.serve.registry.ModelRegistry`,
and answers ``predict(horizon)`` by assembling the Eq. 5 feature window
directly from the ring buffers — no batch feature-tensor construction,
no re-running of the offline pipeline.

Predictions are cached per ``(t_day, model, model-version, horizon,
window)``.  Within a day the ring state backing a forecast cannot
change (forecasts are made from *complete* days), so repeated queries
are O(1) dictionary hits.  Two things invalidate: **day rollover clears
everything**, and **an active-version swap**
(:meth:`PredictionEngine.set_active_version`, or an explicit
:meth:`~PredictionEngine.invalidate`) clears everything too — the
version lives in the cache key as well, so even a missed invalidation
can never serve a stale champion's forecasts for a promoted model.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import BaselineModel
from repro.core.feature_sets import percentile_features
from repro.serve.ingest import IngestTick, StreamIngestor
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.telemetry import ServeTelemetry

__all__ = ["PredictionEngine"]


class PredictionEngine:
    """Serve hot-spot forecasts from incrementally ingested KPI state.

    Parameters
    ----------
    ingestor:
        The hourly ingestion state machine (ring buffers + histories).
    registry:
        Trained-model store; models load lazily on first use.
    target:
        Forecasting task the served models were trained for.
    model:
        Default model name used when ``predict`` gets none.
    window:
        Default past window ``w`` (days); must fit the ingestor's ring.
    telemetry:
        Shared telemetry sink; a private one is created if omitted.
    """

    def __init__(
        self,
        ingestor: StreamIngestor,
        registry: ModelRegistry,
        target: str = "hot",
        model: str = "RF-F1",
        window: int = 7,
        telemetry: ServeTelemetry | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if window > ingestor.w_max:
            raise ValueError(
                f"default window {window} exceeds the ingestor's w_max {ingestor.w_max}"
            )
        self.ingestor = ingestor
        self.registry = registry
        self.target = target
        self.default_model = model
        self.default_window = window
        self.telemetry = telemetry or ServeTelemetry()
        self._cache: dict[tuple[int, str, int | None, int, int], np.ndarray] = {}
        # Design matrices shared across horizons: every horizon's model
        # for the same name applies the same feature view to the same
        # window, so the (usually expensive) view runs once per day.
        self._design_cache: dict[tuple[int, int, str], np.ndarray] = {}
        # Per-day Eq. 5 percentile blocks.  A completed day's ring
        # columns never change, so its (n, channels * 5) percentile
        # block is computed once ever and windows are assembled by
        # concatenation instead of re-reducing w days of hours.
        self._day_pct: dict[int, np.ndarray] = {}
        # Lifecycle pins: model name -> registry version served for it.
        # Unpinned names resolve to the unversioned registry entry, the
        # PR 1 behaviour.
        self._active_versions: dict[str, int | None] = {}

    # ---------------------------------------------------------- versioning
    def active_version(self, model_name: str | None = None) -> int | None:
        """The registry version currently served for *model_name*."""
        return self._active_versions.get(model_name or self.default_model)

    def set_active_version(self, model_name: str, version: int | None) -> None:
        """Pin *model_name* to a registry *version* and drop the cache.

        ``None`` unpins back to the unversioned entry.  The cache clear
        makes the swap take effect immediately — within the same day —
        rather than at the next rollover.
        """
        if version is not None and version < 1:
            raise ValueError(f"version must be >= 1 or None, got {version}")
        previous = self._active_versions.get(model_name)
        self._active_versions[model_name] = version
        if previous != version:
            self.invalidate()
            self.telemetry.inc("model_swaps")

    def invalidate(self) -> None:
        """Explicitly drop every cached forecast."""
        if self._cache:
            self.telemetry.inc("cache_invalidations")
        self._cache.clear()

    # ------------------------------------------------------------- ingest
    def ingest_hour(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_row: np.ndarray | None = None,
    ) -> IngestTick:
        """Ingest one hourly sample; clears the cache on day rollover."""
        with self.telemetry.timer("ingest_seconds"):
            tick = self.ingestor.ingest_hour(values, missing, calendar_row)
        self.telemetry.inc("ingest_ticks")
        if tick.day_completed:
            self._roll_day()
            self.telemetry.inc("days_completed")
        if tick.week_completed:
            self.telemetry.inc("weeks_completed")
        return tick

    def ingest_block(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_rows: np.ndarray | None = None,
    ) -> list[IngestTick]:
        """Ingest a micro-batch of consecutive hours as one array op.

        Delegates to :meth:`StreamIngestor.ingest_block` (bitwise equal
        to per-hour ingestion) and applies the same cache/telemetry
        bookkeeping per completed period.  Callers that emit per-day
        events (the service layer) must split their blocks at day
        boundaries themselves; at engine level a mid-block rollover
        only means the day cache is cleared before the next predict.
        """
        with self.telemetry.timer("ingest_seconds"):
            ticks = self.ingestor.ingest_block(values, missing, calendar_rows)
        self.telemetry.inc("ingest_ticks", len(ticks))
        for tick in ticks:
            if tick.day_completed:
                self._roll_day()
                self.telemetry.inc("days_completed")
            if tick.week_completed:
                self.telemetry.inc("weeks_completed")
        return ticks

    def _roll_day(self) -> None:
        """Day rollover: drop forecast/design caches, prune day blocks."""
        self._cache.clear()
        self._design_cache.clear()
        oldest = self.ingestor.last_complete_day - self.ingestor.w_max
        if oldest > 0:
            for day in [d for d in self._day_pct if d < oldest]:
                del self._day_pct[day]

    # ------------------------------------------------------------ predict
    @property
    def t_day(self) -> int:
        """The day forecasts are currently made at (last complete day)."""
        return self.ingestor.last_complete_day

    def predict(
        self,
        horizon: int,
        model: str | None = None,
        window: int | None = None,
        sector_ids: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """Hot-spot scores for day ``t_day + horizon``.

        Returns one ranking score per requested sector (all sectors when
        *sector_ids* is omitted), computed by the registered model for
        ``(target, model, horizon, window)`` from the current ring
        state.  Scores for the full network are cached per
        ``(t_day, model, horizon, window)``, so slicing different
        *sector_ids* out of the same forecast costs O(len(ids)).
        """
        model_name = model or self.default_model
        window = self.default_window if window is None else window
        t_day = self.t_day
        if t_day < 0:
            raise RuntimeError("no complete day ingested yet; cannot forecast")
        cache_key = (
            t_day, model_name, self._active_versions.get(model_name), horizon, window
        )
        scores = self._cache.get(cache_key)
        if scores is None:
            self.telemetry.inc("cache_misses")
            with self.telemetry.timer("predict_seconds"):
                scores, cacheable = self._compute_entry(
                    model_name, t_day, horizon, window
                )
            if cacheable:
                # Freeze the cached array and hand it out without
                # copying: cache hits are zero-allocation, and any
                # caller that tries to mutate a served forecast fails
                # loudly instead of silently corrupting the cache.
                scores.flags.writeable = False
                self._cache[cache_key] = scores
        else:
            self.telemetry.inc("cache_hits")
        self.telemetry.inc("predictions_served")
        if sector_ids is not None:
            # Fancy indexing materialises a fresh, writable slice.
            return scores[np.asarray(sector_ids)]
        return scores

    def _compute_entry(
        self, model_name: str, t_day: int, horizon: int, window: int
    ) -> tuple[np.ndarray, bool]:
        """Compute a forecast plus a *cacheable* flag.

        The flag is the seam the resilience layer overrides: a degraded
        (fallback) forecast returns ``False`` so it is served but never
        cached, and the registry is re-consulted on the next refresh.
        """
        return self._compute(model_name, t_day, horizon, window), True

    def _compute(
        self, model_name: str, t_day: int, horizon: int, window: int
    ) -> np.ndarray:
        key = ModelKey(
            self.target, model_name, horizon, window,
            version=self._active_versions.get(model_name),
        )
        model = self.registry.get(key)
        if isinstance(model, BaselineModel):
            return np.asarray(
                model.forecast(
                    self.ingestor.score_daily,
                    self.ingestor.labels_daily,
                    t_day,
                    horizon,
                    window,
                ),
                dtype=np.float64,
            )
        design = self._design(model, t_day, window)
        return np.asarray(model.forecast_design(design), dtype=np.float64)

    def _design(self, model, t_day: int, window: int) -> np.ndarray:
        """Design matrix for *model* at ``(t_day, window)``, cached per view.

        For the Eq. 5 percentile view the matrix is assembled from
        per-day percentile blocks — its columns are day-major, so
        concatenating the single-day reductions is bitwise equal to
        reducing the full window at once, and a completed day's block
        never needs recomputing.
        """
        key = (t_day, window, model.feature_view)
        design = self._design_cache.get(key)
        if design is None:
            self.telemetry.inc("design_cache_misses")
            if model.feature_view == "percentiles" and t_day - window + 1 >= 0:
                design = np.concatenate(
                    [
                        self._day_percentiles(day)
                        for day in range(t_day - window + 1, t_day + 1)
                    ],
                    axis=1,
                )
            else:
                design = model.build_design(
                    self.ingestor.feature_window(t_day, window)
                )
            design.flags.writeable = False
            self._design_cache[key] = design
        else:
            self.telemetry.inc("design_cache_hits")
        return design

    def _day_percentiles(self, day: int) -> np.ndarray:
        """The ``(n, channels * 5)`` percentile block for one complete day."""
        block = self._day_pct.get(day)
        if block is None:
            block = percentile_features(self.ingestor.feature_window(day, 1))
            block.flags.writeable = False
            self._day_pct[day] = block
        return block

    # -------------------------------------------------------------- stats
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def stats(self) -> dict:
        """Telemetry + cache + registry snapshot."""
        snapshot = self.telemetry.stats()
        snapshot["cache"] = {"entries": len(self._cache), "t_day": self.t_day}
        snapshot["registry"] = self.registry.stats()
        return snapshot
