"""Incremental hourly KPI ingestion over fixed-capacity ring buffers.

:class:`StreamIngestor` is the online counterpart of the batch scoring
pipeline: KPIs arrive one hour at a time, per-sector rolling state lives
in ring buffers bounded by ``w_max`` days, and every score and label the
batch pipeline computes is maintained incrementally.

**Parity contract.**  Replaying a dataset hour-by-hour reproduces the
batch pipeline *bitwise*:

* hourly scores equal :func:`repro.core.scoring.hourly_score` because
  the per-tick computation applies the identical thresholding, and with
  integral weights (the defaults) every order of the weighted sum is
  exact; other weights reduce the same KPI axis, which matches where
  both sides reduce it contiguously;
* daily/weekly scores equal :func:`repro.core.scoring.integrate_score`
  because each completed period is averaged from a contiguous 24- or
  168-element accumulator — the same reduction the batch reshape-mean
  performs;
* the trailing daily/weekly feature channels equal
  :func:`repro.core.scoring.trailing_mean` because the ingestor keeps a
  running cumulative sum (floating-point accumulation order identical to
  ``np.cumsum``) and forms the same ``(cs[j] - cs[j - w]) / w``
  differences;
* consequently :meth:`StreamIngestor.feature_window` is bitwise equal to
  ``build_feature_tensor(...).window(t_day, w)`` on the same data.

The ring holds raw KPI values, missing masks, calendar rows, hourly
scores/labels, and the precomputed trailing channels for the last
``capacity_hours`` hours.  Daily and weekly score/label *histories* are
kept in full (they grow by one ``(n,)`` column per day/week — a few KB
per day even at production sector counts) because the baseline models
and the alerting layer address arbitrary past days.

**Columnar micro-batches.**  :meth:`StreamIngestor.ingest_block`
ingests a contiguous ``(n_sectors, n_hours, n_kpis)`` block in a
handful of array operations — Eq. 1 scoring over the whole block, one
``np.cumsum`` extending the running total (the same left-to-right
accumulation order as the per-hour path, see the parity contract),
Eq. 3 trailing means, and per-day-segment accumulator writes — and is
*bitwise identical* to calling :meth:`~StreamIngestor.ingest_hour`
once per hour.  ``ingest_hour`` is in fact implemented as the
block-size-1 case.  A chunk never crosses the ring's end, so ring
writes and lookbacks are basic slices rather than index-array
gathers.  The ring itself is the persistent Eq. 5 feature ring (the
assembled channel columns per slot, written incrementally), so
:meth:`~StreamIngestor.feature_window` is a single read instead of
a six-array concatenation per forecast; the per-channel rings
(``values``, ``calendar``, ``score_hourly``, the trailing channels) are
column views into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.scoring import ScoreConfig
from repro.data.dataset import Dataset
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK

__all__ = ["IngestTick", "StreamIngestor", "default_calendar_row"]


def default_calendar_row(
    hour: int,
    start_weekday: int = 0,
    start_hour: int = 0,
    start_day_of_month: int = 1,
) -> np.ndarray:
    """Best-effort 5-element calendar row for a global *hour* index.

    Derives (hour-of-day, day-of-week, a 31-day day-of-month cycle,
    weekend flag, holiday = 0) from the given time-axis anchors — the
    row :meth:`StreamIngestor.ingest_hour` synthesises when the caller
    supplies none.  Exposed as a module function so layers that own no
    ingestor (the fleet coordinator's gap-fill synthesis) derive the
    identical row.
    """
    hour_of_day = (hour + start_hour) % HOURS_PER_DAY
    day = (hour + start_hour) // HOURS_PER_DAY
    day_of_week = (day + start_weekday) % 7
    day_of_month = (day + start_day_of_month - 1) % 31 + 1
    return np.array(
        [
            float(hour_of_day),
            float(day_of_week),
            float(day_of_month),
            1.0 if day_of_week >= 5 else 0.0,
            0.0,
        ]
    )


@dataclass(frozen=True)
class IngestTick:
    """Outcome of one hourly ingest step.

    Attributes
    ----------
    hour:
        Global zero-based hour index of the ingested sample.
    day:
        Day index this hour belongs to.
    day_completed, week_completed:
        True when this hour closed a 24 h / 168 h period (daily/weekly
        scores and labels were appended to the histories).
    t_day:
        Index of the last *complete* day after this tick (-1 before the
        first full day) — the day forecasts can be made "at".
    """

    hour: int
    day: int
    day_completed: bool
    week_completed: bool
    t_day: int


class _History:
    """Column-appendable ``(n, m)`` matrix with amortised doubling."""

    def __init__(self, n_rows: int, dtype=np.float64, capacity: int = 64) -> None:
        self._data = np.zeros((n_rows, capacity), dtype=dtype)
        self.n_cols = 0

    def append(self, column: np.ndarray) -> None:
        if self.n_cols == self._data.shape[1]:
            grown = np.zeros(
                (self._data.shape[0], 2 * self._data.shape[1]), dtype=self._data.dtype
            )
            grown[:, : self.n_cols] = self._data[:, : self.n_cols]
            self._data = grown
        self._data[:, self.n_cols] = column
        self.n_cols += 1

    @property
    def view(self) -> np.ndarray:
        """Read-only-by-convention view of the appended columns."""
        return self._data[:, : self.n_cols]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "_History":
        """A history whose appended columns equal *matrix* exactly."""
        history = cls(matrix.shape[0], dtype=matrix.dtype,
                      capacity=max(64, matrix.shape[1]))
        history._data[:, : matrix.shape[1]] = matrix
        history.n_cols = matrix.shape[1]
        return history


class StreamIngestor:
    """Hourly ingestion with per-sector rolling KPI state.

    Parameters
    ----------
    n_sectors:
        Number of sectors in the network.
    n_kpis:
        KPI channels per sector; defaults to (and must match) the score
        configuration's channel count.
    score_config:
        Weights/thresholds used for incremental scoring; defaults match
        :func:`repro.core.scoring.attach_scores`.
    w_max:
        Largest forecast window (days) the ring must be able to serve.
    capacity_hours:
        Ring capacity override; defaults to ``w_max`` days, raised to at
        least ``168 + 24`` hours so the weekly trailing mean always finds
        its lookback sample before the ring wraps.
    start_weekday, start_hour, start_day_of_month:
        Time-axis anchors used only to derive default calendar rows when
        :meth:`ingest_hour` is called without one.
    """

    def __init__(
        self,
        n_sectors: int,
        n_kpis: int | None = None,
        score_config: ScoreConfig | None = None,
        w_max: int = 21,
        capacity_hours: int | None = None,
        start_weekday: int = 0,
        start_hour: int = 0,
        start_day_of_month: int = 1,
    ) -> None:
        if n_sectors < 1:
            raise ValueError(f"n_sectors must be >= 1, got {n_sectors}")
        if w_max < 1:
            raise ValueError(f"w_max must be >= 1, got {w_max}")
        config = score_config or ScoreConfig()
        if n_kpis is None:
            n_kpis = config.n_kpis
        if n_kpis != config.n_kpis:
            raise ValueError(
                f"score config covers {config.n_kpis} KPIs, ingestor asked for {n_kpis}"
            )
        minimum = HOURS_PER_WEEK + HOURS_PER_DAY
        capacity = capacity_hours or max(w_max * HOURS_PER_DAY, minimum)
        if capacity < minimum:
            raise ValueError(
                f"capacity_hours must be >= {minimum} (one week of trailing-mean "
                f"lookback plus one day), got {capacity}"
            )
        self.config = config
        self.w_max = w_max
        self.capacity = int(capacity)
        self.start_weekday = start_weekday
        self.start_hour = start_hour
        self.start_day_of_month = start_day_of_month
        self._weights = np.asarray(config.weights, dtype=np.float64)
        self._thresholds = np.asarray(config.thresholds, dtype=np.float64)
        self._weight_sum = config.weight_sum
        self._threshold = config.hotspot_threshold
        # Integral weights make every partial sum of Eq. 1 an exact
        # float64 integer, so any summation order (a BLAS dot product
        # included) gives the bits of the batch pipeline's sum.
        self._exact_weights = (
            all(float(w).is_integer() for w in config.weights)
            and self._weight_sum < 2.0**53
        )

        n, cap, l = n_sectors, self.capacity, n_kpis
        # Ring-buffered hourly state (slot = hour % capacity).  The Eq. 5
        # feature ring holds the assembled channel columns of every slot
        # (KPIs | calendar | S^h | S^d | S^w | Y^d), so feature_window()
        # is one gather; the per-channel rings are column views into it,
        # never second copies.  Unfilled KPI slots read NaN.
        self._features = np.zeros((n, cap, l + 9))
        self._features[:, :, :l] = np.nan
        self.values = self._features[:, :, :l]
        #: Sector 0's calendar columns: every sector holds the same rows.
        self.calendar = self._features[0, :, l : l + 5]
        self.score_hourly = self._features[:, :, l + 5]
        self.trail_daily = self._features[:, :, l + 6]
        self.trail_weekly = self._features[:, :, l + 7]
        self.trail_label = self._features[:, :, l + 8]
        self.missing = np.ones((n, cap, l), dtype=bool)
        self.labels_hourly = np.zeros((n, cap), dtype=np.int8)
        self._cumsum = np.zeros((n, cap))
        self._running_total = np.zeros(n)
        # Contiguous per-period accumulators (see parity contract).
        self._day_scores = np.zeros((n, HOURS_PER_DAY))
        self._week_scores = np.zeros((n, HOURS_PER_WEEK))
        # Full daily/weekly histories.
        self._score_daily = _History(n)
        self._labels_daily = _History(n, dtype=np.int8)
        self._score_weekly = _History(n)
        self._labels_weekly = _History(n, dtype=np.int8)
        self.hours_seen = 0

    # ------------------------------------------------------------- shape
    @property
    def n_sectors(self) -> int:
        return self.values.shape[0]

    @property
    def n_kpis(self) -> int:
        return self.values.shape[2]

    @property
    def last_complete_day(self) -> int:
        """Index of the last fully ingested day (-1 before the first)."""
        return self.hours_seen // HOURS_PER_DAY - 1

    @property
    def score_daily(self) -> np.ndarray:
        """Daily scores ``S^d`` so far, shape ``(n, days_completed)``."""
        return self._score_daily.view

    @property
    def labels_daily(self) -> np.ndarray:
        """Daily labels ``Y^d`` so far, shape ``(n, days_completed)``."""
        return self._labels_daily.view

    @property
    def score_weekly(self) -> np.ndarray:
        """Weekly scores ``S^w`` so far, shape ``(n, weeks_completed)``."""
        return self._score_weekly.view

    @property
    def labels_weekly(self) -> np.ndarray:
        """Weekly labels ``Y^w`` so far, shape ``(n, weeks_completed)``."""
        return self._labels_weekly.view

    # ------------------------------------------------------------- ingest
    def ingest_hour(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_row: np.ndarray | None = None,
    ) -> IngestTick:
        """Ingest one hour of KPIs for every sector.

        Parameters
        ----------
        values:
            Shape ``(n_sectors, n_kpis)`` hourly measurements.
        missing:
            Boolean mask, same shape; defaults to the NaN positions of
            *values*.  Missing entries cannot trip score thresholds
            (matching :func:`repro.core.scoring.hourly_score`), but a
            forecaster window containing them is rejected — impute
            upstream, as in the batch pipeline.
        calendar_row:
            The 5-element enriched calendar row for this hour.  When
            omitted, a default row is derived from the configured time
            axis (hour-of-day, day-of-week, a 31-day day-of-month cycle,
            weekend flag, holiday = 0); for bitwise feature parity with
            a specific dataset, pass its calendar rows.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_sectors, self.n_kpis):
            raise ValueError(
                f"values must be ({self.n_sectors}, {self.n_kpis}), got {values.shape}"
            )
        if missing is not None:
            missing = np.asarray(missing, dtype=bool)
            if missing.shape != values.shape:
                raise ValueError(
                    f"missing mask shape {missing.shape} != values shape {values.shape}"
                )
            missing = missing[:, None, :]
        rows = None
        if calendar_row is not None:
            rows = np.asarray(calendar_row, dtype=np.float64)[None, :]
        return self.ingest_block(values[:, None, :], missing, rows)[0]

    def ingest_block(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_rows: np.ndarray | None = None,
    ) -> list[IngestTick]:
        """Ingest a contiguous block of hours for every sector at once.

        The columnar micro-batch counterpart of :meth:`ingest_hour`:
        the resulting ingestor state — every ring buffer, accumulator,
        history and the running cumulative sum — is **bitwise
        identical** to calling ``ingest_hour`` once per block column,
        but the per-hour Python overhead is paid once per block.

        Parameters
        ----------
        values:
            Shape ``(n_sectors, n_hours, n_kpis)`` hourly measurements
            for the next ``n_hours`` consecutive hours.
        missing:
            Boolean mask, same shape; defaults to the NaN positions.
        calendar_rows:
            Shape ``(n_hours, 5)`` enriched calendar rows; derived from
            the configured time axis when omitted.

        Returns the per-hour :class:`IngestTick` outcomes, in order.
        """
        values = np.asarray(values, dtype=np.float64)
        if (
            values.ndim != 3
            or values.shape[0] != self.n_sectors
            or values.shape[2] != self.n_kpis
        ):
            raise ValueError(
                f"values must be ({self.n_sectors}, n_hours, {self.n_kpis}), "
                f"got {values.shape}"
            )
        n_hours = values.shape[1]
        if n_hours == 0:
            return []
        if missing is None:
            missing = np.isnan(values)
        missing = np.asarray(missing, dtype=bool)
        if missing.shape != values.shape:
            raise ValueError(
                f"missing mask shape {missing.shape} != values shape {values.shape}"
            )
        if calendar_rows is not None:
            calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
            if calendar_rows.shape != (n_hours, 5):
                raise ValueError(
                    f"calendar_rows must be ({n_hours}, 5), got {calendar_rows.shape}"
                )

        # Chunk so no ring write of this block lands on a cumsum slot a
        # later hour of the same chunk still needs for its weekly
        # trailing lookback (capacity >= 168 + 24 guarantees progress),
        # and so no chunk crosses the ring's end: every chunk's slots are
        # one basic slice.
        ticks: list[IngestTick] = []
        longest = self.capacity - HOURS_PER_WEEK
        start = 0
        while start < n_hours:
            to_end = self.capacity - self.hours_seen % self.capacity
            stop = min(start + longest, start + to_end, n_hours)
            ticks.extend(
                self._ingest_chunk(
                    values[:, start:stop, :],
                    missing[:, start:stop, :],
                    None if calendar_rows is None else calendar_rows[start:stop],
                )
            )
            start = stop
        return ticks

    def _ingest_chunk(
        self,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray | None,
    ) -> list[IngestTick]:
        """One chunk of :meth:`ingest_block`: at most ``capacity - 168``
        hours that do not cross the ring's end."""
        n_hours = values.shape[1]
        first = self.hours_seen
        slot = first % self.capacity
        ring = slice(slot, slot + n_hours)
        n_kpis = self.n_kpis
        if calendar_rows is None:
            calendar_rows = np.stack(
                [self._default_calendar_row(h) for h in range(first, first + n_hours)]
            )

        # Eq. 1 over the whole block: an exact dot product for integral
        # weights (see _exact_weights), else the batch pipeline's
        # KPI-axis sum.
        tripped = values > self._thresholds
        tripped &= ~missing
        if self._exact_weights:
            weighted = np.dot(tripped.reshape(-1, n_kpis), self._weights)
            weighted = weighted.reshape(self.n_sectors, n_hours)
        else:
            weighted = (tripped * self._weights).sum(axis=2)
        score = weighted / self._weight_sum

        features = self._features
        features[:, ring, :n_kpis] = values
        features[:, ring, n_kpis : n_kpis + 5] = calendar_rows
        self.missing[:, ring] = missing
        self.labels_hourly[:, ring] = score > self._threshold

        # Extend the running cumulative sum in place: np.cumsum
        # accumulates left-to-right, exactly the per-hour
        # `running_total += score` addition order, so Eq. 3 trailing
        # means match bitwise.
        seeded = score.copy()
        seeded[:, 0] += self._running_total
        cumsum = np.cumsum(seeded, axis=1, out=self._cumsum[:, ring])
        self._running_total = cumsum[:, -1].copy()

        trail_daily = self._trailing_block(first, cumsum, HOURS_PER_DAY)
        features[:, ring, n_kpis + 5] = score
        features[:, ring, n_kpis + 6] = trail_daily
        features[:, ring, n_kpis + 7] = self._trailing_block(first, cumsum, HOURS_PER_WEEK)
        features[:, ring, n_kpis + 8] = trail_daily > self._threshold

        # Per-period accumulators, one contiguous segment per day (a
        # day segment never straddles a week boundary: 168 % 24 == 0).
        j = 0
        while j < n_hours:
            day_pos = (first + j) % HOURS_PER_DAY
            span = min(HOURS_PER_DAY - day_pos, n_hours - j)
            week_pos = (first + j) % HOURS_PER_WEEK
            self._day_scores[:, day_pos : day_pos + span] = score[:, j : j + span]
            self._week_scores[:, week_pos : week_pos + span] = score[:, j : j + span]
            j += span
            end_hour = first + j
            if end_hour % HOURS_PER_DAY == 0:
                s_day = self._day_scores.mean(axis=1)
                self._score_daily.append(s_day)
                self._labels_daily.append((s_day > self._threshold).astype(np.int8))
            if end_hour % HOURS_PER_WEEK == 0:
                s_week = self._week_scores.mean(axis=1)
                self._score_weekly.append(s_week)
                self._labels_weekly.append(
                    (s_week > self._threshold).astype(np.int8)
                )
        self.hours_seen = first + n_hours

        return [
            IngestTick(
                hour=hour,
                day=hour // HOURS_PER_DAY,
                day_completed=(hour + 1) % HOURS_PER_DAY == 0,
                week_completed=(hour + 1) % HOURS_PER_WEEK == 0,
                t_day=(hour + 1) // HOURS_PER_DAY - 1,
            )
            for hour in range(first, first + n_hours)
        ]

    def _trailing_block(self, first: int, cumsum: np.ndarray, window: int) -> np.ndarray:
        """Eq. 3 trailing means for a just-written chunk from hour *first*.

        *cumsum* holds the running totals of the chunk's hours (already
        written to the ring, so intra-chunk lookbacks resolve).  Cold
        hours, before one full window has streamed, divide by the hours
        seen so far; warm hours difference the ring lookback, one slice
        unless the lookback range crosses the ring's end.
        """
        n_hours = cumsum.shape[1]
        cold = min(max(window - first, 0), n_hours)
        if not cold:
            lookback = self._cumsum[:, self._ring_span(first - window, n_hours)]
            return (cumsum - lookback) / window
        out = np.empty_like(cumsum)
        out[:, :cold] = cumsum[:, :cold] / np.arange(first + 1, first + cold + 1)
        if cold < n_hours:
            lookback = self._cumsum[:, self._ring_span(0, n_hours - cold)]
            out[:, cold:] = (cumsum[:, cold:] - lookback) / window
        return out

    def _ring_span(self, lo_hour: int, n_hours: int) -> slice | np.ndarray:
        """Ring slots of hours ``[lo_hour, lo_hour + n_hours)``: one basic
        slice, or an index array when the range crosses the ring's end."""
        slot = lo_hour % self.capacity
        if slot + n_hours <= self.capacity:
            return slice(slot, slot + n_hours)
        return np.arange(lo_hour, lo_hour + n_hours) % self.capacity

    def _default_calendar_row(self, hour: int) -> np.ndarray:
        """Best-effort calendar row when the caller supplies none."""
        return default_calendar_row(
            hour, self.start_weekday, self.start_hour, self.start_day_of_month
        )

    def replay(
        self,
        dataset: Dataset,
        start_hour: int = 0,
        end_hour: int | None = None,
    ) -> Iterator[IngestTick]:
        """Feed a dataset's hours through :meth:`ingest_hour`, yielding ticks."""
        kpis = dataset.kpis
        if kpis.n_sectors != self.n_sectors or kpis.n_kpis != self.n_kpis:
            raise ValueError(
                f"dataset shape ({kpis.n_sectors} sectors, {kpis.n_kpis} KPIs) does "
                f"not match ingestor ({self.n_sectors}, {self.n_kpis})"
            )
        end = kpis.n_hours if end_hour is None else min(end_hour, kpis.n_hours)
        for hour in range(start_hour, end):
            yield self.ingest_hour(
                kpis.values[:, hour, :],
                kpis.missing[:, hour, :],
                dataset.calendar[hour],
            )

    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        score_config: ScoreConfig | None = None,
        w_max: int = 21,
    ) -> "StreamIngestor":
        """An ingestor shaped and time-anchored for *dataset*."""
        axis = dataset.time_axis
        return cls(
            n_sectors=dataset.n_sectors,
            n_kpis=dataset.kpis.n_kpis,
            score_config=score_config,
            w_max=w_max,
            start_weekday=axis.start_weekday,
            start_hour=axis.start_hour,
        )

    # ------------------------------------------------------------- windows
    def _ring_slots(self, lo_hour: int, hi_hour: int) -> slice | np.ndarray:
        """Ring slots for global hours ``[lo_hour, hi_hour)``, validated
        (see :meth:`_ring_span`)."""
        if not 0 <= lo_hour < hi_hour:
            raise ValueError(f"invalid hour range [{lo_hour}, {hi_hour})")
        if hi_hour > self.hours_seen:
            raise ValueError(
                f"hour range [{lo_hour}, {hi_hour}) not fully ingested yet "
                f"({self.hours_seen} hours seen)"
            )
        if lo_hour < self.hours_seen - self.capacity:
            raise ValueError(
                f"hour {lo_hour} already evicted from the {self.capacity}-hour ring; "
                "increase w_max/capacity_hours"
            )
        return self._ring_span(lo_hour, hi_hour - lo_hour)

    def hourly_window(self, lo_hour: int, hi_hour: int) -> dict[str, np.ndarray]:
        """Copies of the ring contents for hours ``[lo_hour, hi_hour)``
        (testing/debug)."""
        slots = self._ring_slots(lo_hour, hi_hour)
        return {
            "values": self.values[:, slots, :].copy(),
            "missing": self.missing[:, slots, :].copy(),
            "calendar": self.calendar[slots].copy(),
            "score_hourly": self.score_hourly[:, slots].copy(),
            "labels_hourly": self.labels_hourly[:, slots].copy(),
            "trail_daily": self.trail_daily[:, slots].copy(),
            "trail_weekly": self.trail_weekly[:, slots].copy(),
        }

    def feature_window(self, t_day: int, window: int) -> np.ndarray:
        """The Eq. 5 input block for a forecast made at day *t_day*.

        Bitwise equal to ``build_feature_tensor(dataset).window(t_day,
        window)`` when the same hours were replayed with the dataset's
        calendar rows.  Shape ``(n, 24 * window, n_kpis + 9)``; a copy,
        which the caller may keep.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        lo = HOURS_PER_DAY * (t_day - window + 1)
        hi = HOURS_PER_DAY * (t_day + 1)
        if lo < 0:
            raise ValueError(
                f"window of {window} days does not fit before day {t_day}"
            )
        slots = self._ring_slots(lo, hi)
        if self.missing[:, slots, :].any():
            raise ValueError(
                "forecast window contains missing KPI values; impute upstream "
                "(the batch pipeline rejects incomplete tensors the same way)"
            )
        # One read of the feature ring, whose columns the component
        # rings are views of.
        return self._features[:, slots, :].copy()

    # ------------------------------------------------------- checkpointing
    def construction_meta(self) -> dict:
        """JSON-able parameters that rebuild an equivalent empty ingestor.

        The one codec for the construction parameters: the checkpoint's
        ``meta.json`` stores this mapping and :meth:`state_dict`'s meta
        carries it minus the shape (which the arrays hold).
        """
        return {
            "n_sectors": self.n_sectors,
            "n_kpis": self.n_kpis,
            "w_max": self.w_max,
            "capacity": self.capacity,
            "start_weekday": self.start_weekday,
            "start_hour": self.start_hour,
            "start_day_of_month": self.start_day_of_month,
            "weights": list(self.config.weights),
            "thresholds": list(self.config.thresholds),
            "hotspot_threshold": self.config.hotspot_threshold,
        }

    @classmethod
    def from_construction_meta(cls, meta: dict) -> "StreamIngestor":
        """Empty ingestor built from a :meth:`construction_meta` mapping."""
        return cls(
            n_sectors=int(meta["n_sectors"]),
            n_kpis=int(meta["n_kpis"]),
            score_config=ScoreConfig(
                weights=tuple(float(w) for w in meta["weights"]),
                thresholds=tuple(float(t) for t in meta["thresholds"]),
                hotspot_threshold=float(meta["hotspot_threshold"]),
            ),
            w_max=int(meta["w_max"]),
            capacity_hours=int(meta["capacity"]),
            start_weekday=int(meta["start_weekday"]),
            start_hour=int(meta["start_hour"]),
            start_day_of_month=int(meta["start_day_of_month"]),
        )

    def state_dict(self) -> dict:
        """Complete snapshot of the ingestor's mutable state.

        The returned mapping has two entries: ``"meta"`` (JSON-able
        construction parameters and the hour clock) and ``"arrays"``
        (copies of every numpy buffer, including ring slots beyond
        ``hours_seen``).  :meth:`from_state` rebuilds an ingestor that
        continues *bitwise-identically* to this one — the basis of the
        :mod:`repro.resilience.checkpoint` crash-recovery contract.
        The feature ring is stored as its per-channel views, one array
        each, with the calendar once (every sector holds the same rows).
        """
        meta = {"hours_seen": self.hours_seen, **self.construction_meta()}
        del meta["n_sectors"], meta["n_kpis"]  # the arrays carry the shape
        arrays = {
            "values": self.values.copy(),
            "missing": self.missing.copy(),
            "calendar": self.calendar.copy(),
            "score_hourly": self.score_hourly.copy(),
            "labels_hourly": self.labels_hourly.copy(),
            "trail_daily": self.trail_daily.copy(),
            "trail_weekly": self.trail_weekly.copy(),
            "trail_label": self.trail_label.copy(),
            "cumsum": self._cumsum.copy(),
            "running_total": self._running_total.copy(),
            "day_scores": self._day_scores.copy(),
            "week_scores": self._week_scores.copy(),
            "score_daily": self._score_daily.view.copy(),
            "labels_daily": self._labels_daily.view.copy(),
            "score_weekly": self._score_weekly.view.copy(),
            "labels_weekly": self._labels_weekly.view.copy(),
        }
        return {"meta": meta, "arrays": arrays}

    @classmethod
    def from_state(cls, state: dict) -> "StreamIngestor":
        """Rebuild an ingestor from a :meth:`state_dict` snapshot."""
        meta, arrays = state["meta"], state["arrays"]
        n_sectors, _, n_kpis = arrays["values"].shape
        ingestor = cls.from_construction_meta(
            {**meta, "n_sectors": n_sectors, "n_kpis": n_kpis}
        )
        for attr, key in (
            ("values", "values"),
            ("missing", "missing"),
            ("score_hourly", "score_hourly"),
            ("labels_hourly", "labels_hourly"),
            ("trail_daily", "trail_daily"),
            ("trail_weekly", "trail_weekly"),
            ("trail_label", "trail_label"),
            ("_cumsum", "cumsum"),
            ("_running_total", "running_total"),
            ("_day_scores", "day_scores"),
            ("_week_scores", "week_scores"),
        ):
            getattr(ingestor, attr)[...] = arrays[key]
        # The stored calendar ring is shared by every sector's columns.
        ingestor._features[:, :, n_kpis : n_kpis + 5] = arrays["calendar"][None, :, :]
        ingestor._score_daily = _History.from_matrix(
            np.asarray(arrays["score_daily"], dtype=np.float64)
        )
        ingestor._labels_daily = _History.from_matrix(
            np.asarray(arrays["labels_daily"], dtype=np.int8)
        )
        ingestor._score_weekly = _History.from_matrix(
            np.asarray(arrays["score_weekly"], dtype=np.float64)
        )
        ingestor._labels_weekly = _History.from_matrix(
            np.asarray(arrays["labels_weekly"], dtype=np.int8)
        )
        ingestor.hours_seen = int(meta["hours_seen"])
        return ingestor
