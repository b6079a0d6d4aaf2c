"""KPI tensor container.

The paper represents telemetry as a three-dimensional tensor ``K`` of
shape ``n x m_h x l`` (sectors x hours x indicators), measured hourly.
:class:`KPITensor` wraps the raw values together with a boolean missing
mask and axis metadata (KPI names, the hourly time axis), and provides the
slicing operations the rest of the library needs: weekly slices for the
denoising-autoencoder imputer, per-sector views, and daily/weekly
reshaping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HOURS_PER_DAY", "HOURS_PER_WEEK", "KPITensor", "TimeAxis"]

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 168


@dataclass(frozen=True)
class TimeAxis:
    """Hourly time axis metadata.

    Attributes
    ----------
    n_hours:
        Total number of hourly samples ``m_h``.
    start_weekday:
        Weekday of hour 0 (0 = Monday ... 6 = Sunday).  The paper's data
        starts on Monday, November 30, 2015, so the default is 0.
    start_hour:
        Hour-of-day of sample 0 (0..23).
    """

    n_hours: int
    start_weekday: int = 0
    start_hour: int = 0

    def __post_init__(self) -> None:
        if self.n_hours <= 0:
            raise ValueError(f"n_hours must be positive, got {self.n_hours}")
        if not 0 <= self.start_weekday <= 6:
            raise ValueError(f"start_weekday must be in [0, 6], got {self.start_weekday}")
        if not 0 <= self.start_hour <= 23:
            raise ValueError(f"start_hour must be in [0, 23], got {self.start_hour}")

    @property
    def n_days(self) -> int:
        """Number of complete days covered."""
        return self.n_hours // HOURS_PER_DAY

    @property
    def n_weeks(self) -> int:
        """Number of complete weeks covered."""
        return self.n_hours // HOURS_PER_WEEK

    def hour_of_day(self) -> np.ndarray:
        """Hour-of-day (0..23) for every sample."""
        return (np.arange(self.n_hours) + self.start_hour) % HOURS_PER_DAY

    def day_index(self) -> np.ndarray:
        """Zero-based day index for every hourly sample."""
        return (np.arange(self.n_hours) + self.start_hour) // HOURS_PER_DAY

    def day_of_week(self) -> np.ndarray:
        """Day-of-week (0 = Monday .. 6 = Sunday) for every hourly sample."""
        return (self.day_index() + self.start_weekday) % 7

    def is_weekend(self) -> np.ndarray:
        """Boolean weekend flag (Saturday/Sunday) for every hourly sample."""
        return self.day_of_week() >= 5


def _backed_by_memmap(array: np.ndarray) -> bool:
    """True if *array* is (a view onto) a ``np.memmap``."""
    seen: object = array
    while isinstance(seen, np.ndarray):
        if isinstance(seen, np.memmap):
            return True
        seen = seen.base
    return False


class KPITensor:
    """Hourly KPI tensor ``K`` with missing mask and metadata.

    Parameters
    ----------
    values:
        Float array of shape ``(n_sectors, n_hours, n_kpis)``.  Entries
        at positions where *missing* is True are ignored by all
        consumers; their stored value is irrelevant (NaN by convention).
        May be a (read-only) ``np.memmap`` view, as produced by
        :func:`repro.data.chunked.open_dataset_mmap` — dtype-matching
        arrays are wrapped zero-copy, so the tensor never forces the
        mapped file into RAM.  Memmap-backed tensors are read-only:
        consumers that modify values must copy first (``filled()``,
        ``forward_filled()``, and ``select_sectors()`` already do).
    missing:
        Boolean array, same shape as *values*; True marks a missing
        measurement.  Defaults to the NaN positions of *values* (pass
        it explicitly for memmap-backed values to avoid materialising
        the NaN scan).
    kpi_names:
        Names of the ``l`` indicator channels.
    time_axis:
        Hourly axis metadata; defaults to a Monday-aligned axis.
    """

    def __init__(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        kpi_names: list[str] | None = None,
        time_axis: TimeAxis | None = None,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(f"values must be 3-D (sector, hour, kpi), got {values.shape}")
        if missing is None:
            missing = np.isnan(values)
        missing = np.asarray(missing, dtype=bool)
        if missing.shape != values.shape:
            raise ValueError(
                f"missing mask shape {missing.shape} != values shape {values.shape}"
            )
        n_sectors, n_hours, n_kpis = values.shape
        if kpi_names is None:
            kpi_names = [f"kpi_{k:02d}" for k in range(n_kpis)]
        if len(kpi_names) != n_kpis:
            raise ValueError(f"{len(kpi_names)} KPI names for {n_kpis} channels")
        if time_axis is None:
            time_axis = TimeAxis(n_hours=n_hours)
        if time_axis.n_hours != n_hours:
            raise ValueError(
                f"time axis covers {time_axis.n_hours} hours, tensor has {n_hours}"
            )
        self.values = values
        self.missing = missing
        self.kpi_names = list(kpi_names)
        self.time_axis = time_axis

    # ---------------------------------------------------------------- shape
    @property
    def n_sectors(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]

    @property
    def n_kpis(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def nbytes(self) -> int:
        """In-RAM footprint of values + mask if fully materialised."""
        return int(self.values.nbytes) + int(self.missing.nbytes)

    @property
    def is_memory_mapped(self) -> bool:
        """True when either array is a view onto an ``np.memmap`` file."""
        return _backed_by_memmap(self.values) or _backed_by_memmap(self.missing)

    def __repr__(self) -> str:
        return (
            f"KPITensor(n_sectors={self.n_sectors}, n_hours={self.n_hours}, "
            f"n_kpis={self.n_kpis}, missing={self.missing_fraction():.2%})"
        )

    # ------------------------------------------------------------- analysis
    def missing_fraction(self) -> float:
        """Overall fraction of missing entries."""
        return float(self.missing.mean())

    def weekly_missing_fraction(self) -> np.ndarray:
        """Per-sector, per-week fraction of missing entries.

        This is the quantity the sector filter of the paper (Sec. II-C)
        thresholds at 0.5: a sector is discarded if any week has more
        than 50 % of its values missing.

        Returns
        -------
        numpy.ndarray
            Shape ``(n_sectors, n_weeks)``.
        """
        n_weeks = self.time_axis.n_weeks
        usable = self.missing[:, : n_weeks * HOURS_PER_WEEK, :]
        per_week = usable.reshape(self.n_sectors, n_weeks, HOURS_PER_WEEK, self.n_kpis)
        return per_week.mean(axis=(2, 3))

    # ------------------------------------------------------------- slicing
    def select_sectors(self, index: np.ndarray) -> "KPITensor":
        """Return a new tensor restricted to the given sector indices/mask."""
        return KPITensor(
            values=self.values[index],
            missing=self.missing[index],
            kpi_names=self.kpi_names,
            time_axis=self.time_axis,
        )

    def filled(self, fill_value: float = 0.0) -> np.ndarray:
        """Copy of the values with missing entries replaced by *fill_value*."""
        out = self.values.copy()
        out[self.missing] = fill_value
        return out

    def forward_filled(self) -> np.ndarray:
        """Copy of the values with missing entries forward-filled in time.

        For each (sector, KPI) series, a missing hour takes the value of
        the most recent non-missing hour; leading missing values take the
        first available observation (backward fill), and all-missing
        series fall back to 0.  This is the substitution rule the paper's
        autoencoder applies at its input.
        """
        values = self.values.copy()
        values[self.missing] = np.nan
        # Work per (sector, kpi) series, vectorised over the hour axis.
        flat = values.transpose(0, 2, 1).reshape(-1, self.n_hours)
        filled = _forward_fill_rows(flat)
        return filled.reshape(self.n_sectors, self.n_kpis, self.n_hours).transpose(0, 2, 1)


def _forward_fill_rows(rows: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs along axis 1; backward-fill leading NaNs; 0 fallback."""
    rows = rows.copy()
    n_rows, n_cols = rows.shape
    is_nan = np.isnan(rows)
    idx = np.where(is_nan, 0, np.arange(n_cols)[None, :])
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = rows[np.arange(n_rows)[:, None], idx]
    # Leading NaNs survive forward fill where the very first value was NaN.
    still_nan = np.isnan(filled)
    if still_nan.any():
        rev = filled[:, ::-1]
        rev_nan = np.isnan(rev)
        idx_rev = np.where(rev_nan, 0, np.arange(n_cols)[None, :])
        np.maximum.accumulate(idx_rev, axis=1, out=idx_rev)
        backfilled = rev[np.arange(n_rows)[:, None], idx_rev][:, ::-1]
        filled[still_nan] = backfilled[still_nan]
        filled[np.isnan(filled)] = 0.0
    return filled
