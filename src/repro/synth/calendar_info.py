"""Enriched calendar information (paper Sec. II-B).

The paper enriches the timestamp into five hourly signals forming the
``m_h x 5`` matrix ``C``: (1) hour of the day, (2) day of the week,
(3) day of the month, (4) weekend flag, (5) holiday flag.  Signals
(2)-(5) are natively daily and are brute-force upsampled to hourly
resolution.

Holidays default to the ones falling inside the paper's measurement
window (Nov 30 2015 – Apr 3 2016 for a Western-European country): the
Christmas / New Year block, Epiphany, and Easter week, expressed as
zero-based day offsets from the Monday the data starts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.tensor import TimeAxis

__all__ = ["CalendarConfig", "default_holidays", "build_calendar"]


def default_holidays(n_days: int) -> tuple[int, ...]:
    """Default holiday day-offsets for a window starting Mon Nov 30 2015.

    Offsets (0 = Nov 30 2015): Dec 8 (Immaculate Conception, day 8),
    Dec 25 (day 25), Dec 26 (day 26), Jan 1 (day 32), Jan 6 (Epiphany,
    day 37), Mar 25 (Good Friday, day 116), Mar 28 (Easter Monday,
    day 119).  Only offsets inside ``[0, n_days)`` are returned, so the
    same function works for shorter synthetic windows.
    """
    candidates = (8, 25, 26, 32, 37, 116, 119)
    return tuple(day for day in candidates if day < n_days)


@dataclass(frozen=True)
class CalendarConfig:
    """Calendar construction parameters.

    Attributes
    ----------
    holidays:
        Zero-based day offsets flagged as holidays.  ``None`` selects
        :func:`default_holidays` for the generated window length.
    start_day_of_month:
        Day-of-month of day 0 (the paper's window starts Nov 30, so 30).
    days_in_month_cycle:
        Simplified month length used to roll the day-of-month signal.
    """

    holidays: tuple[int, ...] | None = None
    start_day_of_month: int = 30
    days_in_month_cycle: int = 30

    def resolve_holidays(self, n_days: int) -> tuple[int, ...]:
        if self.holidays is None:
            return default_holidays(n_days)
        out_of_range = [d for d in self.holidays if not 0 <= d < n_days]
        if out_of_range:
            raise ValueError(f"holiday offsets out of range [0, {n_days}): {out_of_range}")
        return tuple(self.holidays)


def build_calendar(time_axis: TimeAxis, config: CalendarConfig | None = None) -> np.ndarray:
    """Build the enriched calendar matrix ``C``.

    Parameters
    ----------
    time_axis:
        Hourly time axis of the data set.
    config:
        Optional calendar configuration.

    Returns
    -------
    numpy.ndarray
        Shape ``(m_h, 5)`` float matrix with columns: hour-of-day
        (0..23), day-of-week (0..6, 0 = Monday), day-of-month (1..31),
        weekend flag (0/1), holiday flag (0/1).
    """
    config = config or CalendarConfig()
    n_days = max(time_axis.n_days, 1)
    holidays = set(config.resolve_holidays(n_days))

    hour_of_day = time_axis.hour_of_day().astype(np.float64)
    day_of_week = time_axis.day_of_week().astype(np.float64)
    day_index = time_axis.day_index()
    day_of_month = (
        (day_index + config.start_day_of_month - 1) % config.days_in_month_cycle + 1
    ).astype(np.float64)
    weekend = time_axis.is_weekend().astype(np.float64)
    holiday = np.isin(day_index, list(holidays)).astype(np.float64)
    return np.column_stack([hour_of_day, day_of_week, day_of_month, weekend, holiday])
