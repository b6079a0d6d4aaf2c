"""Dataset bundle: KPIs, geography, calendar, scores, and labels.

:class:`Dataset` is the central handle a user works with.  It is produced
by the synthetic telemetry generator (or by loading real telemetry into a
:class:`~repro.data.tensor.KPITensor`) and progressively enriched by the
scoring pipeline: hourly/daily/weekly scores ``S`` and hot spot labels
``Y`` are attached by :func:`repro.core.scoring.attach_scores`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.tensor import KPITensor, TimeAxis

__all__ = ["Dataset", "SectorGeography"]


@dataclass(frozen=True)
class SectorGeography:
    """Physical placement and land use of every sector.

    Attributes
    ----------
    positions_km:
        Shape ``(n_sectors, 2)`` planar coordinates in kilometres.
        Sectors on the same tower share coordinates (distance 0), which
        reproduces the paper's "same tower" bucket in Fig. 8.
    tower_ids:
        Shape ``(n_sectors,)`` integer tower id per sector.
    land_use:
        Shape ``(n_sectors,)`` integer land-use class per sector (see
        :class:`repro.synth.geography.LandUse`).
    """

    positions_km: np.ndarray
    tower_ids: np.ndarray
    land_use: np.ndarray

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions_km, dtype=np.float64)
        towers = np.asarray(self.tower_ids, dtype=np.int64)
        land = np.asarray(self.land_use, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions_km must be (n, 2), got {positions.shape}")
        n = positions.shape[0]
        if towers.shape != (n,) or land.shape != (n,):
            raise ValueError("tower_ids and land_use must be (n,) vectors")
        object.__setattr__(self, "positions_km", positions)
        object.__setattr__(self, "tower_ids", towers)
        object.__setattr__(self, "land_use", land)

    @property
    def n_sectors(self) -> int:
        return self.positions_km.shape[0]

    def distances_from(self, sector: int) -> np.ndarray:
        """Euclidean distance (km) from *sector* to every sector."""
        delta = self.positions_km - self.positions_km[sector]
        return np.sqrt((delta * delta).sum(axis=1))

    def select(self, index: np.ndarray) -> "SectorGeography":
        """Geography restricted to the given sector indices/mask."""
        return SectorGeography(
            positions_km=self.positions_km[index],
            tower_ids=self.tower_ids[index],
            land_use=self.land_use[index],
        )


@dataclass
class Dataset:
    """Full telemetry bundle for one network snapshot.

    Attributes
    ----------
    kpis:
        The hourly KPI tensor ``K``.
    geography:
        Sector placement metadata.
    calendar:
        The enriched calendar matrix ``C`` of shape ``(m_h, 5)``:
        hour-of-day, day-of-week, day-of-month, weekend flag, holiday
        flag (paper Sec. II-B).
    score_hourly, score_daily, score_weekly:
        Temporally integrated scores ``S^h`` (``(n, m_h)``), ``S^d``
        (``(n, m_d)``), ``S^w`` (``(n, m_w)``); attached by the scoring
        pipeline, None until then.
    labels_hourly, labels_daily, labels_weekly:
        Binary hot spot labels ``Y`` at each resolution; same shapes as
        the corresponding scores.
    """

    kpis: KPITensor
    geography: SectorGeography
    calendar: np.ndarray
    score_hourly: np.ndarray | None = None
    score_daily: np.ndarray | None = None
    score_weekly: np.ndarray | None = None
    labels_hourly: np.ndarray | None = None
    labels_daily: np.ndarray | None = None
    labels_weekly: np.ndarray | None = None

    def __post_init__(self) -> None:
        calendar = np.asarray(self.calendar, dtype=np.float64)
        if calendar.ndim != 2 or calendar.shape[1] != 5:
            raise ValueError(f"calendar must be (m_h, 5), got {calendar.shape}")
        if calendar.shape[0] != self.kpis.n_hours:
            raise ValueError(
                f"calendar covers {calendar.shape[0]} hours, KPIs cover {self.kpis.n_hours}"
            )
        if self.geography.n_sectors != self.kpis.n_sectors:
            raise ValueError(
                f"geography has {self.geography.n_sectors} sectors, "
                f"KPIs have {self.kpis.n_sectors}"
            )
        self.calendar = calendar

    @property
    def n_sectors(self) -> int:
        return self.kpis.n_sectors

    @property
    def time_axis(self) -> TimeAxis:
        return self.kpis.time_axis

    @property
    def has_scores(self) -> bool:
        """True once the scoring pipeline has attached scores and labels."""
        return self.score_hourly is not None and self.labels_daily is not None

    def require_scores(self) -> None:
        """Raise if scores/labels have not been attached yet."""
        if not self.has_scores:
            raise RuntimeError(
                "dataset has no scores attached; run repro.core.scoring.attach_scores first"
            )

    def select_sectors(self, index: np.ndarray) -> "Dataset":
        """Dataset restricted to the given sector indices/mask."""
        def maybe(matrix: np.ndarray | None) -> np.ndarray | None:
            return None if matrix is None else matrix[index]

        return Dataset(
            kpis=self.kpis.select_sectors(index),
            geography=self.geography.select(index),
            calendar=self.calendar,
            score_hourly=maybe(self.score_hourly),
            score_daily=maybe(self.score_daily),
            score_weekly=maybe(self.score_weekly),
            labels_hourly=maybe(self.labels_hourly),
            labels_daily=maybe(self.labels_daily),
            labels_weekly=maybe(self.labels_weekly),
        )
