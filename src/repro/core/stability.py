"""Temporal-stability analysis (paper Sec. V-A).

Given the per-day average precision values of a sweep, split the
evaluated days ``t`` into two halves and compare the two psi
distributions with a two-sample Kolmogorov-Smirnov test, independently
for every (model, h, w) combination.  The paper finds no p-value below
0.01 and only 1.1 % below 0.05, concluding that the time of the
forecast does not matter.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.experiment import ExperimentResult
from repro.stats.ks import ks_two_sample

__all__ = ["StabilityReport", "temporal_stability"]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the temporal-stability screen.

    Attributes
    ----------
    pvalues:
        Mapping from ``(model, h, w)`` to the KS p-value of the two
        t-split psi distributions (combinations with too few defined
        evaluations on either side are skipped).
    fraction_below_001, fraction_below_005:
        Fractions of p-values under 0.01 / 0.05.
    n_combinations:
        Number of tested combinations.
    """

    pvalues: dict[tuple[str, int, int], float]
    fraction_below_001: float
    fraction_below_005: float
    n_combinations: int

    def is_stable(self, strict_alpha: float = 0.01) -> bool:
        """True when no combination rejects the null at *strict_alpha*."""
        return all(p >= strict_alpha for p in self.pvalues.values())


def temporal_stability(
    results: list[ExperimentResult],
    split_day: int | None = None,
    min_samples: int = 3,
) -> StabilityReport:
    """Run the KS screen over sweep results.

    Parameters
    ----------
    results:
        Sweep output covering a range of ``t`` values.
    split_day:
        Boundary between the two t-splits; defaults to the median of
        the evaluated days (the paper splits {52..87} into {52..69} and
        {70..87}).
    min_samples:
        Minimum defined psi values required on each side to test a
        combination.
    """
    by_combo: dict[tuple[str, int, int], list[tuple[int, float]]] = defaultdict(list)
    all_days: list[int] = []
    for result in results:
        if result.evaluation.defined and np.isfinite(result.evaluation.average_precision):
            by_combo[(result.model, result.horizon, result.window)].append(
                (result.t_day, result.evaluation.average_precision)
            )
            all_days.append(result.t_day)
    if not all_days:
        raise ValueError("no defined evaluations in the sweep results")
    if split_day is None:
        split_day = int(np.median(all_days))

    pvalues: dict[tuple[str, int, int], float] = {}
    for combo, pairs in by_combo.items():
        early = np.asarray([psi for day, psi in pairs if day <= split_day])
        late = np.asarray([psi for day, psi in pairs if day > split_day])
        if early.size < min_samples or late.size < min_samples:
            continue
        pvalues[combo] = ks_two_sample(early, late).pvalue

    n = len(pvalues)
    values = np.asarray(list(pvalues.values())) if n else np.zeros(0)
    return StabilityReport(
        pvalues=pvalues,
        fraction_below_001=float((values < 0.01).mean()) if n else float("nan"),
        fraction_below_005=float((values < 0.05).mean()) if n else float("nan"),
        n_combinations=n,
    )
