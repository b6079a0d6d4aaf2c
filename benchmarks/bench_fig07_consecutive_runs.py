"""Fig. 7 — histograms of consecutive hours/days as hot spot.

Paper shape: both histograms are heavy-tailed on log axes; the
consecutive-hours distribution has a visible waking-day feature in the
8-20 h band, and the consecutive-days distribution is dominated by
single-day bursts with a tail of multi-day (and multi-week) stretches.
"""

from __future__ import annotations

from _reporting import format_series, report
from repro.analysis.temporal import consecutive_period_histogram


def test_fig07_consecutive_runs(benchmark, bench_dataset):
    data = bench_dataset

    def compute():
        return (
            consecutive_period_histogram(data.labels_hourly),
            consecutive_period_histogram(data.labels_daily),
        )

    (run_h, rel_h), (run_d, rel_d) = benchmark.pedantic(compute, rounds=1, iterations=1)

    show_h = min(rel_h.size, 48)
    show_d = min(rel_d.size, 21)
    text = "\n".join(
        [
            "A) consecutive hours as hot spot (first 48):",
            format_series("hours", list(run_h[:show_h]), list(rel_h[:show_h]), fmt="{:.3f}"),
            "",
            "B) consecutive days as hot spot (first 21):",
            format_series("days", list(run_d[:show_d]), list(rel_d[:show_d]), fmt="{:.3f}"),
        ]
    )
    report("fig07_consecutive_runs", text)

    # heavy-tailed: short runs dominate, long runs exist
    assert rel_h[0] == rel_h.max()
    assert run_h.max() >= 24          # overnight-persisting stretches exist
    assert rel_d[0] == rel_d.max()    # single-day bursts dominate (paper)
    assert run_d.max() >= 7           # week-scale stretches exist
    # waking-day feature: mass in the 8-20 h band clearly above the
    # immediately following band (21-33 h)
    assert rel_h[7:20].sum() > rel_h[20:33].sum()
