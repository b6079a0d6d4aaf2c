"""Sec. V-A — temporal stability of the forecasting results.

The paper splits the evaluated days into two halves and compares the
average-precision distributions of every (model, h, w) combination with
a two-sample KS test, finding no p-value under 0.01 and only 1.1 %
under 0.05 — i.e., the time of the forecast does not matter.  This
bench runs a dedicated dense-in-t sweep for two representative models
and reproduces the screen.
"""

from __future__ import annotations

from _reporting import format_table, report
from repro.core.experiment import SweepGrid
from repro.core.stability import temporal_stability


def test_sec5a_temporal_stability(benchmark, hot_runner):
    grid = SweepGrid(
        models=("Average", "RF-F1"),
        t_days=tuple(range(52, 88, 2)),
        horizons=(3, 7),
        windows=(7,),
    )

    results = benchmark.pedantic(hot_runner.run, args=(grid,), rounds=1, iterations=1)
    stability = temporal_stability(results)

    rows = [
        [f"{model} h={h} w={w}", f"{p:.3f}"]
        for (model, h, w), p in sorted(stability.pvalues.items())
    ]
    text = "KS p-values of psi distributions across the two t-splits:\n"
    text += format_table(["combination", "p-value"], rows)
    text += (
        f"\nfraction p<0.01: {stability.fraction_below_001:.3f}, "
        f"p<0.05: {stability.fraction_below_005:.3f} "
        f"(paper: 0.000 and 0.011)"
    )
    report("sec5a_temporal_stability", text)

    assert stability.n_combinations >= 4
    # Paper: no combination significant at the 1 % level
    assert stability.fraction_below_001 == 0.0
    assert stability.fraction_below_005 <= 0.34
