"""Fig. 3 — hot spot label raster for a sector population.

The paper's Fig. 3 plots Y^d for 500 randomly selected sectors: most
rows are almost empty (rarely hot), a thin band is solid (always hot),
and the rest show day-level structure.  This bench regenerates the
raster's row-density distribution and checks that composition.
"""

from __future__ import annotations

from _reporting import format_table, report


def test_fig03_hotspot_raster(benchmark, bench_dataset):
    labels = bench_dataset.labels_daily

    def compute():
        density = labels.mean(axis=1)
        return density

    density = benchmark.pedantic(compute, rounds=1, iterations=1)

    never = float((density == 0).mean())
    rare = float(((density > 0) & (density <= 0.1)).mean())
    intermittent = float(((density > 0.1) & (density <= 0.7)).mean())
    chronic = float((density > 0.7).mean())
    rows = [
        ["never hot", f"{never:.1%}"],
        ["rarely hot (<=10 % of days)", f"{rare:.1%}"],
        ["intermittent (10-70 %)", f"{intermittent:.1%}"],
        ["chronically hot (>70 %)", f"{chronic:.1%}"],
    ]
    text = format_table(["row class", "fraction of sectors"], rows)
    report("fig03_hotspot_raster", text)

    # Paper shape: the majority of sectors never/rarely hot, a small
    # solid band of chronic sectors, visible intermittent structure.
    assert never + rare > 0.5
    assert 0.0 < chronic < 0.3
    assert intermittent > 0.05
