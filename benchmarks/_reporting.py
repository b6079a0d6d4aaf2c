"""Shared reporting for the benchmark suite.

Every bench regenerates one of the paper's tables or figures as text.
``report(name, text)`` stores the rendered block and writes it to
``benchmarks/results/<name>.txt``; the conftest's terminal-summary hook
then prints every stored block at the end of the pytest run, so the
tables are visible in the tee'd bench output even with stdout capture
on.  Smoke-sized runs pass ``persist=False`` and write their JSON
summaries and event logs to untracked ``*_smoke`` paths
(:func:`smoke_path`): the tracked files hold full runs only.
"""

from __future__ import annotations

import sys
from pathlib import Path

_RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: dict[str, str] = {}


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process, in MB (None off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the number
    is a high-water mark, so call it once at the end of the measured
    work.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak /= 1024.0
    return round(peak / 1024.0, 1)


def report(name: str, text: str, persist: bool = True) -> None:
    """Store a rendered table/figure block under *name*; with *persist*,
    also write it to ``results/<name>.txt``."""
    _REPORTS[name] = text
    if persist:
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}")


def smoke_path(path: Path, smoke: bool) -> Path:
    """*path* for a full run; its untracked ``<stem>_smoke`` sibling for
    a smoke run."""
    return path.with_name(f"{path.stem}_smoke{path.suffix}") if smoke else path


def collected_reports() -> dict[str, str]:
    """All blocks reported during this pytest session, in insertion order."""
    return dict(_REPORTS)


def format_table(headers: list[str], rows: list[list], widths: list[int] | None = None) -> str:
    """Render a fixed-width text table."""
    if widths is None:
        widths = []
        for col, header in enumerate(headers):
            cells = [str(row[col]) for row in rows] + [header]
            widths.append(max(len(c) for c in cells) + 2)
    lines = ["".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: list, ys: list, fmt: str = "{:.2f}") -> str:
    """Render an (x, y) series as two aligned rows."""
    x_cells = [str(x) for x in xs]
    y_cells = [fmt.format(y) if y == y else "nan" for y in ys]
    widths = [max(len(a), len(b)) + 2 for a, b in zip(x_cells, y_cells)]
    line_x = name.ljust(10) + "".join(c.rjust(w) for c, w in zip(x_cells, widths))
    line_y = " " * 10 + "".join(c.rjust(w) for c, w in zip(y_cells, widths))
    return line_x + "\n" + line_y
