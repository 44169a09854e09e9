"""Plain-text rendering of the evaluation tables and figure series.

The benchmark harness prints every reproduced table/figure in a form
directly comparable with the paper: aligned columns for tables, and
``(x, y)`` series (with a crude log2 bar) for figures.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render rows as an aligned monospace table."""
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        str_rows.append([
            ("%.3f" % cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [max(len(r[i]) for r in str_rows) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(str_rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ratio_series(points: Iterable[Tuple[float, float]], title: str = "",
                 x_label: str = "x", y_label: str = "ratio") -> str:
    """Render a figure's data series with a log2 bar per point.

    Mirrors Figure 7's presentation (log2 ratio on the ordinate): each
    line shows x, y, log2(y) and a bar of '#'/'.' left or right of the
    y = 1 axis.
    """
    lines = []
    if title:
        lines.append(title)
    lines.append("%16s  %10s  %8s  %s" % (x_label, y_label, "log2", ""))
    for x, y in points:
        if y <= 0:
            bar = "?"
            log = float("-inf")
        else:
            log = math.log2(y)
            magnitude = min(20, int(round(abs(log) * 4)))
            bar = ("." * magnitude + "|") if log < 0 else ("|" + "#" * magnitude)
        lines.append("%16s  %10.3f  %8.2f  %s" % (x, y, log, bar))
    return "\n".join(lines)


def summarize_ratios(values: Sequence[float]) -> Dict[str, float]:
    """Mean / geometric mean / min / max of a ratio population."""
    vals = [v for v in values if v > 0]
    if not vals:
        return {"mean": 0.0, "gmean": 0.0, "min": 0.0, "max": 0.0}
    gmean = math.exp(sum(math.log(v) for v in vals) / len(vals))
    return {
        "mean": sum(vals) / len(vals),
        "gmean": gmean,
        "min": min(vals),
        "max": max(vals),
    }
