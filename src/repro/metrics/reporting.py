"""Plain-text table/series formatting for experiment output.

The experiment modules print the same rows/series the paper reports; these
helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3g}"
    return str(v)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    srows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in srows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    xs: Sequence[Any],
    series: dict[str, Sequence[Any]],
    title: str = "",
) -> str:
    """Render multiple named series against a shared x axis."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(headers, rows, title=title)
