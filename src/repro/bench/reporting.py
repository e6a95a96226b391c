"""Table and chart rendering for paper-vs-measured comparisons."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "bar_chart"]

#: Characters of the longest bar :func:`bar_chart` draws.
BAR_WIDTH = 48


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, *, title: str = "") -> str:
    """Plain-text table; column order is given or taken from the first row."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns or rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    def line(cells):
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    out = []
    if title:
        out.append(title)
    out.append(line(columns))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(cells) for cells in rendered)
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def bar_chart(
    rows: Sequence[dict],
    *,
    label: str,
    series: Sequence[str],
    title: str = "",
) -> str:
    """Horizontal ASCII bars for one or more numeric *series* per row.

    Made for figure-shaped terminal output::

        heads=1  measured |############                | 131.1
                 paper    |#############               | 134.0

    Bars share one scale (the max across all series), so shape comparisons
    are literal.
    """
    values = [
        float(row[s]) for row in rows for s in series if row.get(s) is not None
    ]
    if not values:
        return f"{title}\n(no data)" if title else "(no data)"
    peak = max(values) or 1.0
    label_width = max(len(str(row.get(label, ""))) for row in rows)
    series_width = max(len(s) for s in series)
    lines = [title] if title else []
    for row in rows:
        for index, s in enumerate(series):
            value = row.get(s)
            if value is None:
                continue
            bar = "#" * max(1, round(BAR_WIDTH * float(value) / peak))
            head = str(row.get(label, "")) if index == 0 else ""
            lines.append(
                f"{head:<{label_width}}  {s:<{series_width}} "
                f"|{bar:<{BAR_WIDTH}}| {float(value):g}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
