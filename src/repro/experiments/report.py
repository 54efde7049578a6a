"""Plain-text rendering of experiment results (tables and curve series).

The original paper presents results as figures; since this reproduction is
terminal-first, every experiment renders to aligned text tables that show the
same rows/series (``gkmeans experiment`` prints them, followed by the
verdicts of :mod:`repro.experiments.reproduction`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["render_table", "render_series", "format_seconds", "format_number"]


def format_number(value, *, precision: int = 4) -> str:
    """Human-friendly formatting for mixed int/float table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int,)):
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}g}"
    return str(value)


def format_seconds(seconds: float) -> str:
    """Render a duration as s / min / h, matching the paper's table units."""
    if seconds < 60:
        return f"{seconds:.2f} s"
    if seconds < 3600:
        return f"{seconds / 60:.2f} min"
    return f"{seconds / 3600:.2f} h"


def render_table(rows: Sequence[Mapping], *, columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as an aligned text table.

    Parameters
    ----------
    rows:
        Sequence of mappings; missing keys render as ``-``.
    columns:
        Column order (defaults to the keys of the first row).
    title:
        Optional title line printed above the table.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[format_number(row.get(col)) for col in columns]
                for row in rows]
    widths = [max(len(str(col)), *(len(line[i]) for line in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(str(col).ljust(widths[i])
                       for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i])
                               for i in range(len(columns)))
                     for line in rendered)
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)


def render_series(series: Mapping[str, tuple[Iterable, Iterable]], *,
                  x_label: str = "x", y_label: str = "y",
                  title: str | None = None, max_points: int = 12) -> str:
    """Render named (x, y) curves as a compact text listing.

    Long curves are subsampled to ``max_points`` evenly spaced entries so the
    output stays readable; this mirrors how one reads values off the paper's
    figures.
    """
    lines = []
    if title:
        lines.append(title)
    for name, (xs, ys) in series.items():
        xs = list(xs)
        ys = list(ys)
        if len(xs) > max_points:
            step = max(1, len(xs) // max_points)
            keep = list(range(0, len(xs), step))
            if keep[-1] != len(xs) - 1:
                keep.append(len(xs) - 1)
            xs = [xs[i] for i in keep]
            ys = [ys[i] for i in keep]
        pairs = ", ".join(
            f"{format_number(x, precision=3)}->{format_number(y, precision=4)}"
            for x, y in zip(xs, ys))
        lines.append(f"{name} [{x_label} -> {y_label}]: {pairs}")
    return "\n".join(lines)
