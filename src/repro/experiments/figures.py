"""ASCII line charts for benchmark figures.

The benchmarks print paper-style tables; for quick visual inspection in a
terminal (or in a saved result table), this module renders one or more
``(x, y)`` series as a fixed-size ASCII chart, one glyph per series —
enough to see the monotone trends and crossovers the reproduction asserts.
"""

from __future__ import annotations

from typing import Sequence

GLYPHS = "ox+*#@%&"


def render_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 60,
    height: int = 16,
    title: str | None = None,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render named ``(xs, ys)`` series as an ASCII chart.

    Values are linearly mapped into a ``width x height`` grid; each series
    gets a glyph from :data:`GLYPHS` and a legend line.  Degenerate ranges
    (constant x or y) collapse to a single column/row gracefully.

    >>> chart = render_chart({"a": ([0, 1], [0, 1])}, width=10, height=4)
    >>> "a" in chart and "o" in chart
    True
    """
    if not series:
        raise ValueError("render_chart needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("chart too small to render")
    all_x = [float(x) for xs, _ in series.values() for x in xs]
    all_y = [float(y) for _, ys in series.values() for y in ys]
    if not all_x:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, (xs, ys)) in enumerate(series.items()):
        glyph = GLYPHS[index % len(GLYPHS)]
        legend.append(f"{glyph} = {name}")
        for x, y in zip(xs, ys):
            column = round((float(x) - x_lo) / x_span * (width - 1))
            row = round((float(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][column] = glyph

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.4g}"
    bottom_label = f"{y_lo:.4g}"
    margin = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    axis = " " * margin + "+" + "-" * width
    lines.append(axis)
    x_line = (" " * (margin + 1) + f"{x_lo:.4g}").ljust(margin + width - 6)
    lines.append(x_line + f"{x_hi:.4g}" + (f"  {x_label}" if x_label else ""))
    lines.extend(" " * (margin + 1) + entry for entry in legend)
    return "\n".join(lines)
