"""Terminal-friendly plots for figure regeneration (no plotting dependencies).

The figure registry (:mod:`repro.reporting.experiments`) computes the
paper's figures as data series; these helpers render those series as
horizontal bar charts, sparklines, and simple scatter/line plots so the
shapes (who wins, where crossovers fall) are visible directly in a terminal.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["bar_chart", "sparkline", "line_plot"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart of labeled values (e.g. per-workload speedups)."""
    if not values:
        return title
    max_value = max(abs(v) for v in values.values()) or 1.0
    label_width = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "█" * max(1, int(round(width * abs(value) / max_value)))
        lines.append(f"{str(label).ljust(label_width)}  {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline of a numeric series (e.g. a convergence curve)."""
    values = list(values)
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_LEVELS[int((v - lo) / span * (len(_SPARK_LEVELS) - 1))] for v in values
    )


def line_plot(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[float] = None,
    height: int = 12,
    width: int = 60,
    title: str = "",
) -> str:
    """Character-grid line plot of one or more named series.

    Each series is resampled onto ``width`` columns and drawn with its own
    marker; a legend maps markers back to series names.
    """
    markers = "*o+x#@%&"
    all_values = [v for values in series.values() for v in values if values]
    if not all_values:
        return title
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]

    for idx, (name, values) in enumerate(series.items()):
        values = list(values)
        if not values:
            continue
        marker = markers[idx % len(markers)]
        for col in range(width):
            src = col * (len(values) - 1) / max(width - 1, 1) if len(values) > 1 else 0
            value = values[int(round(src))]
            row = height - 1 - int(round((value - lo) / span * (height - 1)))
            grid[row][col] = marker

    lines = [title] if title else []
    lines.append(f"{hi:.3g}".rjust(10) + " ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{lo:.3g}".rjust(10) + " ┤" + "".join(grid[-1]))
    if x_values is not None and len(x_values) >= 2:
        lines.append(" " * 12 + f"{x_values[0]:<10.4g}" + " " * max(0, width - 20) + f"{x_values[-1]:>10.4g}")
    legend = "   ".join(
        f"{markers[idx % len(markers)]} {name}" for idx, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
