"""Dependency-free SVG emitters for accuracy curves and heatmaps.

Both draw accuracies in one frame (a plot box inside fixed margins, axis
labels around it), so the line chart's vertical axis and the heatmap's
color ramp span the fixed interval [0, 1]. Hand-rolled on purpose: every
coordinate is formatted with fixed precision and elements are emitted in a
fixed order, so the same inputs always produce byte-identical files. That
keeps rendered artifacts diffable and lets tests assert on them directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

WIDTH = 800.0
HEIGHT = 600.0
MARGIN_LEFT = 80.0
MARGIN_RIGHT = 170.0
MARGIN_TOP = 50.0
MARGIN_BOTTOM = 60.0
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
FONT = 'font-family="Helvetica,Arial,sans-serif" font-size="12"'

LINE_COLORS = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
)

# Three-stop ramp, dark purple through teal to yellow.
_RAMP = ((68.0, 1.0, 84.0), (33.0, 145.0, 140.0), (253.0, 231.0, 37.0))

MISSING_CELL_FILL = "#d9d9d9"
MISSING_CELL_TEXT = "–"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def ramp_color(t: float) -> str:
    """Map t in [0, 1] onto the color ramp as an ``#rrggbb`` string."""
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        a, b, u = _RAMP[0], _RAMP[1], t * 2.0
    else:
        a, b, u = _RAMP[1], _RAMP[2], (t - 0.5) * 2.0
    rgb = [round(a[i] + (b[i] - a[i]) * u) for i in range(3)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _text_color_for(fill: str) -> str:
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    luminance = 0.2126 * r + 0.7152 * g + 0.0722 * b
    return "#000000" if luminance > 140.0 else "#ffffff"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(MARGIN_TOP / 2 + 6)}" text-anchor="middle" '
        f'{FONT} font-size="16">{_escape(title)}</text>',
    ]


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    """The x label centred under the plot box, the y label turned along its left side."""
    return [
        f'<text x="{_fmt(MARGIN_LEFT + PLOT_W / 2)}" y="{_fmt(HEIGHT - 14)}" text-anchor="middle" '
        f"{FONT}>{_escape(x_label)}</text>",
        f'<text x="18" y="{_fmt(MARGIN_TOP + PLOT_H / 2)}" text-anchor="middle" {FONT} '
        f'transform="rotate(-90 18 {_fmt(MARGIN_TOP + PLOT_H / 2)})">{_escape(y_label)}</text>',
    ]


def render_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render labeled (x, y) series as one fixed-size line chart.

    The horizontal axis spans the data; the vertical axis spans [0, 1].
    """
    if not series:
        raise ValueError("line chart needs at least one series")
    for label, xs, ys in series:
        if len(xs) != len(ys) or not xs:
            raise ValueError(f"series {label!r} needs equal, nonzero x and y lengths")
    x_lo, x_hi = _span([x for _, xs, _ in series for x in xs])

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(y: float) -> float:
        return MARGIN_TOP + PLOT_H - y * PLOT_H

    parts = _header(title)
    parts.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(PLOT_W)}" '
        f'height="{_fmt(PLOT_H)}" fill="none" stroke="#000000"/>'
    )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_TOP + PLOT_H)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_TOP + PLOT_H + 18)}" text-anchor="middle" '
            f"{FONT}>{tick:g}</text>"
        )
    for tick in _ticks(0.0, 1.0):
        y = py(tick)
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT + PLOT_W)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" {FONT}>{tick:.3g}</text>'
        )
    parts += _axis_labels(x_label, y_label)
    for i, (label, xs, ys) in enumerate(series):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = MARGIN_TOP + 12 + 18 * i
        legend_x = WIDTH - MARGIN_RIGHT + 12
        parts.append(
            f'<line x1="{_fmt(legend_x)}" y1="{_fmt(legend_y)}" x2="{_fmt(legend_x + 22)}" '
            f'y2="{_fmt(legend_y)}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 28)}" y="{_fmt(legend_y + 4)}" {FONT}>{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmap(
    values: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render a labeled grid of values in [0, 1]; NaN cells turn gray with a dash.

    A value's color is its place on the ramp, which spans [0, 1].
    """
    n_rows, n_cols = len(row_labels), len(col_labels)
    if n_rows == 0 or n_cols == 0:
        raise ValueError("heatmap needs at least one row and one column")
    if len(values) != n_rows or any(len(row) != n_cols for row in values):
        raise ValueError("heatmap values must match the label grid shape")
    cell_w, cell_h = PLOT_W / n_cols, PLOT_H / n_rows

    parts = _header(title)
    for r in range(n_rows):
        for c in range(n_cols):
            x = MARGIN_LEFT + c * cell_w
            y = MARGIN_TOP + r * cell_h
            value = values[r][c]
            if math.isnan(value):
                fill, text, text_color = MISSING_CELL_FILL, MISSING_CELL_TEXT, "#000000"
            else:
                fill = ramp_color(value)
                text, text_color = _fmt(value), _text_color_for(fill)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" height="{_fmt(cell_h)}" '
                f'fill="{fill}" stroke="#ffffff"/>'
            )
            parts.append(
                f'<text x="{_fmt(x + cell_w / 2)}" y="{_fmt(y + cell_h / 2 + 4)}" text-anchor="middle" '
                f'{FONT} fill="{text_color}">{text}</text>'
            )
    for r, label in enumerate(row_labels):
        y = MARGIN_TOP + (r + 0.5) * cell_h
        parts.append(f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'{FONT}>{_escape(label)}</text>')
    for c, label in enumerate(col_labels):
        x = MARGIN_LEFT + (c + 0.5) * cell_w
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_TOP + PLOT_H + 18)}" text-anchor="middle" '
            f'{FONT}>{_escape(label)}</text>'
        )
    parts += _axis_labels(x_label, y_label)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
