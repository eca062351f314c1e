"""Dependency-free SVG emitters for accuracy curves and heatmaps.

Both draw accuracies in one frame (a plot box inside fixed margins, axis
labels around it), so the line chart's vertical axis and the heatmap's
color ramp span the fixed interval [0, 1]. Hand-rolled on purpose: every
coordinate is formatted with fixed precision and elements are emitted in a
fixed order, so the same inputs always produce byte-identical files. That
keeps rendered artifacts diffable and lets tests assert on them directly.

Every element but the ``<svg>`` root goes through one writer, ``_el``: its
attributes come from keywords, so an element cannot name one twice, and its
text is escaped, so each document is well-formed XML.
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
FONT = {"font_family": "Helvetica,Arial,sans-serif", "font_size": "12"}

LINE_COLORS = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860", "#da8bc3", "#8c8c8c")

# Three-stop ramp, dark purple through teal to yellow.
_RAMP = ((68.0, 1.0, 84.0), (33.0, 145.0, 140.0), (253.0, 231.0, 37.0))

MISSING_CELL_FILL = "#d9d9d9"
MISSING_CELL_TEXT = "–"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _el(tag: str, text: str | None = None, **attrs) -> str:
    """One element, self-closing when ``text`` is None.

    Attributes come out in call order, an ``_`` in a keyword as ``-``; a
    string value is written as given, a number with ``_fmt``. ``text`` is
    escaped.
    """
    spelt = "".join(f' {key.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"' for key, v in attrs.items())
    return f"<{tag}{spelt}/>" if text is None else f"<{tag}{spelt}>{_escape(text)}</{tag}>"


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


def _frame(title: str, x_label: str, y_label: str, body: list[str], tail: Sequence[str] = ()) -> str:
    """The whole document: background and title, ``body``, the x label
    centred under the plot box, the y label turned along its left side,
    then ``tail``."""
    mid_y = MARGIN_TOP + PLOT_H / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        _el("rect", width=f"{WIDTH:g}", height=f"{HEIGHT:g}", fill="#ffffff"),
        _el("text", title, x=WIDTH / 2, y=MARGIN_TOP / 2 + 6, text_anchor="middle", **{**FONT, "font_size": "16"}),
        *body,
        _el("text", x_label, x=MARGIN_LEFT + PLOT_W / 2, y=HEIGHT - 14, text_anchor="middle", **FONT),
        _el("text", y_label, x="18", y=mid_y, text_anchor="middle", **FONT, transform=f"rotate(-90 18 {_fmt(mid_y)})"),
        *tail,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


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

    body = [_el("rect", x=MARGIN_LEFT, y=MARGIN_TOP, width=PLOT_W, height=PLOT_H, fill="none", stroke="#000000")]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        body += [_el("line", x1=x, y1=MARGIN_TOP, x2=x, y2=MARGIN_TOP + PLOT_H, stroke="#dddddd"),
                 _el("text", f"{tick:g}", x=x, y=MARGIN_TOP + PLOT_H + 18, text_anchor="middle", **FONT)]
    for tick in _ticks(0.0, 1.0):
        y = py(tick)
        body += [_el("line", x1=MARGIN_LEFT, y1=y, x2=MARGIN_LEFT + PLOT_W, y2=y, stroke="#dddddd"),
                 _el("text", f"{tick:.3g}", x=MARGIN_LEFT - 8, y=y + 4, text_anchor="end", **FONT)]
    tail = []
    legend_x = WIDTH - MARGIN_RIGHT + 12
    for i, (label, xs, ys) in enumerate(series):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        legend_y = MARGIN_TOP + 12 + 18 * i
        tail += [_el("polyline", points=points, fill="none", stroke=color, stroke_width="1.5"),
                 _el("line", x1=legend_x, y1=legend_y, x2=legend_x + 22, y2=legend_y, stroke=color, stroke_width="1.5"),
                 _el("text", label, x=legend_x + 28, y=legend_y + 4, **FONT)]
    return _frame(title, x_label, y_label, body, tail)


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

    body = []
    for r in range(n_rows):
        for c in range(n_cols):
            x, y = MARGIN_LEFT + c * cell_w, MARGIN_TOP + r * cell_h
            value = values[r][c]
            if math.isnan(value):
                fill, text, text_color = MISSING_CELL_FILL, MISSING_CELL_TEXT, "#000000"
            else:
                fill = ramp_color(value)
                text, text_color = _fmt(value), _text_color_for(fill)
            body += [_el("rect", x=x, y=y, width=cell_w, height=cell_h, fill=fill, stroke="#ffffff"),
                     _el("text", text, x=x + cell_w / 2, y=y + cell_h / 2 + 4, text_anchor="middle", **FONT,
                         fill=text_color)]
    body += [_el("text", label, x=MARGIN_LEFT - 8, y=MARGIN_TOP + (r + 0.5) * cell_h + 4, text_anchor="end", **FONT)
             for r, label in enumerate(row_labels)]
    body += [_el("text", label, x=MARGIN_LEFT + (c + 0.5) * cell_w, y=MARGIN_TOP + PLOT_H + 18, text_anchor="middle",
                 **FONT) for c, label in enumerate(col_labels)]
    return _frame(title, x_label, y_label, body)
