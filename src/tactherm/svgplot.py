"""Minimal deterministic SVG rendering for study figures.

Every figure the pipeline emits is a plain SVG string assembled here with
fixed-precision coordinates, so identical inputs yield byte-identical files.
Only the handful of chart types the study needs are implemented: line charts
with a shared axis frame, cell-based heatmaps, and box-and-whisker charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PALETTE",
    "Frame",
    "line_chart",
    "heatmap",
    "box_chart",
]

# Okabe-Ito palette: colorblind-safe and high-contrast on white.
PALETTE = (
    "#0072b2",
    "#d55e00",
    "#009e73",
    "#cc79a7",
    "#e69f00",
    "#56b4e9",
    "#f0e442",
    "#000000",
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _num(value: float) -> str:
    """Fixed-precision coordinate formatting (deterministic, compact)."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi], spaced at 1/2/2.5/5 x 10^k."""
    if not (hi > lo):
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:g}"


@dataclass(frozen=True)
class Frame:
    """Plot frame mapping a data window onto a pixel rectangle."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float = 64.0
    top: float = 20.0
    width: float = 560.0
    height: float = 360.0

    def px(self, x: float) -> float:
        return self.left + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.width

    def py(self, y: float) -> float:
        return self.top + (self.y_hi - y) / (self.y_hi - self.y_lo) * self.height


def _frame_for(xs: list[float], ys: list[float], pad: float = 0.04) -> Frame:
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    dx, dy = (x_hi - x_lo) * pad, (y_hi - y_lo) * pad
    return Frame(x_lo - dx, x_hi + dx, y_lo - dy, y_hi + dy)


def _value_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    return [(t, _tick_label(t)) for t in _nice_ticks(lo, hi)]


def _axes(
    frame: Frame, x_ticks: list[tuple[float, str]], x_label: str, y_label: str, title: str
) -> list[str]:
    """Frame, (x, label) ticks along x, value ticks along y, both axis
    labels and the visible title."""
    parts = [
        f'<rect x="{_num(frame.left)}" y="{_num(frame.top)}" width="{_num(frame.width)}"'
        f' height="{_num(frame.height)}" fill="none" stroke="#333333" stroke-width="1"/>'
    ]
    bottom = frame.top + frame.height
    for t, label in x_ticks:
        x = frame.px(t)
        parts.append(
            f'<line x1="{_num(x)}" y1="{_num(bottom)}" x2="{_num(x)}" y2="{_num(bottom + 5)}"'
            f' stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(x)}" y="{_num(bottom + 18)}" {_FONT} font-size="12"'
            f' text-anchor="middle">{label}</text>'
        )
    for t, label in _value_ticks(frame.y_lo, frame.y_hi):
        y = frame.py(t)
        parts.append(
            f'<line x1="{_num(frame.left - 5)}" y1="{_num(y)}" x2="{_num(frame.left)}" y2="{_num(y)}"'
            f' stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(frame.left - 8)}" y="{_num(y + 4)}" {_FONT} font-size="12"'
            f' text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{_num(frame.left + frame.width / 2)}" y="{_num(bottom + 36)}" {_FONT}'
        f' font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_num(frame.top + frame.height / 2)}" {_FONT} font-size="13"'
        f' text-anchor="middle" transform="rotate(-90 16 {_num(frame.top + frame.height / 2)})"'
        f'>{y_label}</text>'
    )
    parts.append(
        f'<text x="{_num(frame.left + frame.width / 2)}" y="14" {_FONT} font-size="14"'
        f' text-anchor="middle">{title}</text>'
    )
    return parts


def _document(body: list[str], width: float, height: float, title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(width)}" height="{_num(height)}"'
        f' viewBox="0 0 {_num(width)} {_num(height)}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="#ffffff"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    markers: bool = False,
) -> str:
    """Render named (x, y) series as polylines with a legend."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    frame = _frame_for(xs, ys)
    body = _axes(frame, _value_ticks(frame.x_lo, frame.x_hi), x_label, y_label, title)
    for i, (name, sx, sy) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_num(frame.px(x))},{_num(frame.py(y))}" for x, y in zip(sx, sy))
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if markers:
            for x, y in zip(sx, sy):
                body.append(
                    f'<circle cx="{_num(frame.px(x))}" cy="{_num(frame.py(y))}" r="2.2"'
                    f' fill="{color}"/>'
                )
        ly = frame.top + 14 + 16 * i
        lx = frame.left + frame.width - 150
        body.append(
            f'<line x1="{_num(lx)}" y1="{_num(ly - 4)}" x2="{_num(lx + 22)}" y2="{_num(ly - 4)}"'
            f' stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(f'<text x="{_num(lx + 28)}" y="{_num(ly)}" {_FONT} font-size="12">{name}</text>')
    return _document(body, frame.left + frame.width + 24, frame.top + frame.height + 48, title)


def _heat_color(t: float) -> str:
    """Blue-white-red diverging map on t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        s = t / 0.5
        r, g, b = 40 + s * 215, 80 + s * 175, 200 + s * 55
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255, 255 - s * 190, 255 - s * 215
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def heatmap(
    x_edges: list[float],
    y_edges: list[float],
    values: list[list[float]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    value_label: str,
) -> str:
    """Render a cell grid (values[j][i] over x cell i, y cell j) with a colorbar."""
    if not values or not values[0]:
        raise ValueError("heatmap needs a non-empty grid")
    frame = _frame_for([x_edges[0], x_edges[-1]], [y_edges[0], y_edges[-1]], pad=0.0)
    flat = [v for row in values for v in row]
    v_lo, v_hi = min(flat), max(flat)
    spread = (v_hi - v_lo) or 1.0
    body = []
    for j in range(len(values)):
        for i in range(len(values[0])):
            x0, x1 = frame.px(x_edges[i]), frame.px(x_edges[i + 1])
            y0, y1 = frame.py(y_edges[j + 1]), frame.py(y_edges[j])
            color = _heat_color((values[j][i] - v_lo) / spread)
            body.append(
                f'<rect x="{_num(x0)}" y="{_num(y0)}" width="{_num(x1 - x0)}"'
                f' height="{_num(y1 - y0)}" fill="{color}"/>'
            )
    body += _axes(frame, _value_ticks(frame.x_lo, frame.x_hi), x_label, y_label, title)
    bar_x = frame.left + frame.width + 16
    steps = 24
    for s in range(steps):
        y0 = frame.top + frame.height * (1 - (s + 1) / steps)
        body.append(
            f'<rect x="{_num(bar_x)}" y="{_num(y0)}" width="14"'
            f' height="{_num(frame.height / steps)}" fill="{_heat_color((s + 0.5) / steps)}"/>'
        )
    for t, anchor_y in ((v_lo, frame.top + frame.height), (v_hi, frame.top + 10)):
        body.append(
            f'<text x="{_num(bar_x + 18)}" y="{_num(anchor_y)}" {_FONT} font-size="11">{t:.2f}</text>'
        )
    body.append(
        f'<text x="{_num(bar_x)}" y="{_num(frame.top - 4)}" {_FONT} font-size="11">{value_label}</text>'
    )
    return _document(body, bar_x + 60, frame.top + frame.height + 48, title)


def box_chart(
    boxes: list[tuple[str, tuple[float, float, float, float, float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render (label, (min, q1, median, q3, max)) tuples as box-and-whisker glyphs."""
    if not boxes:
        raise ValueError("box_chart needs at least one box")
    ys = [v for _, stats in boxes for v in stats]
    frame = _frame_for([0.0, float(len(boxes))], ys)
    x_ticks = [(i + 0.5, label) for i, (label, _) in enumerate(boxes)]
    body = _axes(frame, x_ticks, x_label, y_label, title)
    half = 0.28
    for i, (_, (lo, q1, med, q3, hi)) in enumerate(boxes):
        cx = i + 0.5
        x0, x1 = frame.px(cx - half), frame.px(cx + half)
        xc = frame.px(cx)
        color = PALETTE[0]
        body.append(
            f'<line x1="{_num(xc)}" y1="{_num(frame.py(lo))}" x2="{_num(xc)}"'
            f' y2="{_num(frame.py(q1))}" stroke="#333333" stroke-width="1"/>'
        )
        body.append(
            f'<line x1="{_num(xc)}" y1="{_num(frame.py(q3))}" x2="{_num(xc)}"'
            f' y2="{_num(frame.py(hi))}" stroke="#333333" stroke-width="1"/>'
        )
        for w in (lo, hi):
            body.append(
                f'<line x1="{_num(frame.px(cx - half / 2))}" y1="{_num(frame.py(w))}"'
                f' x2="{_num(frame.px(cx + half / 2))}" y2="{_num(frame.py(w))}"'
                f' stroke="#333333" stroke-width="1"/>'
            )
        body.append(
            f'<rect x="{_num(x0)}" y="{_num(frame.py(q3))}" width="{_num(x1 - x0)}"'
            f' height="{_num(frame.py(q1) - frame.py(q3))}" fill="{color}" fill-opacity="0.35"'
            f' stroke="{color}" stroke-width="1.2"/>'
        )
        body.append(
            f'<line x1="{_num(x0)}" y1="{_num(frame.py(med))}" x2="{_num(x1)}"'
            f' y2="{_num(frame.py(med))}" stroke="{color}" stroke-width="1.8"/>'
        )
    return _document(body, frame.left + frame.width + 24, frame.top + frame.height + 48, title)
