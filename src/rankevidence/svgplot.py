"""Minimal self-contained SVG line/scatter charts for study diagnostics.

No rendering dependency: the output is a standalone SVG string with axes,
ticks, labels, and a legend.  Figures are diagnostic, not publication-grade.
"""

from __future__ import annotations

import html
import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 460
_MARGIN = {"left": 78, "right": 24, "top": 44, "bottom": 58}


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _fmt_tick(t: float) -> str:
    if t == int(t) and abs(t) < 1e6:
        return str(int(t))
    return f"{t:.4g}"


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labeled (x, y) series as a standalone SVG document."""
    if not series or not any(len(xs) for _, xs, _ in series):
        raise ValueError("line_chart needs at least one nonempty series")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    px0, px1 = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    py0, py1 = _HEIGHT - _MARGIN["bottom"], _MARGIN["top"]

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y: float) -> float:
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="16">'
        f"{html.escape(title, quote=False)}</text>",
    ]
    # axes
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>'
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{py0}" x2="{x:.1f}" y2="{py0 + 5}" stroke="black"/>'
            f'<text x="{x:.1f}" y="{py0 + 20}" text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{px0 - 5}" y1="{y:.1f}" x2="{px0}" y2="{y:.1f}" stroke="black"/>'
            f'<text x="{px0 - 9}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(t)}</text>'
            f'<line x1="{px0}" y1="{y:.1f}" x2="{px1}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="0.6"/>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2}" y="{_HEIGHT - 14}" text-anchor="middle">'
        f"{html.escape(xlabel, quote=False)}</text>"
        f'<text x="20" y="{(py0 + py1) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(py0 + py1) / 2})">'
        f"{html.escape(ylabel, quote=False)}</text>"
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = py1 + 8 + 18 * idx
        parts.append(
            f'<line x1="{px1 - 150}" y1="{ly}" x2="{px1 - 126}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{px1 - 120}" y="{ly + 4}">{html.escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
