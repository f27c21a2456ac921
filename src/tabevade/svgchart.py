"""Minimal standalone SVG line/bar charts (no renderer dependencies).

Charts embed their data points in a <desc> block so output diffs cleanly.
"""
from __future__ import annotations

from html import escape

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 40, 55
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced axis ticks from ``lo`` to ``hi``."""
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _header(title: str, data_lines: list[str]) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<desc>{escape(chr(10).join(data_lines), quote=False)}</desc>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{escape(title, quote=False)}</text>',
    ]


def _axes(xlabel: str, ylabel: str) -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H
    return [
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + PLOT_W}" y2="{y0}" stroke="black"/>',
        f'<text x="{x0 + PLOT_W / 2}" y="{HEIGHT - 10}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{escape(xlabel, quote=False)}</text>',
        f'<text x="18" y="{MARGIN_TOP + PLOT_H / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_TOP + PLOT_H / 2})">'
        f"{escape(ylabel, quote=False)}</text>",
    ]


def line_chart(points: list[tuple[float, float]], title: str, xlabel: str, ylabel: str) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = min(0.0, min(ys, default=0.0)), max(1.0, max(ys, default=1.0))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(y: float) -> float:
        return MARGIN_TOP + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    parts = _header(title, [f"{_fmt(x)},{_fmt(y)}" for x, y in points])
    parts += _axes(xlabel, ylabel)
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(t):.1f}" y="{MARGIN_TOP + PLOT_H + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py(t):.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{py(t):.1f}" x2="{MARGIN_LEFT + PLOT_W}" '
            f'y2="{py(t):.1f}" stroke="#dddddd"/>'
        )
    if points:
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
        for x, y in points:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="#1f6fb2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(bars: list[tuple[str, float]], title: str, xlabel: str, ylabel: str) -> str:
    y_lo, y_hi = min(0.0, min((v for _, v in bars), default=0.0)), max(
        1.0, max((v for _, v in bars), default=1.0)
    )

    def py(y: float) -> float:
        return MARGIN_TOP + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    parts = _header(title, [f"{label},{_fmt(v)}" for label, v in bars])
    parts += _axes(xlabel, ylabel)
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py(t):.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
        )
    slot = PLOT_W / max(len(bars), 1)
    width = slot * 0.6
    zero_y = py(max(0.0, y_lo))
    for i, (label, value) in enumerate(bars):
        x = MARGIN_LEFT + slot * i + (slot - width) / 2
        top = min(py(value), zero_y)
        height = abs(py(value) - zero_y)
        parts.append(
            f'<rect x="{x:.1f}" y="{top:.1f}" width="{width:.1f}" height="{height:.1f}" fill="#1f6fb2"/>'
        )
        parts.append(
            f'<text x="{x + width / 2:.1f}" y="{MARGIN_TOP + PLOT_H + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
