"""Tiny dependency-free SVG charts; CSV stays the source of truth."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

_W, _H = 640, 400
_MARGIN = 55


def _scale(values: Sequence[float], lo_px: float, hi_px: float):
    vmin, vmax = min(values, default=0.0), max(values, default=0.0)  # empty: empty axes
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v: float) -> float:
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def line_chart(
    path: str | Path,
    x: Sequence[float],
    y: Sequence[float],
    band: tuple[Sequence[float], Sequence[float]] | None = None,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    points: bool = False,
) -> None:
    """Write a single-series line chart, optionally with a shaded band."""
    ys_all = list(y) + (list(band[0]) + list(band[1]) if band else [])
    sx, xmin, xmax = _scale(list(x), _MARGIN, _W - 20)
    sy, ymin, ymax = _scale(ys_all, _H - _MARGIN, 20)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if band is not None:
        lo, hi = band
        ring = [(sx(a), sy(b)) for a, b in zip(x, hi)]
        ring += [(sx(a), sy(b)) for a, b in reversed(list(zip(x, lo)))]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in ring)
        parts.append(f'<polygon points="{pts}" fill="#9ecae1" fill-opacity="0.5"/>')
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#08519c" stroke-width="1.5"/>'
    )
    if points:
        for a, b in zip(x, y):
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.5" fill="#08519c"/>')
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 20}" y2="{_H - _MARGIN}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="20" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>'
    )
    for i in range(5):
        xv = xmin + (xmax - xmin) * i / 4
        yv = ymin + (ymax - ymin) * i / 4
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_H - _MARGIN + 16}" font-size="10" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{sy(yv):.2f}" font-size="10" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    if title:
        parts.append(
            f'<text x="{_W / 2:.0f}" y="14" font-size="13" text-anchor="middle">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_W / 2:.0f}" y="{_H - 8}" font-size="11" text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{_H / 2:.0f}" font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 14 {_H / 2:.0f})">{y_label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
