"""Minimal self-contained SVG log-log charts (axes, polyline, labels).

No external renderer; output is a static display of curve data.
"""

from __future__ import annotations

import math

import numpy as np

from .lines import Fixed2, rows

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _log_axis(values: np.ndarray, p0: int, p1: int):
    """Place positive finite values on a log axis drawn from pixel p0 to
    pixel p1. Returns each value's pixel and the ticks as (pixel, exponent)
    pairs, one per power of ten in the values' range up to 1e308, the
    largest float one. An axis over one value spans one decade."""
    # math.log10, not np.log10, which is an ulp off on some inputs
    lv = np.fromiter(map(math.log10, values.tolist()), dtype=np.float64, count=len(values))
    l_min, l_max = float(lv.min()), float(lv.max())
    if l_max == l_min:
        l_max += 1.0

    # on a float (a tick) or an array (the points), in the same operations
    def pixel(v):
        return p0 + (v - l_min) / (l_max - l_min) * (p1 - p0)

    lo, hi = 10 ** l_min, 10 ** min(l_max, 308.0)
    first, last = math.floor(math.log10(lo)), min(math.ceil(math.log10(hi)), 308)
    # the log of each float power of ten, which below 1e-311 is not its k
    ticks = [math.log10(10.0 ** k) for k in range(first, last + 1) if lo <= 10.0 ** k <= hi]
    return pixel(lv), [(pixel(t), int(t)) for t in ticks]


def loglog_svg(x, y, title: str, xlabel: str, ylabel: str) -> str:
    """Render the points (x[k], y[k]) of two equal-length arrays as a log-log
    polyline. A point with a non-positive or non-finite coordinate is
    dropped (it has no place on log axes)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    on_axes = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    x, y = x[on_axes], y[on_axes]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{(x0 + x1) / 2}" y="{_H - 12}" text-anchor="middle" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2})">{ylabel}</text>')
    if len(x):
        px, x_ticks = _log_axis(x, x0, x1)
        py, y_ticks = _log_axis(y, y0, y1)
        for p, e in x_ticks:
            parts.append(f'<line x1="{p:.1f}" y1="{y0}" x2="{p:.1f}" y2="{y0 + 5}" '
                         f'stroke="black"/>')
            parts.append(f'<text x="{p:.1f}" y="{y0 + 20}" text-anchor="middle" '
                         f'font-size="11">1e{e}</text>')
        for p, e in y_ticks:
            parts.append(f'<line x1="{x0 - 5}" y1="{p:.1f}" x2="{x0}" y2="{p:.1f}" '
                         f'stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{p + 4:.1f}" text-anchor="end" '
                         f'font-size="11">1e{e}</text>')
        coords = rows([Fixed2(px), Fixed2(py)])[:-1].replace("\n", " ")
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
