"""plotting.loglog_svg against the per-point f-string renderer it replaced:
the SVG text must be the same, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netforge.plotting import _H, _MB, _ML, _MR, _MT, _W, loglog_svg


def reference_ticks(lo: float, hi: float) -> list[float]:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** k for k in range(first, last + 1) if lo <= 10.0 ** k <= hi]


def reference_svg(points, title, xlabel, ylabel) -> str:
    """The renderer before the polyline was written in bulk: one math.log10
    and two :.2f f-strings per point. Non-finite points are dropped here as
    in loglog_svg; the renderer it copies raised OverflowError on them, and
    raises it still where an axis reaches past 1e308."""
    pts = [(x, y) for x, y in points if 0 < x < math.inf and 0 < y < math.inf]
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
    if pts:
        lx = [math.log10(x) for x, _ in pts]
        ly = [math.log10(y) for _, y in pts]
        lx_min, lx_max = min(lx), max(lx)
        ly_min, ly_max = min(ly), max(ly)
        if lx_max == lx_min:
            lx_max += 1.0
        if ly_max == ly_min:
            ly_max += 1.0

        def sx(v: float) -> float:
            return x0 + (v - lx_min) / (lx_max - lx_min) * (x1 - x0)

        def sy(v: float) -> float:
            return y0 - (v - ly_min) / (ly_max - ly_min) * (y0 - y1)

        for t in reference_ticks(10 ** lx_min, 10 ** lx_max):
            px = sx(math.log10(t))
            parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" '
                         f'stroke="black"/>')
            parts.append(f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
                         f'font-size="11">1e{int(math.log10(t))}</text>')
        for t in reference_ticks(10 ** ly_min, 10 ** ly_max):
            py = sy(math.log10(t))
            parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" '
                         f'stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                         f'font-size="11">1e{int(math.log10(t))}</text>')
        coords = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    expected = reference_svg(list(zip(x.tolist(), y.tolist())), "T", "x", "y")
    assert loglog_svg(x, y, "T", "x", "y") == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 6.0))
def test_lognormal_pairs(n, seed, sigma):
    rng = np.random.default_rng(seed)
    check(rng.lognormal(0.0, sigma, n), rng.lognormal(1.0, sigma, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 500), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_rank_curves_with_zeros(n, seed, runs):
    # a batch's mean rank curve: sorted means of k / runs, ending in zeros
    rng = np.random.default_rng(seed)
    degrees = rng.geometric(0.2, (runs, n)) - 1
    curve = np.sort(degrees, axis=1)[:, ::-1].mean(axis=0)
    check(np.arange(1, n + 1), curve)


# below 1e300, so that no axis of the reference reaches past 1e308
coordinates = st.floats(max_value=1e300) | st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), max_size=12))
@example([(1.0, 2.0), (math.inf, 3.0)])
@example([(1.0, 2.0), (3.0, math.nan), (-1.0, 5.0), (0.0, 1.0)])
def test_any_floats(pairs):
    check([x for x, _ in pairs], [y for _, y in pairs])


@pytest.mark.parametrize("x, y", [
    ([5.0], [7.0]),                         # a single point
    ([1.0, 10.0, 100.0], [3.0, 3.0, 3.0]),  # flat y
    ([2.0, 2.0], [1.0, 50.0]),              # flat x
    ([], []),
    ([0.0, -1.0], [1.0, 1.0]),              # no point on the axes
])
def test_edge_cases(x, y):
    check(x, y)


def test_drops_non_finite_points():
    svg = loglog_svg([1.0, math.inf, 10.0, 4.0], [2.0, 3.0, 20.0, math.inf], "T", "x", "y")
    assert svg == loglog_svg([1.0, 10.0], [2.0, 20.0], "T", "x", "y")
    assert 'points="70.00,430.00 620.00,40.00"' in svg


@pytest.mark.parametrize("x, last_tick", [
    ([1.0, 1.7e308], "1e308"),
    ([1e308], "1e308"),         # one x: the axis runs to 1e309
    ([1.5e308], "1e1"),         # no float power of ten on the x axis; y's 1e1
])
def test_axes_reaching_past_1e308(x, last_tick):
    # the largest float power of ten is the last tick
    svg = loglog_svg(x, [2.0] * len(x), "T", "x", "y")
    assert f">{last_tick}</text>" in svg and ">1e309</text>" not in svg
