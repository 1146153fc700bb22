"""lines.rows against Python's own "%d", "%.12g" and "%.2f" row by row: every
byte of its output must be what the % operator writes."""

import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netforge.lines import _TENS, SLICE, Fixed2, row_slices, rows


def reference(*columns) -> str:
    """One "%d" or "%.12g" entry per value, by its column's dtype."""
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns) + "\n"
    return "".join(line % row for row in zip(*(c.tolist() for c in columns)))


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def nearest_tie(k: int, j: int) -> float:
    """The float nearest to (k + 1/2) * 10**j: a tie at 12 digits when
    10**11 <= k < 10**12, and of %.2f when j == -2."""
    return float(Decimal(2 * k + 1) * Decimal(10) ** j / 2)


def neighbours(x: float, steps: int) -> float:
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, toward))
    return x


signed = st.tuples(st.booleans(), st.floats(min_value=0.0)).map(
    lambda t: -t[1] if t[0] else t[1])
floats = st.one_of(
    st.floats(),                                        # NaN, inf, subnormals, +-0
    signed,
    st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits),
    st.builds(lambda k, j, s: neighbours(nearest_tie(k, j), s),
              st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-320, 300),
              st.integers(-2, 2)),
    st.builds(neighbours, st.sampled_from([1e-5, 1e-4, neighbours(1e-4, -1), 1e11, 1e12,
                                           999999999999.5, 1e-300, 1e300]
                                          + [float(f"1e{k}") for k in range(-3, 11)]),
              st.integers(-3, 3)),
    # 12 nines and a half at each exponent: %.12g carries it to the next power of ten
    st.builds(lambda j, s: neighbours(nearest_tie(10 ** 12 - 1, j), s),
              st.integers(-15, 0), st.integers(-2, 2)),
    st.integers(-2 ** 53, 2 ** 53).map(float),
)
ids = st.one_of(st.sampled_from([0, 9, 10, 9999, 10 ** 4, 2 ** 62 - 1, 2 ** 63 - 1]),
                st.integers(0, 2 ** 63 - 1))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(ids, floats), max_size=20))
@example([(1, 123456789012.5), (2, 999999999999.5), (3, -0.0), (4, 5e-324),
          (5, 99999999999.95), (6, 9.99999999999995e-05), (7, float("nan"))])
@example([(1, 999999999999.5), (2, neighbours(999999999999.5, -1)), (3, 1e-4),
          (4, neighbours(1e-4, -1)), (5, -999999999999.5), (6, -neighbours(1e-4, -1)),
          (7, 9.9999999999996), (8, -0.00099999999999996)])      # rounded up to 10**(e + 1)
def test_int_and_float_columns(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    assert rows([keys, values]) == reference(keys, values)


def test_exponent_table_is_exact():
    """x >= _TENS[e + 4] exactly when x >= 10**e, for every float x."""
    for k in range(-4, 12):
        power = _TENS[k + 4]
        assert Fraction(float(power)) >= Fraction(10) ** k > Fraction(neighbours(power, -1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ids, ids), max_size=20))
def test_int_columns(pairs):
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    assert rows([src, dst]) == reference(src, dst)


cents = st.one_of(
    floats,
    st.builds(lambda k, s: neighbours(nearest_tie(k, -2), s),
              st.one_of(st.integers(0, 10 ** 5), st.integers(0, 2 ** 60)), st.integers(-2, 2)),
    st.builds(neighbours, st.sampled_from([2.0 ** 52 / 100, 2.0 ** 53 / 100, 4e10, 1e13,
                                           1.2e14, 1e15, 1e17, 0.005]),
              st.integers(-3, 3)),
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e17),
)


def reference_fixed2(columns) -> str:
    line = ",".join(["%.2f"] * len(columns)) + "\n"
    return "".join(line % row for row in zip(*(c.tolist() for c in columns)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(cents, cents), max_size=20))
@example([(0.125, 0.005), (-0.0, 1e300), (float("inf"), -1.005), (2.0 ** 52 / 100, 0.0)])
def test_fixed2_columns(pairs):
    x = np.array([a for a, _ in pairs], dtype=np.float64)
    y = np.array([b for _, b in pairs], dtype=np.float64)
    assert rows([Fixed2(x), Fixed2(y)]) == reference_fixed2([x, y])


@pytest.mark.parametrize("n", [1, SLICE, SLICE + 1, 2 * SLICE + 3])
def test_fixed2_across_slices(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 700.0, n)
    x[::5] = np.round(x[::5] * 100) / 100 + 0.005       # near %.2f ties
    x[::13] = np.resize([np.nan, -3.25, 1e300, -0.0, 1e15], len(x[::13]))
    keys = rng.integers(0, 10 ** 6, n)
    text = "".join("%d,%.2f\n" % r for r in zip(keys.tolist(), x.tolist()))
    assert rows([keys, Fixed2(x)]) == text
    assert b"".join(row_slices([keys, Fixed2(x)])) == text.encode()


@pytest.mark.parametrize("n", [0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 3])
def test_row_counts_across_slices(n):
    rng = np.random.default_rng(n)
    values = rng.lognormal(0.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    values[::7] = rng.integers(0, 10 ** 6, len(values[::7]))
    values[::11] = np.resize([np.nan, np.inf, -0.0, 0.5, 1e-320], len(values[::11]))
    keys = rng.integers(0, 2 ** 62, n)
    assert rows([keys, values]) == reference(keys, values)
    assert rows([keys]) == reference(keys)


def test_rejects_what_it_cannot_write():
    with pytest.raises(ValueError, match="non-negative"):
        rows([np.array([3, -1])])
    with pytest.raises(ValueError, match="length"):
        rows([np.arange(3), np.ones(2)])
    with pytest.raises(TypeError):
        rows([[1.5, 2.5]])
    with pytest.raises(TypeError):
        rows([np.arange(2), ["a", "b"]])
