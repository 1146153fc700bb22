"""Line-by-line text parsing and writing, each with a bulk numpy path.

The edge-list and follower-CSV readers each give two rules for one line of
text. A numpy rule reads every *regular* line at once from the text's UTF-8
bytes: lines of one fixed shape whose values are runs of ASCII digits. A
per-line rule reads every other line (blanks, whitespace, signs, headers,
errors) in line order, so it alone decides which error is raised first. On
a regular line both rules give the same value. The lines are the ones
`str.splitlines` gives, numbered from 1.

`rows` writes columns of numbers as CSV rows, byte for byte as Python's
``%d``, ``%.12g`` and (for a `Fixed2` column) ``%.2f`` write them, with numpy
digit tables. A float is scaled by an exact power of ten, so the product is
rounded once, and its `rint` is proven unless the product is on a half (see
`rint_scaled`). ``%.12g`` is written in bulk only in its fixed notation
(1e-4 <= |x| < 999999999999.5, and 0); a value in exponent form, a
non-finite one and one whose rounding is not proven go through Python's
``%``.
"""

from __future__ import annotations

import numpy as np

MAX_DIGITS = 18     # such a run is exact in int64 and casts to float64 as float() rounds it

# str.splitlines boundaries other than "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def digit_runs(data: np.ndarray, ends: np.ndarray):
    """(values, firsts) of the run of ASCII digits that ends before each
    offset in ends (>= 0) of the byte array data, read backwards for at most
    MAX_DIGITS digits: firsts[k] is the offset of the run's first digit
    (ends[k] when no digit comes before it) and values[k] its int64 value.
    One pass per digit position, up to the longest run. The byte before a
    line of scan_lines is "\n" (data[-1] for the first line), so no run
    read from inside a line reaches past its start."""
    values = np.zeros(len(ends), dtype=np.int64)
    firsts = ends.copy()
    for k in range(MAX_DIGITS):
        digit = data[firsts - 1] - ord("0")     # uint8: > 9 unless a digit
        live = digit <= 9
        if not live.any():
            break
        values += np.where(live, digit, 0) * np.int64(10 ** k)
        firsts -= live
    return values, firsts


def scan_lines(text: str, regular, parse_line):
    """Parse the lines of text into (values, line_nos): values has one column
    per line that carries an entry, in line order, and line_nos holds the
    1-based numbers of those lines.

    ``regular(data, starts, ends)`` gets the text's UTF-8 bytes and the
    offsets of each line's first byte and of its end. It returns (read,
    values): a mask of the lines it read and a (fields, lines) array of their
    entries. ``parse_line(line_no, raw)`` gets every other line, in line
    order, and returns its entry as a tuple of fields, None for a line that
    carries none, or raises.
    """
    if any(c in text for c in _OTHER_BREAKS):
        text = "".join(line + "\n" for line in text.splitlines())   # the same lines
    elif text and not text.endswith("\n"):
        text += "\n"
    buf = text.encode("utf-8", "surrogatepass")
    data = np.frombuffer(buf, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    read, values = regular(data, starts, ends)
    taken, entries = [], []
    other = np.flatnonzero(~read)
    for k, s, e in zip(other.tolist(), starts[other].tolist(), ends[other].tolist()):
        entry = parse_line(k + 1, buf[s:e].decode("utf-8", "surrogatepass"))
        if entry is not None:
            taken.append(k)
            entries.append(entry)
    if taken:
        values[:, taken] = np.array(entries, dtype=values.dtype).T
        read[taken] = True
    return values.compress(read, axis=1), np.flatnonzero(read) + 1


# -- writing -----------------------------------------------------------------
#
# rows() writes a slice of rows at a time into a (rows, bytes) array copied
# from one line template, then keeps the bytes a per-row mask selects. Every
# field takes whole 4-byte words of the line, so that its digits go in as
# uint32 words, four at a time, from a 10**4-entry table. A field starts with
# a word that holds its separator; in the first field that is the "\n" that
# ends the row before.

SLICE = 1 << 13     # rows formatted at once: bounds the temporaries


def _words(table) -> np.ndarray:
    """Each row of 4 bytes of table as one uint32."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32).ravel()


_k = np.arange(10_000)
_DIGITS4 = np.stack([_k // 1000, _k // 100 % 10, _k // 10 % 10, _k % 10], axis=1) + ord("0")
_QUADS = _words(_DIGITS4)      # k -> the 4 digits of k, zero-padded
_CENTS = _words(np.column_stack((np.full(100, ord(".")), _DIGITS4[:100, 2:],
                                 np.zeros(100))))     # k < 100 -> "." and 2 digits
_QUAD_ZEROS = sum((_k % 10 ** j == 0).astype(np.int8) for j in (1, 2, 3, 4))  # 4 for 0
# for the leading 4 of 12 digits, 0 only when all are: the 12 zeros of 0 then
# count as 11, so that 0 is written as "0"
_TOP_ZEROS = np.minimum(_QUAD_ZEROS, 3)
del _k, _DIGITS4
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)    # an int64 has < 20 digits
_SCALE = (10 ** np.arange(16)).astype(np.float64)     # 10**k, exact below 2**53

# A %.12g field in fixed notation holds a value's 12 rounded digits d0..d11
# and exponent e (d0.d1...d11 * 10**e, -4 <= e < 12) at fixed bytes of its
# 32-byte template, in words:
#   ",-0_"  d0-d3 d4-d7 d8-d11 (integer part)  ".000"  d0-d3 d4-d7 d8-d11 (fraction part)
# (_ is never kept). Its mask depends on the sign, e and the count k of
# digits left once trailing zeros are stripped.
_FLOAT_TEMPLATE = b",-0\0" + b"0" * 12 + b".000" + b"0" * 12


def _float_keep() -> np.ndarray:
    """(2 * 16 * 12, 32) masks, row neg * 192 + 12 * (e + 4) + k - 1."""
    neg = np.arange(2)[:, None, None, None]
    e = np.arange(-4, 12)[None, :, None, None]
    k = np.arange(1, 13)[None, None, :, None]
    j = np.arange(len(_FLOAT_TEMPLATE))
    first_fraction = np.maximum(e + 1, 0)   # the first digit after the point
    a, z, b = j - 4, j - 17, j - 20         # offsets in each part
    keep = (j == 0) | ((j == 1) & (neg == 1)) | ((j == 2) & (e < 0))
    keep = keep | ((0 <= a) & (a <= e))     # 123.45
    keep = keep | ((j == 16) & (k > first_fraction))
    keep = keep | ((0 <= z) & (z < -e - 1))     # 0.0012345
    keep = keep | ((first_fraction <= b) & (b < k))
    return keep.reshape(-1, len(_FLOAT_TEMPLATE))


_FLOAT_KEEP = _float_keep()


def rint_scaled(x: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, proven): r = rint(x * scale) as floats, and a mask of where r is
    the integer nearest the exact product x * scale, as Python's correctly
    rounded conversions (``round``, ``%.2f``) find it. scale must be a float
    that is exact, such as 10**k for k <= 22.

    The product is then rounded once, by at most half a unit u of its last
    place. Below 2**52 both r and 0.5 are multiples of u, so a product that
    is not exactly a half away from r is within 0.5 - u and the exact one
    within 0.5 - u / 2 of r. Not proven: NaN, inf, |x * scale| >= 2**52 and
    products on a half."""
    small = np.abs(x) < 2.0 ** 52 / scale       # no overflow below; NaN compares false
    m = np.where(small, x, 0.0) * scale
    r = np.rint(m)
    return r, small & (np.abs(m) < 2.0 ** 52) & (np.abs(m - r) != 0.5)


def _splice(text: np.ndarray, keep: np.ndarray, at: np.ndarray, spliced: np.ndarray) -> None:
    """In the field's rows `at`, put the bytes Python's % wrote for their
    values (spliced, an S array one byte narrower than the field) after the
    separator, and keep as many bytes as each holds."""
    text[at, 1:] = spliced.view(np.uint8).reshape(len(at), -1)
    keep[at, 1:] = np.arange(text.shape[1] - 1) < np.char.str_len(spliced)[:, None]


class _IntField:
    """Non-negative integers as %d: right-aligned digits, leading zeros
    dropped, in a field of at least `width` digits."""

    def __init__(self, values: np.ndarray, width: int = 1):
        self.values = np.asarray(values, dtype=np.int64)
        if len(values) and self.values.min() < 0:
            raise ValueError("an integer column must be non-negative")
        digits = max(int(np.searchsorted(_POW10, self.values.max(initial=0),
                                         side="right")) + 1, width)
        self._pow10 = _POW10[:digits - 1]
        self.groups = -(-digits // 4)
        self.template = b",\0\0\0" + b"0" * 4 * self.groups
        # _keep[d]: the mask of a value of d digits
        j = np.arange(len(self.template))
        self._keep = (j == 0) | (j >= len(self.template) - np.arange(digits + 1)[:, None])

    def write(self, lo: int, hi: int, text: np.ndarray, keep: np.ndarray) -> None:
        v = self.values[lo:hi]
        keep[:] = self._keep.take(np.searchsorted(self._pow10, v, side="right") + 1, axis=0)
        quads = text.view(np.uint32)
        for g in range(self.groups, 1, -1):
            high = v // 10_000
            quads[:, g] = _QUADS.take(v - high * 10_000)
            v = high
        quads[:, 1] = _QUADS.take(v)


class _FloatField:
    """Floats as %.12g: by float arithmetic where %.12g writes the fixed
    notation (1e-4 <= |x| < 999999999999.5, and 0) and one rounding proves
    its digits, and by Python's % elsewhere."""

    template = _FLOAT_TEMPLATE

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)

    def write(self, lo: int, hi: int, text: np.ndarray, keep: np.ndarray) -> None:
        x = self.values[lo:hi]
        a = np.abs(x)
        fixed = (a >= 1e-4) & (a < 999999999999.5)     # NaN compares false
        e = np.clip(np.floor(np.log10(np.where(fixed, a, 1.0))), -4, 11).astype(np.int64)
        m = np.where(fixed, a, 0.0) * _SCALE.take(11 - e)
        # m is |x| * 10**(11 - e) rounded once, so, as in rint_scaled, its
        # rint is the exact product's unless m is on a half. Where log10 put
        # e one off near a power of ten, m is outside [1e11, 1e12); such
        # values, and those outside the range or on a half, go to Python.
        r = np.rint(m)
        exact = (m >= 1e11) & (m < 1e12) & (np.abs(m - r) != 0.5)
        r = (r * exact).astype(np.int64)        # 0, written as "0", where not exact
        carry = r == 10 ** 12                   # never at e = 11: there m < 999999999999.5
        r -= carry * (9 * 10 ** 11)
        e += carry
        high = r // 10 ** 8
        mid = r // 10 ** 4
        low = r - mid * 10 ** 4
        mid -= high * 10 ** 4
        zeros = _QUAD_ZEROS.take(low) + (low == 0) * (
            _QUAD_ZEROS.take(mid) + (mid == 0) * _TOP_ZEROS.take(high))
        row = 12 * (e + 4) + np.signbit(x) * 192 + (11 - zeros)
        keep[:] = _FLOAT_KEEP.take(row, axis=0)
        words = text.view(np.uint32)
        for j, part in ((1, high), (2, mid), (3, low)):
            words[:, j] = words[:, j + 4] = _QUADS.take(part)
        other = np.flatnonzero(~(exact | (x == 0)))     # NaN, inf, exponent form, halves
        if len(other):
            _splice(text, keep, other, np.array(
                [("%.12g" % v).encode() for v in x[other].tolist()],
                dtype=f"S{len(self.template) - 1}"))


class Fixed2(_IntField):
    """A float column for `rows` to write as %.2f: the integer part as
    _IntField writes it, then "." and 2 digits, where `rint_scaled` proves
    the rounding of x * 100 and the sign bit is clear; by Python's % for any
    other value (negatives, -0.0, NaN, inf, |x| >= 2**52 / 100, products on
    a half)."""

    def __init__(self, values):
        x = np.asarray(values, dtype=np.float64)
        cents, proven = rint_scaled(x, 100.0)
        proven &= ~np.signbit(x)
        cents = (cents * proven).astype(np.int64)
        self._other = np.flatnonzero(~proven)
        spliced = [("%.2f" % v).encode() for v in x[self._other].tolist()]
        super().__init__(cents // 100, width=max(map(len, spliced), default=0) - 3)
        self._cents = cents % 100
        self.template += b".00\0"
        self._spliced = np.array(spliced, dtype=f"S{len(self.template) - 1}")

    def write(self, lo: int, hi: int, text: np.ndarray, keep: np.ndarray) -> None:
        super().write(lo, hi, text[:, :-4], keep[:, :-4])
        text[:, -4:].view(np.uint32)[:, 0] = _CENTS.take(self._cents[lo:hi])
        keep[:, -4:] = [True, True, True, False]
        a, b = np.searchsorted(self._other, (lo, hi))
        if a < b:
            _splice(text, keep, self._other[a:b] - lo, self._spliced[a:b])


def _field(values):
    if isinstance(values, Fixed2):
        return values
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return _IntField(values)
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return _FloatField(values)
    raise TypeError("a column is an integer or float array, or a Fixed2")


def rows(columns, end: str = "\n") -> str:
    """The lines of a CSV table: for each row, its entry of every column,
    joined by "," and ended by `end`, one ASCII character. A column is a
    non-negative integer array (written as %d), a float array (as %.12g) or a
    Fixed2 of floats (as %.2f); every column has the same length."""
    if len(end) != 1 or not end.isascii():
        raise ValueError(f"end must be one ASCII character, got {end!r}")
    fields = [_field(c) for c in columns]
    n = len(fields[0].values) if fields else 0
    if any(len(f.values) != n for f in fields):
        raise ValueError("columns differ in length")
    if not n:
        return ""
    # each row starts with `end` in place of the first field's separator
    line = np.frombuffer(end.encode() + b"".join(f.template for f in fields)[1:], dtype=np.uint8)
    stops = np.cumsum([len(f.template) for f in fields])
    block = np.tile(line, (min(n, SLICE), 1))
    pieces = []
    for lo in range(0, n, SLICE):
        hi = min(lo + SLICE, n)
        text = block[:hi - lo].copy()
        keep = np.empty(text.shape, dtype=bool)
        for f, stop in zip(fields, stops):
            start = stop - len(f.template)
            f.write(lo, hi, text[:, start:stop], keep[:, start:stop])
        pieces.append(text[keep].tobytes())
    pieces[0] = pieces[0][1:]       # drop the `end` before the first row, add the last one
    return b"".join(pieces + [end.encode()]).decode("utf-8")
