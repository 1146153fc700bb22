"""Line-by-line text parsing and writing, each with a bulk numpy path.

The edge-list and follower-CSV readers each give two rules for one line of
text. A numpy rule reads every *regular* line at once from the text's UTF-8
bytes: lines of one fixed shape whose values are runs of ASCII digits. A
per-line rule reads every other line (blanks, whitespace, signs, headers,
errors) in line order, so it alone decides which error is raised first. On
a regular line both rules give the same value. The lines are the ones
`str.splitlines` gives, numbered from 1.

`row_slices` writes columns of numbers as CSV rows, a slice of rows at a
time, byte for byte as Python's ``%d``, ``%.12g`` and (for a `Fixed2`
column) ``%.2f`` write them, with numpy digit tables; `rows` joins the
slices into one string. A float is scaled by an exact power of ten, so the
product is rounded once, and `rint_scaled` proves its `rint` unless the
product is on a half. ``%.12g`` is written in bulk only for non-negative
values in its fixed notation (1e-4 <= x < 999999999999.5, and +0), with the
exponent read from a table of exact powers of ten; a negative value, -0, a
value in exponent form, a non-finite one, one that rounds up to the next
power of ten and one whose rounding is not proven go through Python's ``%``.
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
# row_slices() writes a slice of rows at a time into a (rows, bytes) array
# tiled from one line template, then deletes its NUL bytes: each field
# writes NUL in every byte of its width that a row does not keep (no digit,
# sign or separator is NUL). Every field takes whole 4-byte words of
# the line, so that its digits go in as uint32 words, four at a time, from
# 10**4-entry tables. A field starts with a word that holds its separator and
# three NULs; in the first field the separator is the `end` of the row before.

SLICE = 1 << 13     # rows formatted at once: bounds the temporaries


def _words(table) -> np.ndarray:
    """Each row of 4 bytes of table as one uint32."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32).ravel()


_k = np.arange(10_000)
_DIGITS4 = np.stack([_k // 1000, _k // 100 % 10, _k // 10 % 10, _k % 10], axis=1) + ord("0")
_QUADS = _words(_DIGITS4)      # k -> the 4 digits of k, zero-padded
_LEADING = _k[:, None] < 10 ** np.arange(3, -1, -1)     # the leading zeros of k
# k -> its digits with the leading zeros NUL: at 10**4 + k, 0 as NUL only; at
# 2 * 10**4 + k, 0 as "0"; (before them, at k, all 4 digits)
_INT_QUADS = np.concatenate([_QUADS, _words(np.where(_LEADING, 0, _DIGITS4)),
                             _words(np.where(_LEADING & (np.arange(4) < 3), 0, _DIGITS4))])
_CENTS = _words(np.column_stack((np.full(100, ord(".")), _DIGITS4[:100, 2:],
                                 np.zeros(100))))     # k < 100 -> "." and 2 digits
_QUAD_ZEROS = sum((_k % 10 ** j == 0).astype(np.int8) for j in (1, 2, 3, 4))  # 4 for 0
del _k, _DIGITS4, _LEADING
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)    # an int64 has < 20 digits
_SCALE = (10 ** np.arange(16)).astype(np.float64)     # 10**k, exact below 2**53
# 10**e for -4 <= e < 12, as floats: exact from e = 0, and for e < 0 the
# nearest float lies above 10**e and the float below it below, so x >= _TENS[e + 4]
# exactly when x >= 10**e
_TENS = 10.0 ** np.arange(-4, 12)

# A %.12g field in fixed notation holds a value's 12 rounded digits d0..d11
# and exponent e (d0.d1...d11 * 10**e, -4 <= e < 12) at fixed bytes of its
# 32-byte template, in words:
#   ",_0_"  d0-d3 d4-d7 d8-d11 (integer part)  ".000"  d0-d3 d4-d7 d8-d11 (fraction part)
# (_ is never kept). Which bytes it keeps depends on e and the count k of
# digits left once trailing zeros are stripped.
_FLOAT_TEMPLATE = b",_0_" + b"0" * 12 + b".000" + b"0" * 12


def _float_keep() -> np.ndarray:
    """(16 * 12, 32) masks, row 12 * (e + 4) + k - 1."""
    e = np.arange(-4, 12)[:, None, None]
    k = np.arange(1, 13)[None, :, None]
    j = np.arange(len(_FLOAT_TEMPLATE))
    first_fraction = np.maximum(e + 1, 0)   # the first digit after the point
    a, z, b = j - 4, j - 17, j - 20         # offsets in each part
    keep = (j == 0) | ((j == 2) & (e < 0))
    keep = keep | ((0 <= a) & (a <= e))     # 123.45
    keep = keep | ((j == 16) & (k > first_fraction))
    keep = keep | ((0 <= z) & (z < -e - 1))     # 0.0012345
    keep = keep | ((first_fraction <= b) & (b < k))
    return keep.reshape(-1, len(_FLOAT_TEMPLATE))


def _float_words() -> np.ndarray:
    """(16 * 12, 8) words, by the rows of _float_keep: the kept bytes of
    ",_0_" and ".000", 0xff for a kept digit, NUL for any other byte."""
    template = np.frombuffer(_FLOAT_TEMPLATE, dtype=np.uint8)
    digit = (np.arange(len(template)) // 4) % 4 != 0
    return np.where(_float_keep(), np.where(digit, 0xff, template), 0).astype(np.uint8).view(
        np.uint32)


_FLOAT_WORDS = _float_words()


def rint_scaled(x: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, proven): r = rint(x * scale) as floats, and a mask of where r is
    the integer nearest the exact product x * scale, as Python's correctly
    rounded conversions (``round``, ``%.2f``) find it. scale must be a float
    that is exact, such as 10**k for k <= 22, or an array of such floats,
    one per value.

    The product is then rounded once, by at most half a unit u of its last
    place. Below 2**52 both r and 0.5 are multiples of u, so a product that
    is not exactly a half away from r is within 0.5 - u and the exact one
    within 0.5 - u / 2 of r. Not proven: NaN, inf, |x * scale| >= 2**52 and
    products on a half."""
    small = np.abs(x) < 2.0 ** 52 / scale       # no overflow below; NaN compares false
    m = np.where(small, x, 0.0) * scale
    r = np.rint(m)
    return r, small & (np.abs(m) < 2.0 ** 52) & (np.abs(m - r) != 0.5)


def _splice(text: np.ndarray, at: np.ndarray, spliced: np.ndarray) -> None:
    """In the field's rows `at`, put the bytes Python's % wrote for their
    values (spliced, an S array one byte narrower than the field, so NUL
    after them) after the separator."""
    text[at, 1:] = spliced.view(np.uint8).reshape(len(at), -1)


class _IntField:
    """Non-negative integers as %d: right-aligned digits, leading zeros
    NUL, in a field of at least `width` digits."""

    def __init__(self, values: np.ndarray, width: int = 1):
        self.values = np.asarray(values, dtype=np.int64)
        if len(values) and self.values.min() < 0:
            raise ValueError("an integer column must be non-negative")
        digits = max(int(np.searchsorted(_POW10, self.values.max(initial=0),
                                         side="right")) + 1, width)
        self.groups = -(-digits // 4)
        self.template = b",\0\0\0" + b"0" * 4 * self.groups

    def write(self, lo: int, hi: int, text: np.ndarray) -> None:
        v = self.values[lo:hi]
        quads = text.view(np.uint32)
        lead = 2 * 10_000           # in the last group, 0 is written as "0"
        for g in range(self.groups, 1, -1):
            high = v // 10_000
            quads[:, g] = _INT_QUADS.take(v - high * 10_000 + (high == 0) * lead)
            v = high
            lead = 10_000
        quads[:, 1] = _INT_QUADS.take(v + lead)


class _FloatField:
    """Floats as %.12g: by float arithmetic where %.12g writes the fixed
    notation of a value with its sign bit clear (1e-4 <= x < 999999999999.5,
    and +0) and `rint_scaled` proves its 12 digits, and by Python's %
    elsewhere."""

    template = _FLOAT_TEMPLATE

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)

    def write(self, lo: int, hi: int, text: np.ndarray) -> None:
        x = self.values[lo:hi]
        fixed = (x >= 1e-4) & (x < 999999999999.5)     # NaN compares false
        e = np.searchsorted(_TENS, np.where(fixed, x, 1.0), side="right") - 5
        # x * 10**(11 - e) is in [1e11, 1e12); a product rounded to 1e12
        # carries into the next exponent and goes to Python
        r, exact = rint_scaled(np.where(fixed, x, 0.0), _SCALE.take(11 - e))
        exact &= fixed & (r < 1e12)
        r = (r * exact).astype(np.int64)        # 0, written as "0", where not exact
        high = r // 10 ** 8
        mid = r // 10 ** 4
        low = r - mid * 10 ** 4
        mid -= high * 10 ** 4
        zeros = _QUAD_ZEROS.take(low) + (low == 0) * (
            _QUAD_ZEROS.take(mid) + (mid == 0) * _QUAD_ZEROS.take(high))
        # the 12 zeros of 0 count as 11, so that 0 is written as "0"
        words = _FLOAT_WORDS.take(12 * (e + 4) + 11 - np.minimum(zeros, 11), axis=0)
        for j, part in ((1, high), (2, mid), (3, low)):
            digits = _QUADS.take(part)
            words[:, j] &= digits
            words[:, j + 4] &= digits
        text[:, 1:] = words.view(np.uint8)[:, 1:]
        # negatives, -0, NaN, inf, exponent form, carries and halves
        other = np.flatnonzero(~(exact | (x == 0)) | np.signbit(x))
        if len(other):
            _splice(text, other, np.array(
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

    def write(self, lo: int, hi: int, text: np.ndarray) -> None:
        super().write(lo, hi, text[:, :-4])
        text[:, -4:].view(np.uint32)[:, 0] = _CENTS.take(self._cents[lo:hi])
        a, b = np.searchsorted(self._other, (lo, hi))
        if a < b:
            _splice(text, self._other[a:b] - lo, self._spliced[a:b])


def _field(values):
    if isinstance(values, Fixed2):
        return values
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return _IntField(values)
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return _FloatField(values)
    raise TypeError("a column is an integer or float array, or a Fixed2")


def row_slices(columns, end: str = "\n"):
    """The lines of a CSV table as UTF-8 byte slices, one per SLICE rows and
    then `end`: for each row, its entry of every column, joined by "," and
    ended by `end`, one ASCII character other than NUL. A column is a non-negative integer
    array (written as %d), a float array (as %.12g) or a Fixed2 of floats
    (as %.2f); every column has the same length. Columns are checked when
    the first slice is taken, and each slice is formatted as it is taken,
    so memory stays at one slice's."""
    if len(end) != 1 or not end.isascii() or end == "\0":
        raise ValueError(f"end must be one ASCII character other than NUL, got {end!r}")
    fields = [_field(c) for c in columns]
    n = len(fields[0].values) if fields else 0
    if any(len(f.values) != n for f in fields):
        raise ValueError("columns differ in length")
    if not n:
        return
    # each row starts with `end` in place of the first field's separator
    line = np.frombuffer(end.encode() + b"".join(f.template for f in fields)[1:], dtype=np.uint8)
    stops = np.cumsum([len(f.template) for f in fields])
    block = np.tile(line, (min(n, SLICE), 1))
    for lo in range(0, n, SLICE):
        hi = min(lo + SLICE, n)
        text = block[:hi - lo].copy()
        for f, stop in zip(fields, stops):
            f.write(lo, hi, text[:, stop - len(f.template):stop])
        piece = text.tobytes().translate(None, b"\0")
        yield piece[1:] if lo == 0 else piece   # no `end` before the first row
    yield end.encode()


def rows(columns, end: str = "\n") -> str:
    """The text of row_slices(columns, end), as one string."""
    return b"".join(row_slices(columns, end)).decode("utf-8")
