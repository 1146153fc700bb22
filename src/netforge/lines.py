"""Line-by-line text parsing with a bulk path for regular lines.

The edge-list and follower-CSV readers each give two rules for one line of
text. A numpy rule reads every *regular* line at once from the text's UTF-8
bytes: lines of one fixed shape whose values are runs of ASCII digits. A
per-line rule reads every other line (blanks, whitespace, signs, headers,
errors) in line order, so it alone decides which error is raised first. On
a regular line both rules give the same value. The lines are the ones
`str.splitlines` gives, numbered from 1.
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
    rows, entries = [], []
    other = np.flatnonzero(~read)
    for k, s, e in zip(other.tolist(), starts[other].tolist(), ends[other].tolist()):
        entry = parse_line(k + 1, buf[s:e].decode("utf-8", "surrogatepass"))
        if entry is not None:
            rows.append(k)
            entries.append(entry)
    if rows:
        values[:, rows] = np.array(entries, dtype=values.dtype).T
        read[rows] = True
    return values.compress(read, axis=1), np.flatnonzero(read) + 1
