"""Immutable directed graph in compressed sparse row (CSR) form, with
edge-list round-tripping.

Node ids are 1-based and double as the quality ranking (1 = highest quality).
The out-links of node i are ``indices[indptr[i-1]:indptr[i]]`` (1-based
targets, in the order the generator created them); ``in_degree[k]`` counts
the links into node k+1. Every graph is built once, from its edges, by
``DirectedGraph._from_out_adj``, which enforces the structural rules; the
arrays are read-only afterwards. The generators hand it their edges in node
order, so it sorts only edge lists that are not.
"""

from __future__ import annotations

import numpy as np

from .lines import digit_runs, rows, scan_lines

_ID_LIMIT = 2 ** 62     # node ids and counts stay clear of int64 overflow


class GraphError(ValueError):
    """Structural violation: bad size, self-loop, duplicate edge, id out of range.

    ``edge`` is the 0-based position of the offending edge in the input order,
    or None when the error is not about one edge."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class EdgeListParseError(GraphError):
    """Malformed edge-list input. Carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_edges(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Raise GraphError for the first edge, in the given order, that has an id
    outside [1, n], is a self-loop or repeats an earlier edge.

    Repeats are found by one np.sort of the edge keys; the stable argsort
    that tells which of the equal edges came first runs only when some key
    repeats."""
    outside = (src < 1) | (src > n) | (dst < 1) | (dst > n)
    # clipped ids keep the key in range; a key shared with an out-of-range
    # edge can only mark an edge that comes after it
    s, d = np.clip(src, 0, n + 1), np.clip(dst, 0, n + 1)
    repeat = np.zeros(len(s), dtype=bool)
    if (n + 1) * (n + 3) < 2 ** 63:
        key = s * (n + 2) + d
        ordered = np.sort(key)
        # timsort, numpy's stable sort of int64, is several times slower
        # than np.sort on keys that are not already in order
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(key, kind="stable")
            repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    else:       # s * (n + 2) + d would overflow int64
        order = np.lexsort((d, s))
        repeat[order[1:]] = (s[order[1:]] == s[order[:-1]]) & (d[order[1:]] == d[order[:-1]])
    bad = np.flatnonzero(outside | (src == dst) | repeat)
    if not len(bad):
        return
    k = int(bad[0])
    i, j = int(src[k]), int(dst[k])
    if outside[k]:
        message = f"node id {i if not 1 <= i <= n else j} outside [1, {n}]"
    elif i == j:
        message = f"self-loop ({i},{j}) rejected"
    else:
        message = f"duplicate edge ({i},{j}) rejected"
    raise GraphError(message, edge=k)


def _regular_edges(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """scan_lines rule for the lines "digits,digits" with both ids >= 1:
    (read, (2, lines) array of source and target ids)."""
    dst, dst_first = digit_runs(data, ends)
    comma = np.maximum(dst_first - 1, starts)      # the byte before the target
    src, src_first = digit_runs(data, comma)
    read = (data[comma] == ord(",")) & (src_first == starts) & (src >= 1) & (dst >= 1)
    return read, np.stack((src, dst))


def _edge_line(line_no: int, raw: str) -> tuple[int, int] | None:
    """scan_lines rule for any other line: its (source, target), or None for
    a blank line."""
    line = raw.strip()
    if not line:
        return None
    parts = line.split(",")
    if len(parts) != 2:
        raise EdgeListParseError(line_no, f"expected 'source,target', got {raw!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(line_no, f"non-integer id in {raw!r}") from None
    if not (1 <= i < _ID_LIMIT and 1 <= j < _ID_LIMIT):
        raise EdgeListParseError(line_no, f"ids must be in [1, 2**62), got {raw!r}")
    return i, j


class DirectedGraph:
    __slots__ = ("n", "indptr", "indices", "in_degree")

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    def _sources(self) -> np.ndarray:
        """Source id of each entry of indices."""
        return np.repeat(np.arange(1, self.n + 1), np.diff(self.indptr))

    def edges(self):
        """Yield (source, target) pairs in node order, insertion order within node."""
        return zip(self._sources().tolist(), self.indices.tolist())

    def degrees_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (in_degree, out_degree) vectors, index k = node k+1."""
        return self.in_degree, np.diff(self.indptr)

    def check_invariants(self) -> None:
        """Re-check the stored arrays against the construction rules and
        recount in_degree; raises GraphError on any mismatch."""
        n, indptr = self.n, self.indptr
        if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(self.indices)
                or np.any(np.diff(indptr) < 0)):
            raise GraphError("indptr is not a CSR row pointer over indices")
        _check_edges(n, self._sources(), self.indices)
        if not np.array_equal(np.bincount(self.indices, minlength=n + 1)[1:],
                              self.in_degree):
            raise GraphError("in_degree vector inconsistent with recount")

    # -- serialization ------------------------------------------------------

    def to_edge_list(self) -> str:
        """One "source,target" line per edge; node order, insertion order within node."""
        return rows([self._sources(), self.indices])

    @classmethod
    def from_edge_list(cls, text: str, n: int | None = None) -> "DirectedGraph":
        """Parse edge-list text. When n is omitted it is inferred from the max id,
        and input with no edges is rejected (it names no node).

        Every line is parsed before any structural rule is applied, so a
        malformed line is reported before an out-of-range, self-loop or
        duplicate edge; among the latter the first line in file order wins."""
        values, line_nos = scan_lines(text, _regular_edges, _edge_line)
        if n is None:
            if not values.size:
                raise GraphError("edge list has no edges; give n to read isolated nodes")
            n = max(int(values.max()), 2)
        try:
            return cls._from_out_adj(n, *values)
        except GraphError as exc:
            if exc.edge is None:
                raise
            raise EdgeListParseError(int(line_nos[exc.edge]), str(exc)) from None

    # -- the one constructor ------------------------------------------------

    @classmethod
    def _from_out_adj(cls, n: int, src, dst) -> "DirectedGraph":
        """Build the graph on nodes 1..n with edges (src[k], dst[k]), listed in
        creation order. Raises GraphError for a bad n or for the first edge
        that breaks a rule (see `_check_edges`). Edges already in node order
        are stored as given; others are sorted by source, stably."""
        if not isinstance(n, (int, np.integer)) or not 2 <= n < _ID_LIMIT:
            raise GraphError(f"node count must be an integer in [2, 2**62), got {n!r}")
        n = int(n)
        src = np.asarray(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)     # a copy: the graph owns its arrays
        _check_edges(n, src, dst)
        if (src[1:] < src[:-1]).any():          # not in node order yet
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
        g = cls.__new__(cls)
        g.n = n
        g.indptr = np.cumsum(np.bincount(src, minlength=n + 1))
        g.indices = dst
        g.in_degree = np.bincount(dst, minlength=n + 1)[1:]
        for a in (g.indptr, g.indices, g.in_degree):
            a.flags.writeable = False
        return g

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={self.edge_count})"

