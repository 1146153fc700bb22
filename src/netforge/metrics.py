"""Structural statistics of directed graphs: degree distributions, power-law
fits, Gini, modified diameter / average path length and directed clustering.

All operations are read-only; graphs are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import DirectedGraph, check_range

DEFAULT_XMIN = 10
_GATHER_BYTES = 16 << 20    # bound on each (rows x words) array of one BFS level
_MAX_WORDS = 32             # uint64 words per source block, 64 sources each
_COLUMNS = 32               # out-list places pulled as dense columns in a BFS level
_WEDGE_SLICE = 1 << 16      # wedges per clustering step; keeps its arrays in cache


class InsufficientDataError(ValueError):
    """Too few (or degenerate) tail observations for a power-law fit."""


def adjacency_csr(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrized weights b = a + a^T of g, upper triangle only, with
    nodes relabelled in degree order, as (rank, keys, weights).

    rank[i] is node i's (0-based) place in the ascending order of
    (s_i, i), s_i = in_i + out_i = sum_j b_ij, from one argsort of the
    distinct keys s_i * n + i. keys are the ascending keys
    r*n + r' (r < r') of b's entries above the diagonal in the relabelled
    graph, from one np.unique over g's edges; each entry's weight b_ij is 1
    for a one-way link and 2 for a mutual pair."""
    n, src, dst = g.n, g._sources() - 1, g.indices - 1
    rank = np.empty(n, dtype=np.int64)
    # distinct keys: the default sort, faster here than timsort, is stable
    rank[np.argsort((g.in_degree + np.diff(g.indptr)) * n + np.arange(n))] = np.arange(n)
    ra, rb = rank[src], rank[dst]
    keys, w = np.unique(np.minimum(ra, rb) * n + np.maximum(ra, rb), return_counts=True)
    return rank, keys, w


def degree_distribution(indegrees) -> tuple[dict[int, int], list[tuple[int, float]]]:
    """Histogram of in-degrees and the CCDF as sorted (d, P[D >= d]) pairs.

    The CCDF starts at 1 (its first point is the minimum observed in-degree)
    and is monotone non-increasing.
    """
    d = np.asarray(indegrees, dtype=np.int64)
    values, counts = np.unique(d, return_counts=True)
    n = len(d)
    ccdf = (n - np.cumsum(counts) + counts) / n
    values = values.tolist()
    return dict(zip(values, counts.tolist())), list(zip(values, ccdf.tolist()))


def fit_power_law(indegrees, xmin: int = DEFAULT_XMIN) -> float:
    """Discrete power-law exponent by the continuous-MLE approximation:
    alpha = 1 + n_tail / sum(log(d / (xmin - 0.5))) over observations >= xmin.
    Deterministic for fixed input. Requires an integer xmin in [1, 2**62),
    the range of an in-degree, and at least 50 tail observations."""
    check_range(ValueError, "xmin", xmin, 1)
    d = np.asarray(indegrees, dtype=float)
    tail = d[d >= xmin]
    if len(tail) < 50:
        raise InsufficientDataError(
            f"need >= 50 observations >= xmin={xmin}, got {len(tail)}")
    denom = np.sum(np.log(tail / (xmin - 0.5)))
    if denom <= 0:
        raise InsufficientDataError("degenerate tail: no variation above xmin")
    return float(1.0 + len(tail) / denom)


def gini(values) -> float:
    """Mean absolute pairwise difference normalized by twice the mean,
    computed via the sorted O(n log n) form. Scale-invariant; requires
    non-negative values that are not all zero."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("gini requires a non-empty 1-d array")
    if np.any(x < 0):
        raise ValueError("gini requires non-negative values")
    total = x.sum()
    if total == 0:
        raise ValueError("gini undefined for all-zero input")
    xs = np.sort(x)
    n = len(xs)
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * xs) / (n * total) - (n + 1) / n)


class PathStats(NamedTuple):
    diameter: int | None
    avg_path_length: float | None


def path_stats(g: DirectedGraph) -> PathStats:
    """Diameter: the maximum finite shortest-path length over ordered pairs
    (i, j), i != j, j reachable from i along out-links; APL: the mean over
    the same set. Graphs with no reachable pair report both as absent (None).

    Multi-source BFS (Then et al., VLDB 2014) on the reversed graph: a BFS
    from j along in-links reaches each i that reaches j, at level d(i, j), so
    it finds the same multiset of distances. The roots j are the nodes with
    an in-link, since no other node reaches a node without one. They are
    taken in blocks of 64 per uint64 word, W words per node, and node i's
    frontier bits are the roots whose BFS reached i at the level before. One
    level pulls, for every node, the OR of its out-neighbours' bits, and keeps
    the bits not yet seen: those are the pairs at that distance. The pull
    reads the out-lists as stored; no sort by target is needed.

    Nodes are relabelled once by descending out-degree, ties by id (one
    stable argsort of -out), so the rows with a c-th
    out-neighbour are a prefix of cnt_c rows, and each level
    takes one of two steps (direction-optimizing BFS: Beamer, Asanovic &
    Patterson, SC 2012):
    - dense: every row pulls through fixed-width columns,
      acc[:cnt_c] |= F[col_c], column c holding the c-th out-neighbour of
      those rows (jagged columns, as in SELL-C-sigma). Rows longer than
      _COLUMNS send the rest of their out-list through one reduceat, so the
      numpy calls a level makes do not grow with the maximum out-degree;
      columns pull their entries several times faster than the reduceat
      does (ER at n = 2000, mean out-degree 20: 7.9 ms with 32 columns,
      14.9 ms with 16). Then acc &= unseen, unseen ^= acc, F = acc; the
      complement of the visited set is kept, so no ~seen is formed.
    - sparse: only the live entries, the out-links into the frontier, are
      gathered; they are in stored order, so each node's run is contiguous
      and one reduceat ORs it. unseen and F are written at the rows that
      gained bits only; F keeps older bits at the other rows, and a row
      that pulls one of those has seen its source already.
    The live entries of the next level number the in-degree sum over the
    frontier. Per word of width, a dense level costs about m + 4n (its
    column pulls and whole-array passes), and a sparse one about 12 per
    live entry: timed one level at a time, the two crossed at 0.4n, 0.6n
    and 1.5n live entries for m = n, 5n and 15n (n = 8000; W = 8 and 32;
    a 2-vCPU Xeon with 2 MiB of L2 per core).
    So the dense step runs when 12 * live > m + 4n, and a long chain or a
    hub's few rows cost O(m) per level, not O(n W).

    Every per-level array has at most max(n, m) rows of W words, and W is
    chosen so that this stays within _GATHER_BYTES. Distances are exact
    integers, so APL is one integer sum over one integer count."""
    n, m = g.n, g.edge_count
    words = max(1, min(_MAX_WORDS, _GATHER_BYTES // (8 * max(n, m))))
    out = np.diff(g.indptr)
    order = np.argsort(-out, kind="stable")             # row r is node order[r] + 1
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    nb = rank[g.indices - 1]                            # the stored out-lists, relabelled
    src = rank[g._sources() - 1]
    deg, head, indeg = out[order], g.indptr[order], g.in_degree[order]
    # rows with at least 1, ..., _COLUMNS + 1 out-links
    *cnt, long = np.searchsorted(-deg, -np.arange(1, _COLUMNS + 2), side="right").tolist()
    cols = [nb[head[:k] + c] for c, k in enumerate(cnt) if k]
    rest = deg[:long] - _COLUMNS                        # the long rows' remaining entries
    starts = np.cumsum(rest) - rest
    tail = nb[np.repeat(head[:long] + _COLUMNS - starts, rest) + np.arange(rest.sum())]
    active = np.zeros(n, dtype=bool)
    diameter, total, count = 0, 0, 0
    roots = np.flatnonzero(indeg)
    for first in range(0, len(roots), 64 * words):
        rows = roots[first:first + 64 * words]          # frontier rows with bits
        ids = np.arange(len(rows), dtype=np.uint64)
        frontier = np.zeros((n, -(-len(ids) // 64)), dtype=np.uint64)
        frontier[rows, ids >> 6] = np.uint64(1) << (ids & 63)
        unseen, spare = ~frontier, np.empty_like(frontier)
        level = 0
        while live := int(indeg[rows].sum()):
            if 12 * live > m + 4 * n:
                new, spare = spare, frontier
                np.take(frontier, cols[0], axis=0, out=new[:len(cols[0])])
                new[len(cols[0]):] = 0
                for col in cols[1:]:
                    new[:len(col)] |= frontier[col]
                if long:
                    new[:long] |= np.bitwise_or.reduceat(frontier[tail], starts, axis=0)
                new &= unseen
                per_row = np.bitwise_count(new).sum(axis=1)
                rows = np.flatnonzero(per_row)
                found = int(per_row.sum())
                unseen ^= new
                frontier = new
            else:
                active[rows] = True
                entries = np.flatnonzero(active[nb])
                active[rows] = False
                s = src[entries]
                runs = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
                reached = np.bitwise_or.reduceat(frontier[nb[entries]], runs, axis=0)
                rows = s[runs]
                new = reached & unseen[rows]
                gained = new.any(axis=1)
                rows, new = rows[gained], new[gained]
                found = int(np.bitwise_count(new).sum())
                unseen[rows] ^= new
                frontier[rows] = new
            if not found:
                break
            level += 1
            total += level * found
            count += found
        diameter = max(diameter, level)
    if count == 0:
        return PathStats(None, None)
    return PathStats(diameter, total / count)


def _slot(keys: np.ndarray, bits: int) -> np.ndarray:
    """Fibonacci hash of int64 keys into [0, 2**bits)."""
    return (keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(64 - bits)


def clustering(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Directed clustering from the symmetrized weight b_ij = a_ij + a_ji:

        C_i = (1/2 sum_{j,k} b_ij b_jk b_ki) / (s_i (s_i - 1)),  s_i = sum_j b_ij

    with C_i = 0 whenever s_i <= 1 (degenerate denominator). Returns (per-node
    vector, average over all nodes).

    b is symmetric with a zero diagonal, so the double sum counts each
    undirected triangle {i, j, k} at i twice, once per orientation: the
    numerator is the sum of w_ij w_jk w_ki over those triangles, w in {1, 2}.
    They are found by forward enumeration (Chiba & Nishizeki 1985; Schank &
    Wagner 2005) on adjacency_csr's upper triangle: each edge points from its
    end of lower (s, id) rank to the other, so each relabelled row is an
    out-list in ascending order, each pair of one node's out-neighbours is a
    wedge, and a wedge is a triangle when its closing key, itself an upper
    key, is one of b's. Any total order finds each triangle once. With d_i
    the undirected degree, d_i <= s_i and sum(s) = 2E, so at most 2E/d_i
    nodes outrank i and its out-degree is at most min(d_i, 2E/d_i) <=
    sqrt(2E): there are O(E^1.5) wedges, and b @ b is never formed.
    A one-hash table of the keys (a Bloom filter) drops most open wedges
    before the exact lookup in the sorted keys. The sums are of small
    integers, hence exact."""
    n = g.n
    rank, keys, w = adjacency_csr(g)
    fu, fv = np.divmod(keys, n)                         # out-lists, each ascending
    # wedges: every pair of positions p < q within one out-list, taken in
    # slices of about _WEDGE_SLICE
    out = np.bincount(fu, minlength=n)
    later = np.repeat(np.cumsum(out) - 1, out) - np.arange(len(fu))
    ends = np.cumsum(later)
    # 16-32 slots per entry, so about 1 open wedge in 16-32 passes; 16 MB at most
    bits = min(24, max(10, (16 * len(keys)).bit_length()))
    table = np.zeros(1 << bits, dtype=bool)
    table[_slot(keys, bits)] = True
    closed = np.zeros(n)
    lo = 0
    while lo < len(fu):
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - later[lo] + _WEDGE_SLICE, side="right")))
        k = later[lo:hi]
        p = np.repeat(np.arange(lo, hi), k)
        q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(k) - k, k)
        wedge = fv[p] * n + fv[q]
        maybe = np.flatnonzero(table[_slot(wedge, bits)])
        at = np.minimum(np.searchsorted(keys, wedge[maybe]), len(keys) - 1)
        hit = keys[at] == wedge[maybe]
        p, q, at = p[maybe[hit]], q[maybe[hit]], at[hit]
        t = w[p] * w[q] * w[at]
        closed += np.bincount(np.concatenate((fu[p], fv[p], fv[q])), np.tile(t, 3), n)
        lo = hi
    s = g.in_degree + np.diff(g.indptr)
    denom = s * (s - 1.0)
    c = np.divide(closed[rank], denom, out=np.zeros(n), where=denom > 0)
    return c, float(c.mean())


@dataclass(eq=False)    # holds an array: == is identity
class MetricsReport:
    indegree: np.ndarray = field(repr=False)    # read-only; index k = node k+1
    alpha_hat: float | None
    xmin_used: int
    gini: float
    diameter: int | None = None                 # structural fields: None unless computed
    avg_path_length: float | None = None
    avg_clustering: float | None = None

    @cached_property
    def degree_histogram(self) -> dict[int, int]:
        """In-degree -> node count."""
        return degree_distribution(self.indegree)[0]

    def to_dict(self) -> dict:
        """The scalar fields and the histogram as a JSON-ready dict; JSON object
        keys are strings."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "indegree"}
        d["degree_histogram"] = {str(k): v for k, v in self.degree_histogram.items()}
        return d


def degree_report(indegree: np.ndarray, xmin: int = DEFAULT_XMIN) -> MetricsReport:
    """The in-degree facts of one graph as a MetricsReport: the vector (kept,
    not copied), alpha_hat (None when the tail is too small), Gini and xmin,
    checked by fit_power_law and stored as a Python int. The structural
    fields, clustering and path statistics, are left None."""
    try:
        alpha = fit_power_law(indegree, xmin=xmin)
    except InsufficientDataError:
        alpha = None
    return MetricsReport(indegree=indegree, alpha_hat=alpha, xmin_used=int(xmin),
                         gini=gini(indegree) if indegree.sum() > 0 else 0.0)


def compute_report(g: DirectedGraph, xmin: int = DEFAULT_XMIN,
                   with_paths: bool = False) -> MetricsReport:
    """degree_report of g's in-degrees, so a bad xmin is rejected before any
    structural work, with the structural fields then filled in: average
    clustering always, path statistics when with_paths is set (all-source
    BFS is the expensive part)."""
    report = degree_report(g.degrees_snapshot()[0], xmin)
    report.avg_clustering = clustering(g)[1]
    if with_paths:
        report.diameter, report.avg_path_length = path_stats(g)
    return report
