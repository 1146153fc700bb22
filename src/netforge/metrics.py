"""Structural statistics of directed graphs: degree distributions, power-law
fits, Gini, modified diameter / average path length and directed clustering.

All operations are read-only; graphs are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .graph import DirectedGraph

DEFAULT_XMIN = 10
_GATHER_BYTES = 16 << 20    # bound on each (rows x words) array of one BFS level
_MAX_WORDS = 32             # uint64 words per source block, 64 sources each
_WEDGE_SLICE = 1 << 16      # wedges per clustering step; keeps its arrays in cache


class InsufficientDataError(ValueError):
    """Too few (or degenerate) tail observations for a power-law fit."""


def adjacency_csr(g: DirectedGraph) -> csr_matrix:
    """0-based adjacency matrix; entry (i-1, j-1) is 1.0 for each edge (i, j)."""
    return csr_matrix((np.ones(g.edge_count), g.indices - 1, g.indptr),
                      shape=(g.n, g.n))


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
    Deterministic for fixed input. Requires xmin >= 1 and at least 50 tail
    observations."""
    if xmin < 1:
        raise ValueError(f"xmin must be >= 1, got {xmin!r}")
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
    """BFS along out-links from every source. Diameter is the maximum finite
    shortest-path length over ordered pairs (i, j), i != j, j reachable from i;
    APL is the mean over the same set. Graphs with no reachable pair report
    both as absent (None).

    Multi-source BFS (Then et al., VLDB 2014): sources are processed in blocks
    of 64 per uint64 word, W words per node. One level gathers the frontier
    bits of the live edges only, those whose source gained bits at the level
    before, in target order; ORs them over each target's run of live edges;
    and keeps the bits not yet seen, which are the pairs at that distance.
    `seen` and the frontier are written only at the targets that gained bits.
    Distances are exact integers, so APL is one integer sum over one integer
    count."""
    n = g.n
    words = max(1, min(_MAX_WORDS, _GATHER_BYTES // (8 * max(n, g.edge_count))))
    order = np.argsort(g.indices, kind="stable")
    src = g._sources()[order] - 1                       # edges in target order, 0-based
    dst = g.indices[order] - 1
    active = np.zeros(n, dtype=bool)
    diameter, total, count = 0, 0, 0
    for first in range(0, n, 64 * words):
        ids = np.arange(min(64 * words, n - first), dtype=np.uint64)
        rows = first + ids.astype(np.int64)             # frontier rows with bits
        frontier = np.zeros((n, -(-len(ids) // 64)), dtype=np.uint64)
        frontier[rows, ids >> 6] = np.uint64(1) << (ids & 63)
        seen = frontier.copy()
        level = 0
        while True:
            active[rows] = True
            live = np.flatnonzero(active[src])
            active[rows] = False
            if not len(live):
                break
            t = dst[live]
            runs = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
            reached = np.bitwise_or.reduceat(frontier[src[live]], runs, axis=0)
            frontier[rows] = 0
            rows = t[runs]
            new = reached & ~seen[rows]
            gained = new.any(axis=1)
            rows, new = rows[gained], new[gained]
            if not len(rows):
                break
            level += 1
            found = int(np.bitwise_count(new).sum())
            seen[rows] |= new
            frontier[rows] = new
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
    Wagner 2005): each edge points from its end of lower (undirected degree,
    id) rank to the other, each pair of one node's out-neighbours is a wedge,
    and a wedge is a triangle when b links its two ends. A node has O(sqrt(E))
    out-neighbours, so there are O(E^1.5) wedges, and b @ b is never formed.
    A one-hash table of b's entries (a Bloom filter) drops most open wedges
    before the exact lookup in b's sorted entries. The sums are of small
    integers, hence exact."""
    a = adjacency_csr(g)
    b = (a + a.T).tocsr()
    s = np.asarray(b.sum(axis=1)).ravel()
    b.sort_indices()
    n, deg = g.n, np.diff(b.indptr)
    u = np.repeat(np.arange(n), deg)
    v, w = b.indices.astype(np.int64), b.data
    keys = u * n + v                                    # sorted, as b is
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    fwd = np.repeat(rank, deg) < rank[v]
    fu, fv, fw = u[fwd], v[fwd], w[fwd]                 # out-lists, each ascending
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
        t = fw[p] * fw[q] * w[at]
        closed += np.bincount(np.concatenate((fu[p], fv[p], fv[q])), np.tile(t, 3), n)
        lo = hi
    denom = s * (s - 1.0)
    c = np.divide(closed, denom, out=np.zeros(g.n), where=denom > 0)
    return c, float(c.mean())


@dataclass
class MetricsReport:
    indegree: np.ndarray = field(repr=False)    # read-only; index k = node k+1
    alpha_hat: float | None
    xmin_used: int
    gini: float
    diameter: int | None
    avg_path_length: float | None
    avg_clustering: float | None

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


def compute_report(g: DirectedGraph, xmin: int = DEFAULT_XMIN,
                   with_paths: bool = False) -> MetricsReport:
    """Assemble a MetricsReport. Path statistics are opt-in (all-source BFS is
    the expensive part); alpha_hat is None when the tail is too small."""
    indeg, _ = g.degrees_snapshot()
    try:
        alpha = fit_power_law(indeg, xmin=xmin)
    except InsufficientDataError:
        alpha = None
    g_coef = gini(indeg) if indeg.sum() > 0 else 0.0
    diam, apl = path_stats(g) if with_paths else (None, None)
    return MetricsReport(
        indegree=indeg,
        alpha_hat=alpha,
        xmin_used=xmin,
        gini=g_coef,
        diameter=diam,
        avg_path_length=apl,
        avg_clustering=clustering(g)[1],
    )
