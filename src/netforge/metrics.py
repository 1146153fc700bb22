"""Structural statistics of directed graphs: degree distributions, power-law
fits, Gini, modified diameter / average path length and directed clustering.

All operations are read-only; graphs are treated as immutable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .graph import DirectedGraph

DEFAULT_XMIN = 10
_GATHER_BYTES = 16 << 20    # bound on each (rows x words) array of one BFS level
_MAX_WORDS = 32             # uint64 words per source block, 64 sources each


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
    bits of every edge's source in target order and ORs them per target; bits
    not yet seen are the pairs at that distance. Distances are exact integers,
    so APL is one integer sum over one integer count."""
    n, indeg = g.n, g.in_degree
    words = max(1, min(_MAX_WORDS, _GATHER_BYTES // (8 * max(n, g.edge_count))))
    targets = np.flatnonzero(indeg)                     # nodes with in-edges, 0-based
    starts = (np.cumsum(indeg) - indeg)[targets]        # their runs in target order
    src = g._sources()[np.argsort(g.indices, kind="stable")] - 1
    diameter, total, count = 0, 0, 0
    for first in range(0, n, 64 * words):
        ids = np.arange(min(64 * words, n - first), dtype=np.uint64)
        frontier = np.zeros((n, -(-len(ids) // 64)), dtype=np.uint64)
        frontier[first + ids, ids >> 6] = np.uint64(1) << (ids & 63)
        seen = frontier[targets]                        # only targets gain bits
        level = 0
        while True:
            reached = np.bitwise_or.reduceat(frontier[src], starts, axis=0)
            new = reached & ~seen
            found = int(np.bitwise_count(new).sum())
            if not found:
                break
            level += 1
            seen |= new
            total += level * found
            count += found
            frontier = np.zeros_like(frontier)
            frontier[targets] = new
        diameter = max(diameter, level)
    if count == 0:
        return PathStats(None, None)
    return PathStats(diameter, total / count)


def clustering(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Directed clustering from the symmetrized weight b_ij = a_ij + a_ji:

        C_i = (1/2 sum_{j,k} b_ij b_jk b_ki) / (s_i (s_i - 1)),  s_i = sum_j b_ij

    with C_i = 0 whenever s_i <= 1 (degenerate denominator). b is symmetric,
    so the triple sum is the row sum of b * (b @ b). Returns (per-node vector,
    average over all nodes)."""
    a = adjacency_csr(g)
    b = (a + a.T).tocsr()
    s = np.asarray(b.sum(axis=1)).ravel()
    closed = 0.5 * np.asarray(b.multiply(b @ b).sum(axis=1)).ravel()
    denom = s * (s - 1.0)
    c = np.divide(closed, denom, out=np.zeros(g.n), where=denom > 0)
    return c, float(c.mean())


@dataclass
class MetricsReport:
    degree_histogram: dict[int, int]    # in-degree -> node count
    alpha_hat: float | None
    xmin_used: int
    gini: float
    diameter: int | None
    avg_path_length: float | None
    avg_clustering: float | None

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict; JSON object keys are strings."""
        return {**asdict(self),
                "degree_histogram": {str(k): v for k, v in self.degree_histogram.items()}}



def compute_report(g: DirectedGraph, xmin: int = DEFAULT_XMIN,
                   with_paths: bool = False) -> MetricsReport:
    """Assemble a MetricsReport. Path statistics are opt-in (all-source BFS is
    the expensive part); alpha_hat is None when the tail is too small."""
    indeg, _ = g.degrees_snapshot()
    hist, _ = degree_distribution(indeg)
    try:
        alpha = fit_power_law(indeg, xmin=xmin)
    except InsufficientDataError:
        alpha = None
    g_coef = gini(indeg) if indeg.sum() > 0 else 0.0
    diam, apl = path_stats(g) if with_paths else (None, None)
    return MetricsReport(
        degree_histogram=hist,
        alpha_hat=alpha,
        xmin_used=xmin,
        gini=g_coef,
        diameter=diam,
        avg_path_length=apl,
        avg_clustering=clustering(g)[1],
    )
