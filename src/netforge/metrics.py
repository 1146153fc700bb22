"""Structural statistics of directed graphs: degree distributions, power-law
fits, Gini, modified diameter / average path length, directed clustering, and
rank curves.

All operations are read-only; graphs are treated as immutable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import DirectedGraph

DEFAULT_XMIN = 10


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
    hist = Counter(d.tolist())
    n = len(d)
    ccdf = []
    remaining = n
    for val in sorted(hist):
        ccdf.append((int(val), remaining / n))
        remaining -= hist[val]
    return dict(sorted(hist.items())), ccdf


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


def path_stats(g: DirectedGraph, chunk: int = 1024) -> PathStats:
    """BFS along out-links from every source. Diameter is the maximum finite
    shortest-path length over ordered pairs (i, j), i != j, j reachable from i;
    APL is the mean over the same set. Graphs with no reachable pair report
    both as absent (None)."""
    if g.edge_count == 0:
        return PathStats(None, None)
    adj = adjacency_csr(g)
    n = g.n
    diameter = 0
    total = 0.0
    count = 0
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        dist = dijkstra(adj, indices=idx, unweighted=True)
        finite = np.isfinite(dist)
        finite[np.arange(len(idx)), idx] = False   # drop self-pairs
        vals = dist[finite]
        if len(vals):
            diameter = max(diameter, int(vals.max()))
            total += vals.sum()
            count += len(vals)
    if count == 0:
        return PathStats(None, None)
    return PathStats(diameter, total / count)


def clustering(g: DirectedGraph) -> tuple[np.ndarray, float]:
    """Directed clustering from the symmetrized weight b_ij = a_ij + a_ji:

        C_i = (1/2 sum_{j,k} b_ij b_jk b_ki) / (s_i (s_i - 1)),  s_i = sum_j b_ij

    implemented verbatim, with C_i = 0 whenever s_i <= 1 (degenerate
    denominator). Returns (per-node vector, average over all nodes)."""
    a = adjacency_csr(g)
    b = (a + a.T).tocsr()
    s = np.asarray(b.sum(axis=1)).ravel()
    closed = 0.5 * np.asarray(b.multiply((b @ b).T).sum(axis=1)).ravel()
    denom = s * (s - 1.0)
    c = np.divide(closed, denom, out=np.zeros(g.n), where=denom > 0)
    return c, float(c.mean())


def rank_curve(indegrees) -> list[tuple[int, int]]:
    """(rank, in-degree) pairs sorted by descending in-degree, ties broken by
    ascending node id; rank is 1-based."""
    d = np.asarray(indegrees, dtype=np.int64)
    ids = np.arange(len(d))
    order = np.lexsort((ids, -d))
    return [(r, int(d[k])) for r, k in enumerate(order, start=1)]


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
        return {
            "degree_histogram": {str(k): v for k, v in self.degree_histogram.items()},
            "alpha_hat": self.alpha_hat,
            "xmin_used": self.xmin_used,
            "gini": self.gini,
            "diameter": self.diameter,
            "avg_path_length": self.avg_path_length,
            "avg_clustering": self.avg_clustering,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(
            degree_histogram={int(k): v for k, v in d["degree_histogram"].items()},
            alpha_hat=d["alpha_hat"],
            xmin_used=d["xmin_used"],
            gini=d["gini"],
            diameter=d["diameter"],
            avg_path_length=d["avg_path_length"],
            avg_clustering=d["avg_clustering"],
        )


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
