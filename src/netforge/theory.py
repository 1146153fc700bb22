"""Closed-form and recursive expected in-degree curves, plus an exact small-n oracle.

Curves are indexed by quality rank i (1-based); values[i-1] is the expected
in-degree of the node ranked i. Two independent evaluations of the meritocracy
curve exist (downward recursion and elementary-symmetric-polynomial sum) and
must agree to float precision; the permutation-enumeration oracle is the
ground truth for small n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import _ID_LIMIT, check_range
from .lines import rows


def _validate(n: int, m_cap: int, n_limit: int = _ID_LIMIT) -> None:
    check_range(ValueError, "n", n, 2, n_limit)
    check_range(ValueError, "m_cap", m_cap, 1, n)


@dataclass
class CurveSpec:
    """Expected in-degree as a function of quality rank."""

    n: int
    m_cap: int
    values: np.ndarray = field(repr=False)
    name: str

    @property
    def header(self) -> str:
        """The CSV's two header lines, without the final newline."""
        return f"# curve: {self.name} n={self.n} m={self.m_cap}\nrank,expected_indegree"

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSV's columns: the ranks 1..n and the values."""
        return np.arange(1, len(self.values) + 1), self.values

    def to_csv(self) -> str:
        return self.header + "\n" + rows(self.columns)


def recursion_table(n: int, m_cap: int) -> CurveSpec:
    """Expected in-degree by downward recursion over the link-probability
    table, row m being the expected number of other nodes that link to each
    rank within their first m out-links:
    row(m) at rank i-1 = row(m) at i + row(m-1) at i / (i-1), with row 1 and
    the last rank pinned to 1. Only the previous row is kept, so memory is
    O(n) whatever m_cap is; row m_cap is the curve."""
    _validate(n, m_cap)
    row = np.ones(n)
    for _ in range(1, m_cap):
        contrib = np.zeros(n)
        contrib[1:] = row[1:] / np.arange(1, n)
        row = 1.0 + np.concatenate([np.cumsum(contrib[::-1])[::-1][1:], [0.0]])
    return CurveSpec(n=n, m_cap=m_cap, values=row, name="recursion")


def exact_expected_indegree(n: int, m_cap: int) -> CurveSpec:
    """Meritocracy expected in-degree at rank i: sum over subset sizes
    k < m_cap of the elementary symmetric polynomial e_k(1/i, ..., 1/(n-1)).
    By the recurrence e_k(i) = e_k(i+1) + (1/i) e_{k-1}(i+1), each e_k row is
    one reversed cumulative sum over the previous row."""
    _validate(n, m_cap)
    inv = 1.0 / np.arange(1, n)             # 1/i for ranks i = 1..n-1
    e = np.ones(n)                          # e_0 at every rank
    values = e.copy()
    for _ in range(1, m_cap):
        # e_k(n) = 0: the polynomial of the empty set
        e = np.append(np.cumsum((inv * e[1:])[::-1])[::-1], 0.0)
        values += e
    return CurveSpec(n=n, m_cap=m_cap, values=values, name="exact")


def merit_approx_curve(n: int, m_cap: int) -> CurveSpec:
    """Large-n meritocracy approximation: sum_{m<m_cap} log(n/i)^m / m!."""
    _validate(n, m_cap)
    i = np.arange(1, n + 1, dtype=float)
    logs = np.log(n / i)
    term = np.ones(n)
    acc = np.ones(n)
    for m in range(1, m_cap):
        term = term * logs / m
        acc = acc + term
    return CurveSpec(n=n, m_cap=m_cap, values=acc, name="merit-approx")


def matthew_approx_curve(n: int, m_cap: int) -> CurveSpec:
    """Mean-field Matthew curve 2(M+1)n^2 / ((n+i-1)(n+i)) - 1; sums to
    exactly M*n over ranks (telescoping)."""
    _validate(n, m_cap)
    i = np.arange(1, n + 1, dtype=float)
    values = 2.0 * (m_cap + 1) * n * n / ((n + i - 1.0) * (n + i)) - 1.0
    return CurveSpec(n=n, m_cap=m_cap, values=values, name="matthew-approx")


@dataclass
class CrossingReport:
    """Sign-change summary of curve A - curve B, ties ignored."""

    crossing_rank: int | None
    sign_changes: int


def single_crossing_index(curve_a, curve_b) -> CrossingReport:
    """Count sign changes of A - B over ranks, ignoring exact ties. The
    crossing rank is the rank immediately after the last position holding the
    previous sign. Zero or multiple crossings are reported, not raised."""
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("curves must be equal-length 1-d arrays")
    diff = a - b
    signed = np.flatnonzero(diff)           # 0-based positions of the non-ties
    flips = np.flatnonzero(np.diff(np.sign(diff[signed])))
    crossing = int(signed[flips[0]]) + 2 if len(flips) else None
    return CrossingReport(crossing_rank=crossing, sign_changes=len(flips))


def brute_force_oracle(n: int, m_cap: int) -> CurveSpec:
    """Exact meritocracy expected in-degree by enumerating, for every source,
    all (n-1)! candidate orderings and applying the record rule truncated at
    m_cap followees or at the best-node link. Feasible for n <= 8.

    Link counts are exact integers; the one float division by (n-1)! per rank
    is correctly rounded, so the values are the nearest floats to the exact
    rational expectations.
    """
    _validate(n, m_cap, 9)
    counts = [0] * (n + 1)
    for src in range(1, n + 1):
        candidates = [j for j in range(1, n + 1) if j != src]
        best = candidates[0]                # highest quality available
        for perm in itertools.permutations(candidates):
            record = n + 1
            taken = 0
            for c in perm:
                if c < record:
                    record = c
                    counts[c] += 1
                    taken += 1
                    if c == best or taken == m_cap:
                        break
    values = np.array(counts[1:], dtype=float) / math.factorial(n - 1)
    return CurveSpec(n=n, m_cap=m_cap, values=values, name="oracle")


CURVE_FUNCS = {
    "recursion": recursion_table,
    "exact": exact_expected_indegree,
    "merit-approx": merit_approx_curve,
    "matthew-approx": matthew_approx_curve,
    "oracle": brute_force_oracle,
}
