"""Network generators: meritocracy, Matthew-effect, their probabilistic hybrid, and directed ER.

All generators seed from config.seed alone and are single-threaded.
Quality is represented purely by node id order: id 1 is the highest-quality node.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, check_range, is_integer


class ConfigError(ValueError):
    """Invalid FormationConfig."""


def is_real(value) -> bool:
    """True for finite Python/numpy ints and floats; False for bool, str, None."""
    return ((is_integer(value) or isinstance(value, (float, np.floating)))
            and math.isfinite(value))


@dataclass(frozen=True)
class FormationConfig:
    model: str
    n: int
    m_cap: int = 5
    p: float | None = None          # hybrid mixing probability
    density: float | None = None    # er_directed edge probability
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {MODELS}")
        check_range(ConfigError, "n", self.n, 2)
        check_range(ConfigError, "seed", self.seed, 0, None)
        check_range(ConfigError, "m_cap", self.m_cap, 1, self.n)
        if self.model == "hybrid":
            if not is_real(self.p) or not 0.0 <= self.p <= 1.0:
                raise ConfigError(f"hybrid requires p in [0,1], got {self.p!r}")
        if self.model == "er_directed":
            check_range(ConfigError, "n", self.n, 2, 2 ** 31 + 1)   # n * (n - 1) < 2**62
            if not is_real(self.density) or not 0.0 <= self.density <= 1.0:
                raise ConfigError(f"er_directed requires density in [0,1], got {self.density!r}")


def _uniforms(rng: np.random.Generator):
    """Endless uniform(0,1) floats, drawn in blocks to avoid per-call Generator
    overhead in hot loops; a memoryview yields each block's values lazily.
    Blocks double from 64 up to 2^15 draws, so a small graph draws little;
    the values do not depend on the block sizes."""
    size = 64
    while True:
        yield from memoryview(rng.random(size))
        size = min(2 * size, 1 << 15)


# -- meritocracy -------------------------------------------------------------


def _beating(rng: np.random.Generator, ids: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """For each node ids[k], one draw uniform over the other nodes that beat
    (have a lower id than) cur[k]; at least one must."""
    below = ids < cur
    draw = rng.integers(1, cur - below)     # cur - 1 - below candidates
    return draw + (below & (draw >= ids))   # skip self


def merit_followee_matrix(n: int, m_cap: int, rng: np.random.Generator,
                          copies: int = 1) -> np.ndarray:
    """Sample followee sets for `copies` independent populations of n nodes.

    Returns an int array of shape (copies * n, m_cap): row k holds the followees
    of node (k mod n) + 1 in population k // n, in link-creation order, padded
    with 0. Followee ids along a row are strictly decreasing (each accepted
    candidate beats all previous ones in quality).

    The sampler draws each node's quality-record sequence directly: the first
    accepted candidate is uniform over the other n-1 nodes, and each subsequent
    one is uniform over the strictly-better candidates. A node stops once it
    follows the best available node or accumulates m_cap followees. This is
    distribution-identical to scanning a uniform random permutation of the
    candidates for records.
    """
    ids = np.tile(np.arange(1, n + 1, dtype=np.int64), copies)
    total = len(ids)
    best = np.where(ids == 1, 2, 1)
    out = np.zeros((total, m_cap), dtype=np.int64)

    r = rng.integers(1, n, size=total)      # uniform over n-1 candidates
    r = r + (r >= ids)                      # skip self
    out[:, 0] = r
    active = r != best
    for k in range(1, m_cap):
        if not active.any():
            break
        draw = _beating(rng, ids[active], r[active])
        r[active] = draw
        out[active, k] = draw
        nxt = active.copy()
        nxt[active] = draw != best[active]
        active = nxt
    return out


def _meritocracy(n: int, m: int, seed: int) -> DirectedGraph:
    mat = merit_followee_matrix(n, m, np.random.default_rng(seed))
    rows, cols = np.nonzero(mat)
    return DirectedGraph._from_out_adj(n, rows + 1, mat[rows, cols])


def generate_meritocracy(config: FormationConfig) -> DirectedGraph:
    """Quality-driven formation: a node follows a candidate only if it beats
    every current followee; stops at the best node or at m_cap followees.

    Samples each node's record sequence directly; the literal event process
    (uniform active node, uniform candidate) has the same final-graph
    distribution, so `generate_hybrid` runs this sampler at p = 1.
    """
    return _meritocracy(config.n, config.m_cap, config.seed)


# -- Matthew effect: capped preferential attachment -------------------------


def _time_order(times: np.ndarray) -> np.ndarray:
    """np.argsort(times, kind="stable"). Without equal times every sort gives
    that order, and the default one is several times faster than timsort on
    times that are not already in order; the stable sort runs only on a tie."""
    order = np.argsort(times)
    ordered = times[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(times, kind="stable")
    return order


def _capped_pa(n: int, m: int, seed: int) -> DirectedGraph:
    """The Matthew model, sampled with arrays: each event picks a node with
    out-degree < m uniformly and links it to a target drawn with weight
    in-degree + 1 (the virtual self-link); a target that is the node itself or
    one it already follows is rejected and redrawn. Ends with n * m edges.

    Sources: every node fires m times, and every node with firings left fires
    next with equal probability. Rate-1 clocks are memoryless, so ranking the
    n * m cumulative Exp(1) times of the nodes' m firings samples that order;
    the stable `_time_order` keeps a node's firings in order even where two
    of its times tie. Slot (i - 1) * m + k of the (n, m) matrices below is
    node i's k-th firing.

    Targets: the weights are a pool of one entry per node followed by the
    target of every earlier step, so step t draws an index x uniform over
    n + t entries: node x + 1 if x < n, otherwise a copy of step x - n's
    target. All first draws resolve at once by pointer doubling over the copy
    forest. A step is rejected when its target is its own source or repeats an
    earlier target of the same source, found by one check over the (n, m)
    matrix of targets by source and firing order.

    Fix-ups run in step order, smallest rejected step first: its target is
    redrawn against the now-final earlier steps, then handed to the steps that
    copied it, found in a children CSR of the copy forest, and the rows of the
    changed steps are checked again. A redrawn step no longer copies its first
    draw, so its CSR entry goes stale; that is harmless, because steps before
    the one being fixed are final and every later change reaches only steps
    after it.
    """
    rng = np.random.default_rng(seed)
    steps = n * m
    # step t fills slot[t]
    slot = _time_order(np.cumsum(rng.exponential(size=(n, m)), axis=1).ravel())
    step = np.empty(steps, dtype=np.int64)      # slot (source - 1) * m + k -> step
    step[slot] = np.arange(steps)
    parent = (rng.random(steps) * np.arange(n, n + steps)).astype(np.int64) - n
    root = np.where(parent < 0, np.arange(steps), parent)
    while True:                             # pointer doubling to each step's root
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    flat = np.empty(steps, dtype=np.int64)  # targets by slot: row = source, creation order
    flat[slot] = parent[root] + n + 1
    rows = flat.reshape(n, m)
    # each row's targets sorted with their columns as tie-breaks: key // m is
    # the target, key % m its column, and all but the first of equal targets
    # in a row repeat an earlier one
    value, col = np.divmod(np.sort(rows * m + np.arange(m), axis=1), m)
    repeat = np.zeros((n, m), dtype=bool)
    np.put_along_axis(repeat, col[:, 1:], np.diff(value, axis=1) == 0, axis=1)
    bad = repeat | (rows == np.arange(1, n + 1)[:, None])

    copies = np.flatnonzero(parent >= 0)
    kids = copies[np.argsort(parent[copies])]      # grouped by the step they copy
    first = np.zeros(steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent[copies], minlength=steps), out=first[1:])
    u = _uniforms(rng).__next__
    heap = np.sort(step[bad.ravel()]).tolist()     # a sorted list is a heap
    queued = set(heap)
    while heap:
        t = heapq.heappop(heap)
        queued.remove(t)
        s = int(slot[t])
        i, k = divmod(s, m)
        mine = set(rows[i, :k].tolist())
        mine.add(i + 1)
        j = int(flat[s])
        if j not in mine:                   # earlier fixes made it legal
            continue
        while j in mine:
            x = int(u() * (n + t))
            j = x + 1 if x < n else int(flat[slot[x - n]])
        flat[s] = j
        touched = {i}
        todo = [t]
        while todo:                         # hand j to every step that copied t
            c = todo.pop()
            for d in kids[first[c]:first[c + 1]].tolist():
                sd = int(slot[d])
                flat[sd] = j
                touched.add(sd // m)
                todo.append(d)
        for r in touched:                   # queue the rows' new repeats of j
            row = rows[r].tolist()
            col = -1 if j == r + 1 else row.index(j)
            for _ in range(row.count(j) - (col >= 0)):
                col = row.index(j, col + 1)
                d = int(step[r * m + col])
                if d not in queued:
                    queued.add(d)
                    heapq.heappush(heap, d)
    return DirectedGraph._from_out_adj(n, np.repeat(np.arange(1, n + 1), m), flat)


def generate_matthew(config: FormationConfig) -> DirectedGraph:
    """Capped preferential attachment (the Matthew model): source uniform among
    nodes with out-degree < m_cap, target weight in-degree + 1, illegal targets
    redrawn. Terminates with exactly m_cap * n edges. See `_capped_pa`."""
    return _capped_pa(int(config.n), int(config.m_cap), config.seed)


# -- hybrid: per-node attempt clocks ----------------------------------------


def _hybrid(n: int, m: int, p: float, seed: int) -> DirectedGraph:
    """The hybrid process at 0 < p < 1: each event picks an active node i
    (out-degree < m) uniformly, then with probability p attempts one
    meritocracy step (uniform candidate among the other n - 1 nodes, accepted
    only if it beats all current followees) and otherwise performs one Matthew
    draw: target weight in-degree + 1 (the virtual self-link), illegal targets
    (self, already-followed) rejected and redrawn.

    Sampled from per-node attempt clocks: every node attempts at rate 1 while
    active, so the next attempt is always a uniform active node's, and the
    clocks can be drawn up front and replayed in time order.
    - A node's Matthew attempts are a Poisson(1 - p) stream. Each adds an edge,
      so the node is full by its m-th, and only m are drawn.
    - Its merit attempts are a Poisson(p) stream of uniform candidates, and
      only the stream's records can succeed: a candidate that does not beat an
      earlier candidate c loses either to c, then a followee, or to the
      followee that beat c (or finds the node full).
      Records follow `merit_followee_matrix`'s law (the next is uniform over
      the nodes that beat the current one), with Exp(p * better / (n - 1))
      gaps, where `better` counts those nodes. A node's records are drawn
      until its m-th Matthew time or until no node beats its record.
    The replay skips attempts of full nodes; a record succeeds iff it beats
    the node's best followee, and a Matthew attempt draws from a pool of one
    virtual self-link per node plus every earlier target. Each node's
    followees are kept in a dict, a set that remembers creation order, and the
    edges are emitted in node order, creation order within a node: the order
    the graph stores them in, so the constructor has nothing to sort.
    """
    rng = np.random.default_rng(seed)
    clocks = np.cumsum(rng.exponential(1 / (1 - p), (n, m)), axis=1)
    ids = np.arange(1, n + 1)
    nodes, times, targets = [ids.repeat(m)], [clocks.ravel()], [np.zeros(n * m, np.int64)]
    cur = np.full(n, n + 1)                 # no record yet: every other node beats it
    t = np.zeros(n)
    end = clocks[:, -1]
    while ids.size:
        rate = p * (cur - 1 - (ids < cur))  # (n - 1) times the rate of records
        gap = rng.standard_exponential(ids.size) * (n - 1)
        # compared, not divided, so a tiny p cannot overflow; rate 0 never keeps
        keep = gap < (end - t) * rate
        ids, cur, end = ids[keep], cur[keep], end[keep]
        t = t[keep] + gap[keep] / rate[keep]
        cur = _beating(rng, ids, cur)
        nodes.append(ids)
        times.append(t)
        targets.append(cur)
    order = _time_order(np.concatenate(times))
    followees: list[dict[int, None]] = [{} for _ in range(n + 1)]   # by node id; 0 unused
    best = [n + 1] * (n + 1)                # each node's best followee
    pool = list(range(1, n + 1))            # virtual self-links, then edge targets
    u = _uniforms(rng).__next__
    for i, j in zip(np.concatenate(nodes)[order].tolist(),
                    np.concatenate(targets)[order].tolist()):
        mine = followees[i]
        if len(mine) == m or j >= best[i]:  # full, or a record that loses
            continue
        if not j:                           # a Matthew attempt
            j = i
            while j == i or j in mine:
                j = pool[int(u() * len(pool))]
        mine[j] = None
        pool.append(j)
        if j < best[i]:
            best[i] = j
    followees = followees[1:]
    src = np.repeat(np.arange(1, n + 1), [len(mine) for mine in followees])
    dst = np.fromiter(itertools.chain.from_iterable(followees), np.int64, len(src))
    return DirectedGraph._from_out_adj(n, src, dst)


def generate_hybrid(config: FormationConfig) -> DirectedGraph:
    """Per-event probabilistic mixture: meritocracy step with probability p,
    Matthew step with 1-p; see `_hybrid`. The endpoints run their own models'
    samplers, so for the same seed p = 0 gives the graph of `generate_matthew`
    and p = 1 that of `generate_meritocracy`."""
    if config.p == 0:
        return _capped_pa(int(config.n), int(config.m_cap), config.seed)
    if config.p == 1:
        return _meritocracy(config.n, config.m_cap, config.seed)
    return _hybrid(int(config.n), int(config.m_cap), float(config.p), config.seed)


# -- directed Erdos-Renyi ----------------------------------------------------


def generate_er_directed(config: FormationConfig) -> DirectedGraph:
    """Each ordered pair (i, j), i != j, carries an edge independently with
    probability `density`. Sparse densities use geometric gap-skipping over the
    n*(n-1) pair index space."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    q = float(config.density)
    total = n * (n - 1)
    hit = np.arange(total if q >= 1.0 else 0)     # every pair index, or none
    if 0.0 < q < 1.0:
        positions = []
        last = -1                           # last pair index drawn so far
        batch = max(64, int(1.2 * total * q) + 16)
        while last < total:
            # a gap clipped to total + 1 still ends past the last pair; the
            # sums up to the first one past it are < 2 * total < 2**63, so
            # exact, and later ones may wrap
            steps = np.cumsum(np.minimum(rng.geometric(q, size=batch), total + 1)) + last
            below = np.logical_and.accumulate(steps < total)
            positions.append(steps[below])
            last = int(steps[-1]) if below[-1] else total
        hit = np.concatenate(positions)
    src = hit // (n - 1)
    rem = hit % (n - 1)
    dst = rem + (rem >= src)
    return DirectedGraph._from_out_adj(n, src + 1, dst + 1)


_GENERATORS = {
    "meritocracy": generate_meritocracy,
    "matthew": generate_matthew,
    "hybrid": generate_hybrid,
    "er_directed": generate_er_directed,
}
MODELS = tuple(_GENERATORS)


def generate(config: FormationConfig) -> DirectedGraph:
    """Dispatch on config.model."""
    return _GENERATORS[config.model](config)


def matched_er_density(n: int, m_cap: int) -> float:
    """ER edge probability giving the same expected density as a Matthew graph
    with out-degree m_cap: m_cap * n edges over n*(n-1) ordered pairs."""
    return m_cap / (n - 1)
