"""Network generators: meritocracy, Matthew-effect, their probabilistic hybrid, and directed ER.

All generators seed from config.seed alone and are single-threaded.
Quality is represented purely by node id order: id 1 is the highest-quality node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

MODELS = ("meritocracy", "matthew", "hybrid", "er_directed")
# Limit on a hybrid run's expected events below p = 1, which are at most n * m_cap / (1 - p):
# each event is a Matthew step with probability 1 - p, and each of those adds an edge.
MAX_HYBRID_EVENTS = 10 ** 9


class ConfigError(ValueError):
    """Invalid FormationConfig."""


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not is_integer(self.n) or self.n < 2:
            raise ConfigError(f"n must be an integer >= 2, got {self.n!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not is_integer(self.m_cap) or self.m_cap < 1:
            raise ConfigError(f"m_cap must be a positive integer, got {self.m_cap!r}")
        if self.m_cap > self.n - 1:
            raise ConfigError(f"m_cap={self.m_cap} exceeds n-1={self.n - 1}")
        if self.model == "hybrid":
            if not is_real(self.p) or not 0.0 <= self.p <= 1.0:
                raise ConfigError(f"hybrid requires p in [0,1], got {self.p!r}")
            if self.p < 1.0 and self.n * self.m_cap > MAX_HYBRID_EVENTS * (1.0 - self.p):
                raise ConfigError(f"hybrid p={self.p!r} is too close to 1: up to n*m_cap/(1-p)"
                                  f" = {self.n * self.m_cap / (1 - self.p):.3g} expected events")
        if self.model == "er_directed":
            if not is_real(self.density) or not 0.0 <= self.density <= 1.0:
                raise ConfigError(f"er_directed requires density in [0,1], got {self.density!r}")


def _uniforms(rng: np.random.Generator):
    """Endless uniform(0,1) floats, drawn in blocks to avoid per-call Generator
    overhead in hot loops; a memoryview yields each block's values lazily."""
    while True:
        yield from memoryview(rng.random(1 << 15))


# -- meritocracy -------------------------------------------------------------


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
        idx = ids[active]
        cur = r[active]
        size = cur - 1 - (idx < cur)        # candidates strictly better than cur
        draw = rng.integers(1, size + 1)
        draw = draw + ((idx < cur) & (draw >= idx))
        r[active] = draw
        out[active, k] = draw
        nxt = active.copy()
        nxt[active] = draw != best[active]
        active = nxt
    return out


def generate_meritocracy(config: FormationConfig) -> DirectedGraph:
    """Quality-driven formation: a node follows a candidate only if it beats
    every current followee; stops at the best node or at m_cap followees.

    Samples each node's record sequence directly; the literal uniform-pair
    event process (`generate_hybrid` at p = 1) has the same equilibrium
    distribution.
    """
    mat = merit_followee_matrix(config.n, config.m_cap, np.random.default_rng(config.seed))
    rows, cols = np.nonzero(mat)
    return DirectedGraph._from_out_adj(config.n, rows + 1, mat[rows, cols])


# -- event-driven models: Matthew effect and hybrid --------------------------


def _event_loop(n: int, m: int, p: float, seed: int) -> DirectedGraph:
    """Shared event loop: each event picks an active node i uniformly, then with
    probability p attempts one meritocracy step (uniform candidate, accepted only
    if it beats all current followees) and otherwise performs one Matthew draw:
    capped preferential attachment with target weight in-degree + 1 (the virtual
    self-link), illegal targets (self, already-followed) rejected and redrawn.
    p = 0 is the Matthew model exactly; the merit coin is drawn, and the merit
    state kept, only when p > 0. Node i's merit state `better[i]` counts the
    other nodes that beat its best followee; a merit candidate x indexes the
    other nodes in id order, so the step succeeds iff x < better[i].

    Weighted target sampling uses a repeated-endpoint pool (one entry per unit
    of weight), giving O(1) draws with exact proportionality.

    A node stays active until its out-degree reaches m or, at p == 1, until
    better[i] is 0 (meritocracy equilibrium: no further event can succeed for
    it); a finished node is swap-removed at its index in the active list.
    """
    followees: list[set[int]] = [set() for _ in range(n)]
    src: list[int] = []                     # edges in creation order
    better = [n - 1] * (n + 1)              # no followee yet: every other node beats it
    pool = list(range(1, n + 1))            # virtual self-links, then edge targets
    active = list(range(1, n + 1))
    u = _uniforms(np.random.default_rng(seed)).__next__
    merit = p > 0.0                         # better is read only by merit steps
    pure_merit = p == 1.0
    while active:
        k = int(u() * len(active))
        i = active[k]
        mine = followees[i - 1]
        if merit and u() < p:
            x = u() * (n - 1)
            if x >= better[i]:
                continue                    # no-op event
            j = int(x) + 1
            if j >= i:
                j += 1
        else:
            while True:
                j = pool[int(u() * len(pool))]
                if j != i and j not in mine:
                    break
        src.append(i)
        mine.add(j)
        if merit:
            c = j - 2 if j > i else j - 1   # other nodes that beat j
            if c < better[i]:
                better[i] = c
        pool.append(j)
        if len(mine) == m or (pure_merit and better[i] == 0):
            active[k] = active[-1]
            active.pop()
    return DirectedGraph._from_out_adj(n, src, pool[n:])


def generate_matthew(config: FormationConfig) -> DirectedGraph:
    """Capped preferential attachment: the event loop at p = 0 (exactly the
    Matthew model). Source uniform among nodes with out-degree < m_cap; target
    weight in-degree + 1. Terminates with exactly m_cap * n edges."""
    return _event_loop(config.n, config.m_cap, 0.0, config.seed)


def generate_hybrid(config: FormationConfig) -> DirectedGraph:
    """Per-event probabilistic mixture: meritocracy step with probability p,
    Matthew step with 1-p. p = 0 is the Matthew model exactly (same graph as
    `generate_matthew` for the same seed); p = 1 is the meritocracy event
    process, distributed as `generate_meritocracy`."""
    return _event_loop(config.n, config.m_cap, float(config.p), config.seed)


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
            # a gap clipped to total + 1 still ends past the last pair, and cannot overflow
            steps = np.cumsum(np.minimum(rng.geometric(q, size=batch), total + 1)) + last
            positions.append(steps[steps < total])
            last = int(steps[-1])
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


def generate(config: FormationConfig) -> DirectedGraph:
    """Dispatch on config.model."""
    return _GENERATORS[config.model](config)


def matched_er_density(n: int, m_cap: int) -> float:
    """ER edge probability giving the same expected density as a Matthew graph
    with out-degree m_cap: m_cap * n edges over n*(n-1) ordered pairs."""
    return m_cap / (n - 1)
