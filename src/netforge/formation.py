"""Network generators: meritocracy, Matthew-effect, their probabilistic hybrid, and directed ER.

All generators are deterministic given (config, seed) and single-threaded.
Quality is represented purely by node id order: id 1 is the highest-quality node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

MODELS = ("meritocracy", "matthew", "hybrid", "er_directed")


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
        if not is_integer(self.m_cap) or self.m_cap < 1:
            raise ConfigError(f"m_cap must be a positive integer, got {self.m_cap!r}")
        if self.m_cap > self.n - 1:
            raise ConfigError(f"m_cap={self.m_cap} exceeds n-1={self.n - 1}")
        if self.model == "hybrid":
            if not is_real(self.p) or not 0.0 <= self.p <= 1.0:
                raise ConfigError(f"hybrid requires p in [0,1], got {self.p!r}")
        if self.model == "er_directed":
            if not is_real(self.density) or not 0.0 <= self.density <= 1.0:
                raise ConfigError(f"er_directed requires density in [0,1], got {self.density!r}")


def _rng_for(config: FormationConfig, rng) -> np.random.Generator:
    return np.random.default_rng(config.seed) if rng is None else rng


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


def generate_meritocracy(config: FormationConfig, rng=None) -> DirectedGraph:
    """Quality-driven formation: a node follows a candidate only if it beats
    every current followee; stops at the best node or at m_cap followees.

    Samples each node's record sequence directly; the literal uniform-pair
    event process (`generate_hybrid` at p = 1) has the same equilibrium
    distribution.
    """
    rng = _rng_for(config, rng)
    n, m = config.n, config.m_cap
    mat = merit_followee_matrix(n, m, rng)
    rows, cols = np.nonzero(mat)
    return DirectedGraph._from_out_adj(n, rows + 1, mat[rows, cols])


# -- event-driven models: Matthew effect and hybrid --------------------------


def _event_loop(n: int, m: int, p: float, rng: np.random.Generator) -> DirectedGraph:
    """Shared event loop: each event picks an active node i uniformly, then with
    probability p attempts one meritocracy step (uniform candidate, accepted only
    if it beats all current followees) and otherwise performs one Matthew draw:
    capped preferential attachment with target weight in-degree + 1 (the virtual
    self-link), illegal targets (self, already-followed) rejected and redrawn.
    p = 0 is the Matthew model exactly; the merit coin is drawn only when p > 0.

    Weighted target sampling uses a repeated-endpoint pool (one entry per unit
    of weight), giving O(1) draws with exact proportionality.

    A node stays active until its out-degree reaches m; for p == 1 it also
    leaves the active list once it follows the best available node (meritocracy
    equilibrium), since no further event can ever succeed for it. A finished
    node is swap-removed at its index in the active list.
    """
    followees: list[set[int]] = [set() for _ in range(n)]
    src: list[int] = []                     # edges in creation order
    best_follow = [n + 2] * (n + 1)         # min followee id per node, sentinel
    pool = list(range(1, n + 1))            # virtual self-links, then edge targets
    active = list(range(1, n + 1))
    u = _uniforms(rng).__next__
    pure_merit = p == 1.0
    while active:
        k = int(u() * len(active))
        i = active[k]
        mine = followees[i - 1]
        if p > 0.0 and u() < p:
            j = int(u() * (n - 1)) + 1
            if j >= i:
                j += 1
            if j >= best_follow[i]:
                continue                    # no-op event
        else:
            while True:
                j = pool[int(u() * len(pool))]
                if j != i and j not in mine:
                    break
        src.append(i)
        mine.add(j)
        if j < best_follow[i]:
            best_follow[i] = j
        pool.append(j)
        if len(mine) == m or (pure_merit and best_follow[i] == (2 if i == 1 else 1)):
            active[k] = active[-1]
            active.pop()
    return DirectedGraph._from_out_adj(n, src, pool[n:])


def generate_matthew(config: FormationConfig, rng=None) -> DirectedGraph:
    """Capped preferential attachment: the event loop at p = 0 (exactly the
    Matthew model). Source uniform among nodes with out-degree < m_cap; target
    weight in-degree + 1. Terminates with exactly m_cap * n edges."""
    return _event_loop(config.n, config.m_cap, 0.0, _rng_for(config, rng))


def generate_hybrid(config: FormationConfig, rng=None) -> DirectedGraph:
    """Per-event probabilistic mixture: meritocracy step with probability p,
    Matthew step with 1-p. p = 0 is the Matthew model exactly (same graph as
    `generate_matthew` for the same seed); p = 1 is the meritocracy event
    process, distributed as `generate_meritocracy`."""
    return _event_loop(config.n, config.m_cap, float(config.p), _rng_for(config, rng))


# -- directed Erdos-Renyi ----------------------------------------------------


def generate_er_directed(config: FormationConfig, rng=None) -> DirectedGraph:
    """Each ordered pair (i, j), i != j, carries an edge independently with
    probability `density`. Sparse densities use geometric gap-skipping over the
    n*(n-1) pair index space."""
    rng = _rng_for(config, rng)
    n = config.n
    q = float(config.density)
    total = n * (n - 1)
    hit = np.arange(total if q >= 1.0 else 0)     # every pair index, or none
    if 0.0 < q < 1.0:
        positions = []
        last = -1                           # last pair index drawn so far
        batch = max(64, int(1.2 * total * q) + 16)
        while last < total:
            steps = np.cumsum(rng.geometric(q, size=batch)) + last
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


def generate(config: FormationConfig, rng=None) -> DirectedGraph:
    """Dispatch on config.model."""
    return _GENERATORS[config.model](config, rng)


def matched_er_density(n: int, m_cap: int) -> float:
    """ER edge probability giving the same expected density as a Matthew graph
    with out-degree m_cap: m_cap * n edges over n*(n-1) ordered pairs."""
    return m_cap / (n - 1)
