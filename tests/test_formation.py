import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy.stats import chisquare

from netforge import (ConfigError, FormationConfig, brute_force_oracle,
                      generate, generate_er_directed, generate_hybrid,
                      generate_matthew, generate_meritocracy,
                      merit_followee_matrix)
from netforge.formation import _time_order, _uniforms
from netforge.graph import DirectedGraph


def cfg(**kw):
    return FormationConfig(**kw)


def followees(g):
    """Per-node target lists, node order, creation order within each."""
    return [g.indices[a:b].tolist() for a, b in zip(g.indptr[:-1], g.indptr[1:])]


def reference_matthew(n, m, seed):
    """The Matthew model as a per-edge loop, kept only as a reference for the
    array sampler behind `generate_matthew`: each event picks an active node
    (out-degree < m) uniformly and draws its target from a pool holding one
    virtual self-link per node plus every earlier target (weight in-degree + 1),
    redrawing a target that is the node itself or one it already follows."""
    followees = [set() for _ in range(n + 1)]
    src = []
    pool = list(range(1, n + 1))
    active = list(range(1, n + 1))
    where = list(range(-1, n))              # where[i]: index of node i in active
    u = _uniforms(np.random.default_rng(seed)).__next__
    while active:
        i = active[int(u() * len(active))]
        mine = followees[i]
        while True:
            j = pool[int(u() * len(pool))]
            if j != i and j not in mine:
                break
        src.append(i)
        mine.add(j)
        pool.append(j)
        if len(mine) == m:
            k = where[i]
            last = active.pop()
            if last != i:
                active[k] = last
                where[last] = k
    return DirectedGraph._from_out_adj(n, src, pool[n:])


def reference_hybrid(n, m, p, seed):
    """The hybrid process at 0 < p < 1 run as its jump chain, kept only as a
    reference for the attempt-clock sampler behind `generate_hybrid`. Node i's
    merit state `better[i]` counts the other nodes that beat its best followee,
    so i adds an edge with weight (1 - p) + p * better[i] / (n - 1). Only those
    events are simulated (the n-fold way of Bortz, Kalos & Lebowitz 1975): one
    uniform over the total weight picks either a Matthew step of a uniform
    active node or a merit step of a node drawn in proportion to `better[i]`
    by descent in a Fenwick tree over node ids; the merit candidate is then
    uniform over i's better set, so every drawn event adds an edge."""
    followees = [set() for _ in range(n + 1)]
    src = []
    pool = list(range(1, n + 1))
    active = list(range(1, n + 1))
    where = list(range(-1, n))              # where[i]: index of node i in active
    u = _uniforms(np.random.default_rng(seed)).__next__
    matthew_w = 1.0 - p
    merit_w = p / (n - 1)
    better = [n - 1] * (n + 1)
    size = 1 << n.bit_length()              # Fenwick tree over ids 1..n, zero-padded
    steps = [size >> b for b in range(1, n.bit_length() + 1)]
    ids = np.arange(size + 1)               # tree[t] sums the ids in (t - lowbit(t), t]
    tree = ((n - 1) * np.clip(np.minimum(ids, n) - (ids - (ids & -ids)), 0, None)).tolist()
    total = (n - 1) * n                     # sum of better over active nodes
    while active:
        j = 0
        live = len(active)
        a = matthew_w * live
        x = u() * (a + merit_w * total)
        if x < a:
            k = int(x / matthew_w)
            i = active[k if k < live else live - 1]     # float rounding
        else:
            y = min(int((x - a) / merit_w), total - 1)
            i = 0                           # descend to the node holding rank y
            for step in steps:
                t = tree[i + step]
                if t <= y:
                    i += step
                    y -= t
            i += 1
            j = int(u() * better[i]) + 1
            if j >= i:
                j += 1
        mine = followees[i]
        if not j:
            while True:
                j = pool[int(u() * len(pool))]
                if j != i and j not in mine:
                    break
        src.append(i)
        mine.add(j)
        pool.append(j)
        c = 0 if len(mine) == m else (j - 2 if j > i else j - 1)
        d = better[i] - c
        if d > 0:
            better[i] = c
            total -= d
            t = i
            while t < size:
                tree[t] -= d
                t += t & -t
        if len(mine) == m:
            k = where[i]
            last = active.pop()
            if last != i:
                active[k] = last
                where[last] = k
    return DirectedGraph._from_out_adj(n, src, pool[n:])


def welch_z(new, old):
    """Per-feature Welch z of two samples of iid feature rows (equal counts);
    a feature constant on both sides must agree exactly and scores 0."""
    var = new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)
    gap = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(gap[var == 0] == 0)
    return np.divide(gap * np.sqrt(len(new)), np.sqrt(var), out=np.zeros_like(gap),
                     where=var > 0)


def rank_features(d, edges):
    """The fraction of nodes at in-degree 0..19 and >= 20 (the pooled histogram
    is their mean over runs) and the mean in-degree over the rank bins `edges`
    (the binned mean rank curve)."""
    hist = np.bincount(np.minimum(d, 20), minlength=21) / len(d)
    ranked = np.sort(d)[::-1]
    return np.concatenate((hist, np.add.reduceat(ranked, edges[:-1] - 1) / np.diff(edges)))


class TestConfig:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            cfg(model="zipf", n=10)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            cfg(model="matthew", n=1, m_cap=1)
        with pytest.raises(ConfigError):
            cfg(model="matthew", n=5, m_cap=5)   # m_cap > n-1
        with pytest.raises(ConfigError):
            cfg(model="matthew", n=5, m_cap=0)
        with pytest.raises(ConfigError):
            cfg(model="hybrid", n=5, m_cap=2)    # p missing
        with pytest.raises(ConfigError):
            cfg(model="hybrid", n=5, m_cap=2, p=1.5)
        with pytest.raises(ConfigError):
            cfg(model="er_directed", n=5, m_cap=2)   # density missing

    @pytest.mark.parametrize("model,key,value", [
        ("matthew", "n", True), ("matthew", "m_cap", True),
        ("hybrid", "p", "0.5"), ("hybrid", "p", True), ("hybrid", "p", float("nan")),
        ("er_directed", "density", "x"), ("er_directed", "density", False),
        ("er_directed", "density", float("inf")),
        ("matthew", "seed", -1), ("matthew", "seed", 1.5),
        # every model checks p and density, not only the one that reads it
        ("meritocracy", "p", float("nan")), ("matthew", "density", float("inf")),
        ("hybrid", "density", "y"), ("er_directed", "p", [1])])
    def test_mistyped_fields_rejected(self, model, key, value):
        base = {"model": model, "n": 10, "m_cap": 2, "p": 0.5, "density": 0.1}
        with pytest.raises(ConfigError, match=key):
            cfg(**{**base, key: value})

    def test_hybrid_near_p1_finishes(self, time_limit):
        # every node fills by its m-th Matthew attempt, so p just below 1 or just
        # above 0 finishes with every node full; a tiny p leaves no merit record,
        # and no division may overflow (RuntimeWarnings are errors)
        with time_limit(30):
            for n, m, p in [(3, 2, 1 - 2.0 ** -53), (10_000, 5, 0.99999),
                            (10_000, 5, 0.9999), (3, 2, 0.999), (10_000, 5, 5e-324),
                            (10_000, 5, 1e-300), (3, 2, 2.0 ** -52)]:
                g = generate(cfg(model="hybrid", n=n, m_cap=m, p=p))
                assert g.edge_count == n * m
                assert np.all(np.diff(g.indptr) == m)
        cfg(model="hybrid", n=10 ** 9, m_cap=5, p=1.0)

    def test_numpy_scalars_accepted(self):
        c = cfg(model="hybrid", n=np.int64(10), m_cap=np.int32(2), p=np.float64(0.5))
        assert generate(c).edge_count == 20

    def test_numpy_scalars_stored_as_python_numbers(self):
        # an int32 n would wrap in the ER pair count n * (n - 1)
        c = cfg(model="er_directed", n=np.int32(50_000), m_cap=np.int16(1),
                density=np.float32(1e-6), seed=np.uint8(1), p=np.float64(0.5))
        assert [type(v) for v in (c.n, c.m_cap, c.density, c.seed, c.p)] == [
            int, int, float, int, float]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = generate(cfg(model="er_directed", n=np.int32(50_000), m_cap=1,
                             density=1e-6, seed=1))
        want = generate(cfg(model="er_directed", n=50_000, m_cap=1, density=1e-6, seed=1))
        assert g.edge_count == want.edge_count > 0
        assert followees(g) == followees(want)


class TestMeritocracy:
    def test_n2_forced(self):
        g = generate_meritocracy(cfg(model="meritocracy", n=2, m_cap=1, seed=0))
        assert sorted(g.edges()) == [(1, 2), (2, 1)]

    def test_n3_top_node_always_full(self):
        # both other nodes terminate by linking node 1 (exhaustive over orders)
        for seed in range(50):
            g = generate_meritocracy(cfg(model="meritocracy", n=3, m_cap=2, seed=seed))
            assert g.in_degree[0] == 2

    def test_equilibrium_conditions(self):
        g = generate_meritocracy(cfg(model="meritocracy", n=40, m_cap=3, seed=9))
        g.check_invariants()
        for i, targets in enumerate(followees(g), start=1):
            best = 2 if i == 1 else 1
            assert best in targets or len(targets) == 3
            assert 1 <= len(targets) <= 3

    def test_records_strictly_decreasing(self):
        g = generate_meritocracy(cfg(model="meritocracy", n=200, m_cap=5, seed=3))
        for targets in followees(g):
            assert all(a > b for a, b in zip(targets, targets[1:]))

    def test_matches_oracle_mean(self):
        # Monte Carlo per-node mean within 5 standard errors of enumeration
        n, m, runs = 5, 2, 20000
        rng = np.random.default_rng(42)
        mat = merit_followee_matrix(n, m, rng, copies=runs)
        run_idx = np.repeat(np.arange(runs), n)
        flat = mat.ravel()
        keep = flat > 0
        links = run_idx.repeat(m)[keep] * n + (flat[keep] - 1)
        counts = np.bincount(links, minlength=runs * n).reshape(runs, n)
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(runs)
        oracle = brute_force_oracle(n, m).values
        assert np.all(np.abs(mean - oracle) <= 5 * se + 1e-12)


class TestMatthew:
    def test_n2_forced(self):
        g = generate_matthew(cfg(model="matthew", n=2, m_cap=1, seed=5))
        assert sorted(g.edges()) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("n,m", [(10, 3), (57, 5), (200, 1), (12, 11), (60, 59)])
    def test_exact_out_degrees(self, n, m):
        # at m = n - 1 nearly every first draw is rejected, and the graph is
        # the complete digraph
        g = generate_matthew(cfg(model="matthew", n=n, m_cap=m, seed=1))
        g.check_invariants()
        assert g.edge_count == m * n
        assert all(len(t) == m for t in followees(g))
        if m == n - 1:
            assert np.all(g.in_degree == n - 1)

    def test_matches_reference_loop(self):
        # Two-sample test against the per-edge loop, 200 runs each on disjoint
        # seeds at n = 1000, M = 5. Runs are iid, so each run contributes one
        # vector of `rank_features` over 26 log-spaced rank bins. Every
        # feature's Welch z must stay below 4.5: two-sided 7e-6 per feature,
        # under 4e-4 for all 47 together.
        n, m, runs = 1000, 5, 200
        edges = np.unique(np.geomspace(1, n + 1, 31).astype(int))
        new = np.array([rank_features(generate_matthew(cfg(
            model="matthew", n=n, m_cap=m, seed=r)).in_degree, edges) for r in range(runs)])
        old = np.array([rank_features(reference_matthew(n, m, runs + r).in_degree, edges)
                        for r in range(runs)])
        assert welch_z(new, old).max() < 4.5

    @pytest.mark.parametrize("n,m", [(3, 2), (2, 3)])
    def test_firing_order_law(self, n, m):
        # each firing is uniform over the nodes with firings left, so a source
        # sequence has probability prod_t 1 / (nodes with firings left at t);
        # chi-square of 20000 orders against that exact law
        law = {}

        def walk(seq, left, prob):
            live = [i for i in range(n) if left[i]]
            if not live:
                law[tuple(seq)] = prob
            for i in live:
                left[i] -= 1
                walk(seq + [i], left, prob / len(live))
                left[i] += 1

        walk([], [m] * n, 1.0)
        assert sum(law.values()) == pytest.approx(1.0)
        rng, runs = np.random.default_rng(0), 20000
        # _capped_pa's source order: the stable ranking of each node's m
        # cumulative Exp(1) firing times; slot // m is the firing node
        seen = Counter(tuple((_time_order(np.cumsum(rng.exponential(size=(n, m)), axis=1)
                                          .ravel()) // m).tolist()) for _ in range(runs))
        assert set(seen) <= set(law)
        cells = sorted(law)
        assert chisquare([seen[c] for c in cells], [law[c] * runs for c in cells]).pvalue > 1e-3

    def test_first_draw_uniform(self):
        # with all in-degrees zero every node carries weight 1: the first
        # accepted target is uniform over the other n-1 nodes
        n, runs = 6, 30000
        rng = np.random.default_rng(0)
        first = np.zeros(n)
        for _ in range(runs):
            pool = list(range(1, n + 1))
            i = int(rng.integers(1, n + 1))
            while True:
                j = pool[int(rng.random() * len(pool))]
                if j != i:
                    break
            first[j - 1] += 1
        # sanity check of the weighting convention used by the generator
        assert np.all(np.abs(first / runs - 1 / n) < 0.02)


class TestHybrid:
    def test_endpoint_p0_matches_matthew(self):
        # p = 0 is the Matthew model and p = 1 the meritocracy model exactly:
        # same seed, same graph
        for p, model in [(0.0, "matthew"), (1.0, "meritocracy")]:
            for n, m in [(2, 1), (7, 3), (50, 5), (300, 2)]:
                for seed in range(4):
                    base = dict(n=n, m_cap=m, seed=seed)
                    h = generate_hybrid(cfg(model="hybrid", p=p, **base))
                    assert h.to_edge_list() == generate(cfg(model=model, **base)).to_edge_list()

    @pytest.mark.parametrize("p", [0.25, 0.75])
    def test_matches_reference_loop(self, p):
        # Two-sample test against the jump-chain loop, as for matthew: 200 runs
        # each on disjoint seeds at n = 1000, M = 5, Welch z < 4.5 on the 47
        # `rank_features` plus the mean in-degree of the same 26 bins taken
        # over node ids (quality ranks), which the merit half depends on:
        # under 6e-4 for all 73 together.
        n, m, runs = 1000, 5, 200
        edges = np.unique(np.geomspace(1, n + 1, 31).astype(int))

        def features(g):
            d = g.in_degree
            by_id = np.add.reduceat(d, edges[:-1] - 1) / np.diff(edges)
            return np.concatenate((rank_features(d, edges), by_id))

        new = np.array([features(generate_hybrid(cfg(model="hybrid", n=n, m_cap=m, p=p,
                                                      seed=r))) for r in range(runs)])
        old = np.array([features(reference_hybrid(n, m, p, runs + r)) for r in range(runs)])
        assert welch_z(new, old).max() < 4.5

    @pytest.mark.parametrize("size, distinct", [(0, 1), (1, 1), (2, 1), (5000, 7),
                                                (5000, 4000), (5000, 10 ** 9)])
    def test_time_order_is_stable(self, size, distinct):
        # the replay order of the attempt times: with ties (few distinct
        # values) the stable fallback must run, without them the default sort
        # must already give the stable order
        rng = np.random.default_rng(size + distinct)
        times = rng.integers(0, distinct, size) / 3
        assert np.array_equal(_time_order(times), np.argsort(times, kind="stable"))
        clocks = np.cumsum(rng.exponential(size=(size, 3)), axis=1).ravel()
        assert np.array_equal(_time_order(clocks), np.argsort(clocks, kind="stable"))

    def test_time_order_breaks_ties_by_position(self):
        times = np.array([2.0, 1.0, 2.0, 0.5, 1.0, 2.0] * 100)
        order = _time_order(times)
        assert np.array_equal(order, np.argsort(times, kind="stable"))
        assert order[:100].tolist() == list(range(3, 600, 6))

    def test_all_invariants_mid_p(self):
        g = generate_hybrid(cfg(model="hybrid", n=100, m_cap=4, p=0.6, seed=7))
        g.check_invariants()
        assert all(len(t) <= 4 for t in followees(g))
        assert g.edge_count == 400   # p < 1 terminates at full out-degree


def jump_chain_oracle(n, m, p):
    """Exact distribution of the hybrid process's final graph: {state: probability}.

    A state is the tuple of the nodes' followee sets. Per event the process picks
    an active node (fewer than m followees) uniformly; with probability p it
    tries a uniform candidate among the other n - 1 nodes, accepted if it beats
    (has a lower id than) every followee, and otherwise draws a target with
    weight in-degree + 1 among the nodes it may still follow. Events that add
    no edge leave the state unchanged, so the jump chain moves i -> j with
    probability proportional to (1 - p) (indeg[j] + 1) / mass_i + p [j beats
    i's followees] / (n - 1), and a state where that total is 0 is final. Every
    move adds one edge, so a DP over states in order of edge count is exact.
    """
    level = {tuple(frozenset() for _ in range(n)): 1.0}
    final = defaultdict(float)
    while level:
        nxt = defaultdict(float)
        for state, prob in level.items():
            indeg = Counter(j for f in state for j in f)
            moves = []
            for i, f in enumerate(state, start=1):
                if len(f) == m:
                    continue
                legal = [j for j in range(1, n + 1) if j != i and j not in f]
                mass = sum(indeg[j] + 1 for j in legal)
                best = min(f, default=n + 1)
                moves += [(i, j, (1 - p) * (indeg[j] + 1) / mass + p * (j < best) / (n - 1))
                          for j in legal]
            total = sum(rate for _, _, rate in moves)
            if not total:
                final[state] += prob
                continue
            for i, j, rate in moves:
                if rate:
                    after = list(state)
                    after[i - 1] = state[i - 1] | {j}
                    nxt[tuple(after)] += prob * rate / total
        level = nxt
    return dict(final)


class TestJumpChainOracle:
    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 1), (4, 2)])
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_final_graph_distribution(self, n, m, p):
        # chi-square of 2000 seeded runs against the exact final-graph law;
        # cells expected below 5 are pooled into one
        exact = jump_chain_oracle(n, m, p)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        runs = 2000
        seen = Counter(tuple(frozenset(t) for t in followees(
            generate_hybrid(cfg(model="hybrid", n=n, m_cap=m, p=p, seed=r))))
            for r in range(runs))
        assert set(seen) <= set(exact)
        big = [s for s, q in exact.items() if q * runs >= 5]
        observed = [seen[s] for s in big]
        expected = [exact[s] * runs for s in big]
        if len(big) < len(exact):
            observed.append(runs - sum(observed))
            expected.append(runs - sum(expected))
        if len(observed) > 1:
            assert chisquare(observed, expected).pvalue > 1e-3

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_matthew_indegree_profile(self, p):
        # The Matthew sampler redraws a rejected step and hands the new target
        # to every step that copied it; at mid p the hybrid sampler's Matthew
        # draws also pick merit targets from the pool. The sorted in-degree
        # vector has 6 values at n = 5, M = 1, so 4000 runs resolve what the
        # 2000-run edge-set tests above cannot: a Matthew sampler that skips
        # the hand-off gave chi-square p of 1e-5 to 1e-9 here. Threshold as above.
        n, m, runs = 5, 1, 4000
        law = defaultdict(float)
        for state, prob in jump_chain_oracle(n, m, p).items():
            indeg = Counter(j for f in state for j in f)
            law[tuple(sorted(indeg[k] for k in range(1, n + 1)))] += prob
        seen = Counter(tuple(sorted(generate_hybrid(cfg(
            model="hybrid", n=n, m_cap=m, p=p, seed=r)).in_degree.tolist()))
            for r in range(runs))
        assert set(seen) <= set(law)
        cells = sorted(law)
        assert min(law.values()) * runs >= 5
        assert chisquare([seen[c] for c in cells],
                         [law[c] * runs for c in cells]).pvalue > 1e-3

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_p1_matches_brute_force_oracle(self, n, m):
        # at p = 1 the chain is the meritocracy process: its exact mean in-degree
        # per quality rank is the record-enumeration oracle's
        mean = np.zeros(n)
        for state, prob in jump_chain_oracle(n, m, 1.0).items():
            for f in state:
                for j in f:
                    mean[j - 1] += prob
        assert np.allclose(mean, brute_force_oracle(n, m).values, rtol=1e-12, atol=1e-12)


class TestErDirected:
    def test_density_zero(self):
        g = generate_er_directed(cfg(model="er_directed", n=10, m_cap=1,
                                     density=0.0, seed=0))
        assert g.edge_count == 0

    def test_density_one_complete(self):
        g = generate_er_directed(cfg(model="er_directed", n=4, m_cap=1,
                                     density=1.0, seed=0))
        assert g.edge_count == 12
        g.check_invariants()

    @pytest.mark.parametrize("density", [1e-18, 1e-30, 5e-324])
    def test_tiny_density_gives_empty_graph(self, density, time_limit):
        # the geometric gaps here are huge (up to INT64_MAX) and must not overflow
        with time_limit(5):
            g = generate_er_directed(cfg(model="er_directed", n=50, m_cap=1,
                                         density=density, seed=0))
        assert g.edge_count == 0
        g.check_invariants()

    def test_node_count_bound(self):
        cfg(model="er_directed", n=2 ** 31, m_cap=1, density=0.0)     # n * (n - 1) < 2**62
        with pytest.raises(ConfigError, match=r"n must be an integer in \[2, 2147483649\)"):
            cfg(model="er_directed", n=2 ** 31 + 1, m_cap=1, density=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_huge_sparse_ids_in_range(self, monkeypatch, seed):
        # the gap sums past the last pair index once wrapped past 2**63 into
        # negative ids; the graph itself (8 GB of in-degrees) is not built
        n = 10 ** 9
        monkeypatch.setattr(DirectedGraph, "_from_out_adj",
                            classmethod(lambda cls, *args: args))
        size, src, dst = generate_er_directed(cfg(model="er_directed", n=n, m_cap=1,
                                                  density=1e-20, seed=seed))
        assert size == n
        assert np.all((1 <= src) & (src <= n)) and np.all((1 <= dst) & (dst <= n))
        assert not np.any(src == dst)

    def test_expected_edge_count(self):
        n, q = 400, 0.01
        counts = [generate_er_directed(cfg(model="er_directed", n=n, m_cap=1,
                                           density=q, seed=s)).edge_count
                  for s in range(30)]
        expect = q * n * (n - 1)
        # binomial mean with sd sqrt(npq); 30-run mean within ~4 sd of that
        assert abs(np.mean(counts) - expect) < 4 * np.sqrt(expect) / np.sqrt(30)


def test_determinism_same_seed():
    for model, extra in [("meritocracy", {}), ("matthew", {}),
                         ("hybrid", {"p": 0.3}), ("er_directed", {"density": 0.02})]:
        c = cfg(model=model, n=80, m_cap=3, seed=123, **extra)
        assert generate(c).to_edge_list() == generate(c).to_edge_list()


def test_uniforms_stream_and_state():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    u = _uniforms(rng).__next__
    draws = [u()]
    first = np.random.default_rng(3)
    first.random(64)
    assert rng.bit_generator.state == first.bit_generator.state    # one draw, one 64-block
    sizes = [64 << k for k in range(10)] + [1 << 15] * 2    # doubling to 2**15, then 2**15
    count = sum(sizes[:-1]) + 5                             # five draws into the last block
    draws += [u() for _ in range(count - 1)]
    assert all(type(x) is float for x in draws)
    assert draws == ref.random(sum(sizes))[:count].tolist()
    # blocks are whole: the rng has advanced by exactly the block sizes
    blocks = np.random.default_rng(3)
    for size in sizes:
        blocks.random(size)
    assert rng.bit_generator.state == blocks.bit_generator.state
