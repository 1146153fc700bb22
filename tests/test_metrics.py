import dataclasses
from collections import Counter, deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from netforge import (DirectedGraph, FormationConfig, InsufficientDataError,
                      clustering, compute_report, degree_distribution,
                      fit_power_law, generate, gini, matched_er_density,
                      metrics, path_stats)


def graph(n, edges):
    return DirectedGraph.from_edge_list("".join(f"{i},{j}\n" for i, j in edges), n=n)


def star(n):
    return graph(n, [(i, 1) for i in range(2, n + 1)])


def chain3():
    return graph(3, [(1, 2), (2, 3)])


def complete_digraph(n):
    return graph(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])


def indeg(g):
    return g.degrees_snapshot()[0]


class TestDegreeDistribution:
    def test_star(self):
        hist, ccdf = degree_distribution(indeg(star(5)))
        assert hist == {0: 4, 4: 1}
        assert dict(ccdf)[0] == 1.0
        assert dict(ccdf)[4] == pytest.approx(0.2)

    def test_empty(self):
        hist, ccdf = degree_distribution(indeg(graph(3, [])))
        assert hist == {0: 3}
        assert ccdf == [(0, 1.0)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=60))
    def test_matches_counter_reference(self, degrees):
        hist = Counter(degrees)
        ccdf, remaining = [], len(degrees)
        for val in sorted(hist):
            ccdf.append((val, remaining / len(degrees)))
            remaining -= hist[val]
        assert degree_distribution(degrees) == (dict(sorted(hist.items())), ccdf)

    def test_ccdf_monotone_nonincreasing(self):
        g = generate(FormationConfig("matthew", n=400, m_cap=3, seed=7))
        _, ccdf = degree_distribution(indeg(g))
        vals = [v for _, v in ccdf]
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestPowerLawFit:
    def test_synthetic_oracle(self):
        # discretized Pareto: d = floor(y + 0.5) with continuous exponent 2.5
        rng = np.random.default_rng(42)
        xmin = 10
        y = (xmin - 0.5) * rng.uniform(size=100_000) ** (-1 / 1.5)
        d = np.floor(y + 0.5).astype(int)
        assert fit_power_law(d, xmin=xmin) == pytest.approx(2.5, abs=0.1)

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law(np.ones(200, dtype=int), xmin=10)

    def test_constant_tail(self):
        # all mass exactly at xmin: alpha = 1 + 1/log(xmin/(xmin-0.5))
        expected = 1 + 1 / np.log(10 / 9.5)
        assert fit_power_law(np.full(200, 10), xmin=10) == pytest.approx(expected)

    def test_xmin_below_one_rejected(self):
        for xmin in (0, -3, 0.5):
            with pytest.raises(ValueError, match="xmin") as exc:
                fit_power_law(np.arange(100), xmin=xmin)
            assert not isinstance(exc.value, InsufficientDataError)

    def test_tail_only_used(self):
        rng = np.random.default_rng(1)
        y = 9.5 * rng.uniform(size=50_000) ** (-1 / 1.5)
        d = np.floor(y + 0.5).astype(int)
        noise = np.concatenate([d, np.zeros(10_000, dtype=int)])
        assert fit_power_law(noise, xmin=10) == pytest.approx(
            fit_power_law(d, xmin=10), rel=1e-12)


class TestGini:
    def test_examples(self):
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75)
        assert gini([1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)
        assert gini([5]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([0, 0])
        with pytest.raises(ValueError):
            gini([1, -1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50),
           st.integers(2, 9))
    def test_scale_and_permutation_invariance(self, xs, k):
        if sum(xs) == 0:
            return
        base = gini(xs)
        assert -1e-12 <= base < 1.0
        assert gini([k * x for x in xs]) == pytest.approx(base, abs=1e-9)
        rng = np.random.default_rng(0)
        assert gini(rng.permutation(np.asarray(xs, float))) == pytest.approx(
            base, abs=1e-9)


class TestPathStats:
    def test_chain(self):
        stats = path_stats(chain3())
        assert stats.diameter == 2
        assert stats.avg_path_length == pytest.approx(4 / 3)

    def test_complete(self):
        stats = path_stats(complete_digraph(5))
        assert stats.diameter == 1
        assert stats.avg_path_length == 1.0

    def test_no_edges(self):
        stats = path_stats(graph(4, []))
        assert stats.diameter is None and stats.avg_path_length is None

    def test_apl_never_exceeds_diameter(self):
        g = generate(FormationConfig("meritocracy", n=120, m_cap=3, seed=3))
        stats = path_stats(g)
        assert stats.avg_path_length <= stats.diameter

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                            .filter(lambda e: e[0] != e[1])))))
    @example((4, set()))                            # no edges
    @example((3, {(1, 2), (3, 2)}))                 # unreachable pairs
    def test_matches_bfs_reference(self, case):
        n, edges = case
        out = {i: [] for i in range(1, n + 1)}
        for i, j in edges:
            out[i].append(j)
        lengths = []
        for s in out:
            dist = {s: 0}
            queue = deque([s])
            while queue:
                i = queue.popleft()
                for j in out[i]:
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        queue.append(j)
            lengths += [d for t, d in dist.items() if t != s]
        expected = (max(lengths), sum(lengths) / len(lengths)) if lengths else (None, None)
        assert tuple(path_stats(graph(n, sorted(edges)))) == expected

    @pytest.mark.parametrize("gather_bytes", [None, 8 * 2500, 3 * 8 * 5000])
    def test_matches_dijkstra_reference(self, monkeypatch, gather_bytes):
        # n = 2500 is not a multiple of 64 and spans two 2048-source blocks at
        # the default width; the reduced budgets give 1- and 3-word blocks
        if gather_bytes is not None:
            monkeypatch.setattr(metrics, "_GATHER_BYTES", gather_bytes)
        g = generate(FormationConfig("matthew", n=2500, m_cap=2, seed=4))
        stats = path_stats(g)
        assert tuple(stats) == dijkstra_path_stats(g)
        assert type(stats.diameter) is int and type(stats.avg_path_length) is float

    def test_matches_networkx_strongly_connected(self):
        g = generate(FormationConfig("matthew", n=300, m_cap=3, seed=8))
        ring = {(i, i % 300 + 1) for i in range(1, 301)}
        edges = sorted(ring | set(g.edges()))
        G = nx.DiGraph(edges)
        assert nx.is_strongly_connected(G)
        stats = path_stats(graph(300, edges))
        assert stats.diameter == nx.diameter(G)
        assert stats.avg_path_length == nx.average_shortest_path_length(G)

    @pytest.mark.parametrize("words", [None, 1, 3])
    def test_matches_networkx_mixed_depths(self, monkeypatch, words):
        # a 120-node chain runs its first sources for over 100 levels while
        # the clique's die out after 2; sinks and isolated nodes never expand.
        # Ids are shuffled, so every 64-source word mixes sources of all kinds
        n = 200
        edges = {(i, i + 1) for i in range(1, 120)}
        edges |= {(i, j) for i in range(120, 150) for j in range(120, 150) if i != j}
        edges |= {(i, 150 + i % 30) for i in range(100, 150)}     # 150..179 are sinks
        edges |= {(140, 1), (60, 125)}                             # 180..200 isolated
        label = np.random.default_rng(0).permutation(n) + 1
        g = graph(n, sorted((int(label[i - 1]), int(label[j - 1])) for i, j in edges))
        if words is not None:
            monkeypatch.setattr(metrics, "_GATHER_BYTES", words * 8 * g.edge_count)
        lengths = [d for s, dist in nx.all_pairs_shortest_path_length(nx.DiGraph(g.edges()))
                   for t, d in dist.items() if t != s]
        assert max(lengths) > 100
        assert tuple(path_stats(g)) == (max(lengths), sum(lengths) / len(lengths))


def dijkstra_path_stats(g, chunk=1024):
    """The all-source Dijkstra loop path_stats used before multi-source BFS."""
    adj = metrics.adjacency_csr(g)
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
    return (diameter, total / count) if count else (None, None)


def spgemm_clustering(g):
    """The sparse-product form clustering used before triangle enumeration:
    closed_i = 1/2 · row sum of b * (b @ b)."""
    a = metrics.adjacency_csr(g)
    b = (a + a.T).tocsr()
    s = np.asarray(b.sum(axis=1)).ravel()
    closed = 0.5 * np.asarray(b.multiply(b @ b).sum(axis=1)).ravel()
    denom = s * (s - 1.0)
    c = np.divide(closed, denom, out=np.zeros(g.n), where=denom > 0)
    return c, float(c.mean())


class TestClustering:
    def test_k3_digraph(self):
        per_node, mean = clustering(complete_digraph(3))
        assert np.allclose(per_node, 2 / 3)
        assert mean == pytest.approx(2 / 3)

    def test_chain_middle_zero(self):
        per_node, mean = clustering(chain3())
        assert np.all(per_node == 0.0)
        assert mean == 0.0

    def test_range_property(self):
        g = generate(FormationConfig("meritocracy", n=300, m_cap=4, seed=9))
        per_node, mean = clustering(g)
        assert np.all(per_node >= 0) and np.all(per_node <= 1)
        assert 0.0 <= mean <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                            .filter(lambda e: e[0] != e[1])))))
    def test_matches_triple_sum(self, case):
        n, edges = case
        a = np.zeros((n, n), dtype=int)
        for i, j in edges:
            a[i - 1, j - 1] = 1
        b = a + a.T
        expected = np.zeros(n)
        for i in range(n):
            s = b[i].sum()
            closed = sum(b[i, j] * b[j, k] * b[k, i]
                         for j in range(n) for k in range(n)) / 2
            if s > 1:
                expected[i] = closed / (s * (s - 1))
        per_node, mean = clustering(graph(n, sorted(edges)))
        assert np.array_equal(per_node, expected)
        assert mean == expected.mean()

    def test_mixed_reciprocity_by_hand(self):
        # b12 = b13 = 2 (mutual), b23 = 1, b14 = 1: the triangle weighs 2·2·1 = 4
        g = graph(4, [(1, 2), (2, 1), (2, 3), (3, 1), (1, 3), (4, 1)])
        per_node, mean = clustering(g)
        assert per_node.tolist() == [4 / (5 * 4), 4 / (3 * 2), 4 / (3 * 2), 0.0]
        assert mean == per_node.mean()

    def test_degree_ties(self):
        # a star on 1 whose leaves 2 and 3 link both ways, and a directed
        # triangle on 8, 9, 10: nodes 2, 3, 8, 9, 10 share undirected degree 2
        # and leaves 4..7 degree 1
        g = graph(10, [(1, k) for k in range(2, 8)]
                  + [(2, 3), (3, 2), (8, 9), (9, 10), (10, 8)])
        per_node, _ = clustering(g)
        assert per_node.tolist() == [2 / 30, 2 / 6, 2 / 6, 0, 0, 0, 0, 1 / 2, 1 / 2, 1 / 2]
        assert np.array_equal(per_node, spgemm_clustering(g)[0])

    @pytest.mark.parametrize("model,extra", [
        ("meritocracy", {}), ("matthew", {}), ("hybrid", {"p": 0.5}),
        ("er_directed", {"density": matched_er_density(2000, 5)})])
    def test_matches_spgemm_reference(self, model, extra):
        g = generate(FormationConfig(model, n=2000, m_cap=5, seed=1, **extra))
        per_node, mean = clustering(g)
        expected, expected_mean = spgemm_clustering(g)
        assert np.array_equal(per_node, expected) and mean == expected_mean
        assert expected_mean > 0

    def test_matches_spgemm_reference_reciprocal(self):
        # 3000 random pairs, about half of them linked both ways
        rng = np.random.default_rng(5)
        i, j = rng.integers(1, 401, size=(2, 3000))
        pairs = {(a, b) for a, b in zip(i.tolist(), j.tolist()) if a != b}
        back = {(b, a) for a, b in pairs if rng.random() < 0.5}
        g = graph(400, sorted(pairs | back))
        per_node, mean = clustering(g)
        expected, expected_mean = spgemm_clustering(g)
        assert np.array_equal(per_node, expected) and mean == expected_mean

    @pytest.mark.parametrize("wedges", [1, 40])
    def test_wedge_slices(self, monkeypatch, wedges):
        # budgets of 1 and 40 wedges: one slice per out-list position, and
        # slices that end inside an out-list
        monkeypatch.setattr(metrics, "_WEDGE_SLICE", wedges)
        g = generate(FormationConfig("meritocracy", n=300, m_cap=5, seed=2))
        assert np.array_equal(clustering(g)[0], spgemm_clustering(g)[0])
        g = complete_digraph(12)
        assert np.array_equal(clustering(g)[0], spgemm_clustering(g)[0])

    def test_er_close_to_density(self):
        n = 800
        density = matched_er_density(n, 5)
        vals = []
        for seed in range(5):
            g = generate(FormationConfig("er_directed", n=n, density=density,
                                         seed=seed))
            vals.append(clustering(g)[1])
        assert np.mean(vals) == pytest.approx(density, rel=0.4)


class TestReport:
    def test_alpha_none_when_tail_small(self):
        rep = compute_report(star(20))
        assert rep.alpha_hat is None

    def test_empty_graph(self):
        rep = compute_report(graph(5, []), with_paths=True)
        assert rep.gini == 0.0
        assert rep.diameter is None
        assert rep.avg_clustering == 0.0

    def test_paths_skipped_by_default(self):
        rep = compute_report(chain3())
        assert rep.diameter is None and rep.avg_path_length is None

    def test_rank_curve_sorted(self):
        rep = compute_report(star(6))
        hist = rep.degree_histogram
        degrees = np.repeat(list(hist), list(hist.values()))
        assert sorted(degrees.tolist(), reverse=True) == [5, 0, 0, 0, 0, 0]

    def test_keeps_the_graph_vector_and_derives_the_histogram(self):
        g = star(6)
        rep = compute_report(g)
        assert rep.indegree is g.degrees_snapshot()[0]
        assert not rep.indegree.flags.writeable
        assert rep.degree_histogram == {0: 5, 5: 1} == degree_distribution(rep.indegree)[0]
        assert rep.degree_histogram is rep.degree_histogram      # built once
        assert "degree_histogram" not in {f.name for f in dataclasses.fields(rep)}
