import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge import (DirectedGraph, FormationConfig, InsufficientDataError,
                      MetricsReport, clustering, compute_report,
                      degree_distribution, fit_power_law, generate, gini,
                      matched_er_density, path_stats, rank_curve)


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

    def test_chunking_agrees(self):
        g = generate(FormationConfig("matthew", n=300, m_cap=2, seed=11))
        assert path_stats(g, chunk=7) == path_stats(g, chunk=1024)


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

    def test_er_close_to_density(self):
        n = 800
        density = matched_er_density(n, 5)
        vals = []
        for seed in range(5):
            g = generate(FormationConfig("er_directed", n=n, density=density,
                                         seed=seed))
            vals.append(clustering(g)[1])
        assert np.mean(vals) == pytest.approx(density, rel=0.4)


class TestRankCurve:
    def test_sorted_descending(self):
        assert rank_curve(indeg(star(4))) == [(1, 3), (2, 0), (3, 0), (4, 0)]

    def test_ties_broken_by_id(self):
        assert rank_curve([1, 2, 1]) == [(1, 2), (2, 1), (3, 1)]


class TestReport:
    def test_round_trip(self):
        g = generate(FormationConfig("matthew", n=300, m_cap=3, seed=2))
        rep = compute_report(g, with_paths=True)
        again = MetricsReport.from_dict(rep.to_dict())
        assert again.to_dict() == rep.to_dict()

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
