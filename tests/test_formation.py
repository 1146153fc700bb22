import numpy as np
import pytest

from netforge import (ConfigError, FormationConfig, brute_force_oracle,
                      generate, generate_er_directed, generate_hybrid,
                      generate_matthew, generate_meritocracy,
                      merit_followee_matrix)
from netforge.formation import _uniforms


def cfg(**kw):
    return FormationConfig(**kw)


def followees(g):
    """Per-node target lists, node order, creation order within each."""
    return [g.indices[a:b].tolist() for a, b in zip(g.indptr[:-1], g.indptr[1:])]


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
        ("er_directed", "density", float("inf"))])
    def test_mistyped_fields_rejected(self, model, key, value):
        base = {"model": model, "n": 10, "m_cap": 2, "p": 0.5, "density": 0.1}
        with pytest.raises(ConfigError, match=key):
            cfg(**{**base, key: value})

    def test_numpy_scalars_accepted(self):
        c = cfg(model="hybrid", n=np.int64(10), m_cap=np.int32(2), p=np.float64(0.5))
        assert generate(c).edge_count == 20


class TestMeritocracy:
    def test_n2_forced(self):
        g = generate_meritocracy(cfg(model="meritocracy", n=2, m_cap=1, seed=0))
        assert sorted(g.edges()) == [(1, 2), (2, 1)]

    def test_n3_top_node_always_full(self):
        # both other nodes terminate by linking node 1 (exhaustive over orders)
        for seed in range(50):
            g = generate_meritocracy(cfg(model="meritocracy", n=3, m_cap=2, seed=seed))
            assert g.in_degree[0] == 2

    @pytest.mark.parametrize("method", ["records", "event_loop"])
    def test_equilibrium_conditions(self, method):
        # the event loop is generate_hybrid at p = 1
        g = (generate_meritocracy(cfg(model="meritocracy", n=40, m_cap=3, seed=9))
             if method == "records" else
             generate_hybrid(cfg(model="hybrid", n=40, m_cap=3, p=1.0, seed=9)))
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

    def test_event_loop_matches_records_distribution(self):
        # the event loop is generate_hybrid at p = 1
        n, m, runs = 8, 3, 4000
        acc = {}
        for method in ("records", "event_loop"):
            rng = np.random.default_rng(11)
            total = np.zeros(n)
            for r in range(runs):
                g = (generate_meritocracy(cfg(model="meritocracy", n=n, m_cap=m, seed=0), rng)
                     if method == "records" else
                     generate_hybrid(cfg(model="hybrid", n=n, m_cap=m, p=1.0, seed=0), rng))
                total += g.in_degree
            acc[method] = total / runs
        # both estimate the same expected in-degree curve
        assert np.allclose(acc["records"], acc["event_loop"], rtol=0.08, atol=0.1)


class TestMatthew:
    def test_n2_forced(self):
        g = generate_matthew(cfg(model="matthew", n=2, m_cap=1, seed=5))
        assert sorted(g.edges()) == [(1, 2), (2, 1)]

    @pytest.mark.parametrize("n,m", [(10, 3), (57, 5), (200, 1)])
    def test_exact_out_degrees(self, n, m):
        g = generate_matthew(cfg(model="matthew", n=n, m_cap=m, seed=1))
        g.check_invariants()
        assert g.edge_count == m * n
        assert all(len(t) == m for t in followees(g))

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
        # p = 0 is the Matthew model exactly: same seed, same graph
        for n, m in [(2, 1), (7, 3), (50, 5), (300, 2)]:
            for seed in range(4):
                base = dict(n=n, m_cap=m, seed=seed)
                h = generate_hybrid(cfg(model="hybrid", p=0.0, **base))
                assert (h.to_edge_list()
                        == generate_matthew(cfg(model="matthew", **base)).to_edge_list())

    def test_endpoint_p1_matches_meritocracy(self):
        n, m, runs = 30, 3, 2000
        rng_h = np.random.default_rng(4)
        rng_r = np.random.default_rng(5)
        h = np.zeros(n)
        mr = np.zeros(n)
        base = dict(n=n, m_cap=m, seed=0)
        for _ in range(runs):
            h += generate_hybrid(cfg(model="hybrid", p=1.0, **base), rng_h).in_degree
            mr += generate_meritocracy(cfg(model="meritocracy", **base), rng_r).in_degree
        assert np.allclose(h / runs, mr / runs, rtol=0.1, atol=0.15)

    def test_all_invariants_mid_p(self):
        g = generate_hybrid(cfg(model="hybrid", n=100, m_cap=4, p=0.6, seed=7))
        g.check_invariants()
        assert all(len(t) <= 4 for t in followees(g))
        assert g.edge_count == 400   # p < 1 terminates at full out-degree


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
    draws = [u() for _ in range(2**15 + 5)]
    assert all(type(x) is float for x in draws)
    assert draws == ref.random(2 << 15)[:2**15 + 5].tolist()
    # blocks are whole: the rng has advanced by exactly two 2**15 draws
    two_blocks = np.random.default_rng(3)
    two_blocks.random(1 << 15)
    two_blocks.random(1 << 15)
    assert rng.bit_generator.state == two_blocks.bit_generator.state
