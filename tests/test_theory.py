import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netforge import (CrossingReport, brute_force_oracle, exact_expected_indegree,
                      matthew_approx_curve, merit_approx_curve, recursion_table,
                      single_crossing_index)
from netforge.theory import CURVE_FUNCS


class TestRecursionTable:
    def test_n3_m2(self):
        c = recursion_table(3, 2)
        assert c.name == "recursion"
        assert np.allclose(c.values, [2.5, 1.5, 1.0])

    def test_m1_all_ones(self):
        for n in (2, 7, 120):
            assert np.all(recursion_table(n, 1).values == 1.0)

    def test_n4_value(self):
        assert recursion_table(4, 2).values[1] == pytest.approx(11 / 6, rel=1e-12)

    def test_boundary_and_monotonicity(self):
        t = np.array([recursion_table(30, m).values for m in range(1, 5)])
        assert np.all(t[:, -1] == 1.0)            # P(m, N) = 1
        assert np.all(t[0] == 1.0)                # P(1, i) = 1
        assert np.all(np.diff(t, axis=1) <= 1e-12)   # non-increasing in rank
        assert np.all(np.diff(t, axis=0) >= -1e-12)  # non-decreasing in m

    def test_validation(self):
        with pytest.raises(ValueError):
            recursion_table(1, 1)
        with pytest.raises(ValueError):
            recursion_table(5, 5)

    def test_memory_is_a_few_rows(self):
        # one previous row and its temporaries, not an m_cap x n table
        n = 10**5
        tracemalloc.start()
        try:
            recursion_table(n, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8


class TestExactCurve:
    def test_n4_m2(self):
        c = exact_expected_indegree(4, 2)
        assert c.values[1] == pytest.approx(11 / 6, rel=1e-12)

    def test_lowest_rank_is_one(self):
        for n, m in [(2, 1), (9, 4), (500, 3)]:
            assert exact_expected_indegree(n, m).values[-1] == pytest.approx(1.0)

    def test_top_rank_formula_deviates_from_process(self):
        # documented boundary artifact: formula 2.5 vs exact process 2.0
        assert exact_expected_indegree(3, 2).values[0] == pytest.approx(2.5)
        assert brute_force_oracle(3, 2).values[0] == pytest.approx(2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_agrees_with_recursion(self, n, data):
        m = data.draw(st.integers(1, min(n - 1, 6)))
        rec = recursion_table(n, m).values
        exact = exact_expected_indegree(n, m).values
        assert np.max(np.abs(rec - exact) / exact) < 1e-10


def _exact_loop(n, m_cap):
    """The e_k recurrence one rank at a time: the reference for the cumsum form."""
    values = np.empty(n)
    values[n - 1] = 1.0
    e = np.zeros(m_cap)
    e[0] = 1.0
    for i in range(n - 1, 0, -1):
        e[1:] += (1.0 / i) * e[:-1]
        values[i - 1] = e.sum()
    return values


@pytest.mark.parametrize("n,m", [(n, m) for n in (2, 3, 10, 100, 1000)
                                 for m in (1, 2, 3, 5, 7, 8, 12) if m < n])
def test_exact_matches_rank_loop(n, m):
    loop, fast = _exact_loop(n, m), exact_expected_indegree(n, m).values
    if m < 8:       # same additions in the same order
        assert np.array_equal(fast, loop)
    else:           # numpy sums 8 or more terms as partial sums
        assert np.max(np.abs(fast - loop) / loop) <= m * np.finfo(float).eps


class TestOracle:
    def test_n3_m2(self):
        assert np.allclose(brute_force_oracle(3, 2).values, [2.0, 1.5, 1.0])

    def test_n4_m2_target2(self):
        assert brute_force_oracle(4, 2).values[1] == pytest.approx(11 / 6, rel=1e-12)

    def test_n2_forced(self):
        assert np.allclose(brute_force_oracle(2, 1).values, [1.0, 1.0])

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_oracle(9, 2)

    def test_agrees_with_formula_for_lower_ranks(self):
        for n in (4, 6):
            for m in range(1, n):
                oracle = brute_force_oracle(n, m).values
                exact = exact_expected_indegree(n, m).values
                rel = np.abs(oracle[1:] - exact[1:]) / exact[1:]
                assert np.max(rel) < 1e-10


class TestApproxCurves:
    def test_merit_m1_constant(self):
        assert np.all(merit_approx_curve(50, 1).values == 1.0)

    def test_merit_boundary_and_head(self):
        c = merit_approx_curve(10000, 5).values
        assert c[-1] == pytest.approx(1.0)
        assert c[0] == pytest.approx(482.69, abs=0.05)
        assert np.all(np.diff(c) <= 1e-12)

    def test_matthew_telescoping_sum(self):
        n, m = 10000, 5
        c = matthew_approx_curve(n, m).values
        assert c.sum() == pytest.approx(m * n, rel=1e-6)
        assert np.all(np.diff(c) < 0)

    def test_matthew_head_limit(self):
        c = matthew_approx_curve(10 ** 6, 5).values
        assert c[0] == pytest.approx(11.0, abs=0.01)


class TestSingleCrossing:
    def test_approx_curves_cross_once(self):
        n, m = 10000, 5
        report = single_crossing_index(merit_approx_curve(n, m).values,
                                       matthew_approx_curve(n, m).values)
        assert report.sign_changes == 1
        assert report.crossing_rank is not None

    def test_equal_curves_no_crossing(self):
        report = single_crossing_index([1.0, 2.0], [1.0, 2.0])
        assert report.sign_changes == 0 and report.crossing_rank is None

    def test_tie_boundary(self):
        report = single_crossing_index([3, 2, 1], [1, 2, 3])
        assert report.sign_changes == 1
        assert report.crossing_rank == 2

    def test_multiple_crossings_reported(self):
        report = single_crossing_index([1, -1, 1], [0, 0, 0])
        assert report.sign_changes == 2

    @settings(max_examples=300, deadline=None)
    @example(pairs=[])
    @example(pairs=[(1, 0)])
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=30))
    def test_matches_rank_loop(self, pairs):
        a = [float(x) for x, _ in pairs]        # small integers: many ties
        b = [float(y) for _, y in pairs]
        for curve_b in (b, a):                  # (a, a) is all ties
            assert single_crossing_index(a, curve_b) == _crossing_loop(a, curve_b)


def _crossing_loop(curve_a, curve_b):
    """The per-rank sign scan: the reference for the vectorized crossing count."""
    changes, crossing, last_sign, last_rank = 0, None, 0, 0
    for rank, s in enumerate(np.sign(np.subtract(curve_a, curve_b)).astype(int), start=1):
        if s == 0:
            continue
        if last_sign != 0 and s != last_sign:
            changes += 1
            if crossing is None:
                crossing = last_rank + 1
        last_sign = s
        last_rank = rank
    return CrossingReport(crossing_rank=crossing, sign_changes=changes)


def test_curve_csv_format():
    csv = exact_expected_indegree(3, 2).to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("# curve: exact")
    assert lines[1] == "rank,expected_indegree"
    assert lines[2].startswith("1,")
    assert len(lines) == 5


@pytest.mark.parametrize("n", [3.5, True, 2 ** 62])
@pytest.mark.parametrize("formula", sorted(CURVE_FUNCS))
def test_node_count_must_be_an_integer_in_range(formula, n):
    with pytest.raises(ValueError, match=r"^n must be an integer in \[2, ") as exc:
        CURVE_FUNCS[formula](n, 2)
    if formula != "oracle":         # the O(n) curves share the node-id bound
        assert "2**62)" in str(exc.value)
