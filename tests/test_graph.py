import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netforge import (DirectedGraph, EdgeListParseError, FormationConfig, GraphError,
                      generate)
from netforge.graph import _check_edges, check_range


def graph(n, edges):
    return DirectedGraph.from_edge_list("".join(f"{i},{j}\n" for i, j in edges), n=n)


def test_new_empty():
    g = graph(2, [])
    assert g.edge_count == 0
    assert g.in_degree.tolist() == [0, 0]
    assert graph(10000, []).edge_count == 0


@pytest.mark.parametrize("n", [1, 0, -3])
def test_too_small_rejected(n):
    with pytest.raises(GraphError):
        graph(n, [])
    with pytest.raises(GraphError):
        DirectedGraph._from_out_adj(n, [], [])


class _FieldError(ValueError):
    pass


@pytest.mark.parametrize("value, lo, hi, bound", [
    (2 ** 62, 2, 2 ** 62, "[2, 2**62)"), (1, 2, 2 ** 62, "[2, 2**62)"),
    (-1, 0, None, "[0, inf)"), (True, 0, None, "[0, inf)"), (5, 1, 5, "[1, 5)"),
    (np.float64(3.0), 1, 5, "[1, 5)"), ("3", 1, 5, "[1, 5)"), (None, 1, None, "[1, inf)")])
def test_check_range_rejects(value, lo, hi, bound):
    with pytest.raises(_FieldError) as exc:
        check_range(_FieldError, "count", value, lo, hi)
    assert str(exc.value) == f"count must be an integer in {bound}, got {value!r}"


@pytest.mark.parametrize("value, lo, hi", [
    (2 ** 62 - 1, 2, 2 ** 62), (np.int16(4), 1, 2 ** 62), (np.uint64(2 ** 63), 0, None),
    (10 ** 400, 0, None), (4, 1, 5)])
def test_check_range_accepts(value, lo, hi):
    check_range(_FieldError, "count", value, lo, hi)


def test_single_edge_basic():
    g = graph(3, [(1, 2)])
    assert g.edge_count == 1
    assert g.in_degree[1] == 1
    assert list(g.edges()) == [(1, 2)]
    assert g.indptr.tolist() == [0, 1, 1, 1] and g.indices.tolist() == [2]


def test_duplicate_and_self_loop_rejected():
    with pytest.raises(GraphError) as exc:
        DirectedGraph._from_out_adj(3, [1, 2, 1], [2, 1, 2])
    assert exc.value.edge == 2 and "duplicate" in str(exc.value)
    with pytest.raises(GraphError) as exc:
        DirectedGraph._from_out_adj(3, [1, 3], [2, 3])
    assert exc.value.edge == 1 and "self-loop" in str(exc.value)
    with pytest.raises(GraphError):
        graph(3, [(1, 2), (1, 2)])
    with pytest.raises(GraphError):
        graph(3, [(3, 3)])


def test_out_of_range_rejected():
    for src, dst in [([1], [4]), ([0], [1]), ([1, 4], [2, 1])]:
        with pytest.raises(GraphError) as exc:
            DirectedGraph._from_out_adj(3, src, dst)
        assert exc.value.edge == len(src) - 1 and "outside" in str(exc.value)
    with pytest.raises(GraphError):
        graph(3, [(1, 4)])


def test_degrees_snapshot():
    g = graph(2, [(1, 2), (2, 1)])
    ins, outs = g.degrees_snapshot()
    assert ins.tolist() == [1, 1] and outs.tolist() == [1, 1]

    star = graph(5, [(k, 1) for k in range(2, 6)])
    ins, outs = star.degrees_snapshot()
    assert ins[0] == 4 and outs.sum() == ins.sum() == star.edge_count

    empty = graph(4, [])
    ins, outs = empty.degrees_snapshot()
    assert not ins.any() and not outs.any()


def test_arrays_read_only():
    g = graph(3, [(2, 1), (1, 3)])
    for a in (g.indptr, g.indices, g.in_degree):
        with pytest.raises(ValueError):
            a[0] = 7


def test_edge_list_round_trip():
    g = graph(2, [(1, 2), (2, 1)])
    text = g.to_edge_list()
    assert text == "1,2\n2,1\n"
    g2 = DirectedGraph.from_edge_list(text, n=2)
    assert g2.to_edge_list() == text


def test_insertion_order_kept_within_source():
    g = DirectedGraph._from_out_adj(4, [3, 1, 3, 1], [4, 3, 1, 2])
    assert list(g.edges()) == [(1, 3), (1, 2), (3, 4), (3, 1)]
    g.check_invariants()


def test_check_invariants_detects_corruption():
    g = graph(3, [(1, 2), (2, 3)])
    g.in_degree = np.array([0, 1, 2])
    with pytest.raises(GraphError, match="in_degree"):
        g.check_invariants()
    g = graph(3, [(1, 2), (2, 3)])
    g.indices = np.array([2, 2])
    with pytest.raises(GraphError, match="self-loop"):
        g.check_invariants()
    g.indptr = np.array([0, 2, 1, 2])
    with pytest.raises(GraphError, match="indptr"):
        g.check_invariants()


def test_parse_errors_carry_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        DirectedGraph.from_edge_list("1,2\n5,5\n", n=5)
    assert exc.value.line_no == 2

    with pytest.raises(EdgeListParseError):
        DirectedGraph.from_edge_list("1,2\n1,2\n", n=3)   # duplicate
    with pytest.raises(EdgeListParseError):
        DirectedGraph.from_edge_list("1;2\n", n=3)        # malformed
    with pytest.raises(EdgeListParseError):
        DirectedGraph.from_edge_list("1,9\n", n=3)        # out of range


def test_empty_file_gives_empty_graph():
    g = DirectedGraph.from_edge_list("", n=3)
    assert g.n == 3 and g.edge_count == 0


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_empty_input_needs_n(text):
    with pytest.raises(GraphError, match="no edges"):
        DirectedGraph.from_edge_list(text)
    g = DirectedGraph.from_edge_list(text, n=5)
    assert g.n == 5 and g.edge_count == 0 and g.in_degree.tolist() == [0] * 5


def test_infer_n_from_max_id():
    g = DirectedGraph.from_edge_list("1,4\n")
    assert g.n == 4


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda t: t[0] != t[1]),
        max_size=30))
    return graph(n, sorted(pairs))


def assert_same_graph(g2, g):
    assert g2.n == g.n
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)
    assert np.array_equal(g2.in_degree, g.in_degree)
    g2.check_invariants()


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_round_trip_is_identity(g):
    assert_same_graph(DirectedGraph.from_edge_list(g.to_edge_list(), n=g.n), g)


@pytest.mark.parametrize("model, extra", [
    ("meritocracy", {}), ("matthew", {}), ("hybrid", {"p": 0.4}),
    ("er_directed", {"density": 0.003})])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "no final newline"])
def test_generated_round_trip(model, extra, ending):
    # four-digit ids: nearly every line is "digits,digits" and read in bulk
    g = generate(FormationConfig(model=model, n=2000, m_cap=4, seed=9, **extra))
    text = g.to_edge_list()
    if ending == "\r\n":
        text = text.replace("\n", "\r\n")
    elif ending == "no final newline":
        text = text[:-1]
    assert_same_graph(DirectedGraph.from_edge_list(text, n=g.n), g)


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_recount_matches_counters(g):
    g.check_invariants()
    ins, outs = g.degrees_snapshot()
    assert ins.sum() == outs.sum() == g.edge_count


def reference_parse(text, n=None):
    """Line-order scan with sets: (n, edges) of the graph from_edge_list must
    build, or (exception class, line_no) of the error it must raise."""
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split(",")
        if not raw.strip():
            continue
        try:
            i, j = map(int, parts) if len(parts) == 2 else (0, 0)
        except ValueError:
            i = j = 0
        if min(i, j) < 1 or max(i, j) >= 2 ** 62:
            return EdgeListParseError, line_no
        pairs.append((line_no, i, j))
    if n is None and not pairs:
        return GraphError, None             # no id to infer n from
    n = max([2] + [max(i, j) for _, i, j in pairs]) if n is None else n
    if n < 2:
        return GraphError, None
    seen = set()
    for line_no, i, j in pairs:
        if i > n or j > n or i == j or (i, j) in seen:
            return EdgeListParseError, line_no
        seen.add((i, j))
    return n, [(i, j) for _, i, j in sorted(pairs, key=lambda t: t[1])]


@pytest.mark.parametrize("brk", list("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_every_splitlines_boundary_ends_a_line(brk):
    g = DirectedGraph.from_edge_list(f"1,2{brk}3,1\n", n=3)
    assert list(g.edges()) == [(1, 2), (3, 1)]
    with pytest.raises(EdgeListParseError) as exc:
        DirectedGraph.from_edge_list(f"1,2{brk}{brk}2,x\n3,1")
    assert exc.value.line_no == 3


# ids of 18, 19 and 20 digits around 2**62 = 4611686018427387904
big_ids = ["999999999999999999", "000000000000000007", "4611686018427387903",
           "4611686018427387904", "9999999999999999999", "18446744073709551617"]
edge_lines = st.one_of(
    st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(lambda t: f"{t[0]},{t[1]}"),
    st.tuples(st.sampled_from(big_ids), st.integers(1, 7)).map(
        lambda t: f"{t[0]},{t[1]}" if t[1] % 2 else f"{t[1]},{t[0]}"),
    st.sampled_from(["", "  ", " 2 , 3 ", "1;2", "1,2,3", "a,1", "3,", "+4,1",
                     "0,1", "00,3", "007,2", "1,2\r", "\x0c", "\u2028", "3\u20281,2",
                     "\u0661,2", "1_0,2", "4,1\x85", "2,1\r3,1"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_lines, max_size=12), st.one_of(st.none(), st.integers(0, 8)),
       st.booleans())
# n inferred near 2**62: the duplicate check must not overflow int64
@example(["\u0661,2", "4,4611686018427387903", "1,1"], None, False)
def test_from_edge_list_matches_reference(lines, n, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    expected = reference_parse(text, n)
    # a valid 18-digit id with n left out asks for a graph of 10**17 nodes
    assume(not isinstance(expected[0], int) or expected[0] < 100)
    try:
        g = DirectedGraph.from_edge_list(text, n=n)
    except GraphError as exc:
        assert (type(exc), getattr(exc, "line_no", None)) == expected
        return
    assert (g.n, list(g.edges())) == expected
    g.check_invariants()


def stable_check_edges(n, src, dst):
    """_check_edges as it was before it sorted only when a key repeats: one
    stable argsort of every key, kept as the reference of the error it raises."""
    outside = (src < 1) | (src > n) | (dst < 1) | (dst > n)
    s, d = np.clip(src, 0, n + 1), np.clip(dst, 0, n + 1)
    repeat = np.zeros(len(s), dtype=bool)
    if (n + 1) * (n + 3) < 2 ** 63:
        key = s * (n + 2) + d
        order = np.argsort(key, kind="stable")
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    else:
        order = np.lexsort((d, s))
        repeat[order[1:]] = (s[order[1:]] == s[order[:-1]]) & (d[order[1:]] == d[order[:-1]])
    bad = np.flatnonzero(outside | (src == dst) | repeat)
    if not len(bad):
        return
    k = int(bad[0])
    i, j = int(src[k]), int(dst[k])
    if outside[k]:
        message = f"node id {i if not 1 <= i <= n else j} outside [1, {n}]"
    elif i == j:
        message = f"self-loop ({i},{j}) rejected"
    else:
        message = f"duplicate edge ({i},{j}) rejected"
    raise GraphError(message, edge=k)


def check_outcome(check, n, src, dst):
    """(message, edge) of the GraphError check raises, or None."""
    try:
        check(n, src, dst)
    except GraphError as exc:
        return str(exc), exc.edge
    return None


# n from 2 up to just below 2**62, where (n + 1) * (n + 3) overflows int64 and
# the check takes its lexsort branch; ids around 1 and n, and just outside
big = 2 ** 62 - 1
edge_checks = st.sampled_from([2, 3, 5, 40, 3 * 10 ** 9, big]).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.one_of(st.integers(-1, 6), st.sampled_from([n - 1, n, n + 1]))] * 2),
             max_size=40)))


@settings(max_examples=400, deadline=None)
@given(edge_checks)
@example((5, [(1, 2), (3, 4), (1, 2), (2, 2)]))         # a repeat before a self-loop
@example((5, [(4, 1), (2, 3), (4, 1), (2, 3), (4, 1)]))  # several repeats
@example((big, [(big, 1), (1, big), (big, 1)]))         # lexsort branch repeat
@example((big, [(1, 2), (2, 1)]))                       # lexsort branch, no error
def test_check_edges_matches_stable_reference(case):
    n, edges = case
    src, dst = (np.array([e[k] for e in edges], dtype=np.int64) for k in (0, 1))
    expected = check_outcome(stable_check_edges, n, src, dst)
    assert check_outcome(_check_edges, n, src, dst) == expected
    perm = np.random.default_rng(len(edges)).permutation(len(edges))
    assert (check_outcome(_check_edges, n, src[perm], dst[perm])
            == check_outcome(stable_check_edges, n, src[perm], dst[perm]))


@pytest.mark.parametrize("model, extra", [
    ("meritocracy", {}), ("matthew", {}), ("hybrid", {"p": 0.4}),
    ("er_directed", {"density": 0.003})])
def test_check_edges_names_first_repeat_in_large_lists(model, extra):
    # a generated edge list in shuffled order, then with one edge repeated
    # late: the error names the later copy, as the stable reference does
    g = generate(FormationConfig(model=model, n=2000, m_cap=4, seed=9, **extra))
    rng = np.random.default_rng(1)
    perm = rng.permutation(g.edge_count)
    src, dst = g._sources()[perm], g.indices[perm]
    assert _check_edges(g.n, src, dst) is None
    at = int(rng.integers(1, g.edge_count))
    src, dst = np.insert(src, at, src[at // 2]), np.insert(dst, at, dst[at // 2])
    expected = check_outcome(stable_check_edges, g.n, src, dst)
    assert expected == (f"duplicate edge ({src[at]},{dst[at]}) rejected", at)
    assert check_outcome(_check_edges, g.n, src, dst) == expected
    # out of node order, the constructor sorts by source and keeps the
    # given order within each source
    src, dst = g._sources()[perm], g.indices[perm]
    rebuilt = DirectedGraph._from_out_adj(g.n, src, dst)
    assert np.array_equal(rebuilt.indptr, g.indptr)
    assert np.array_equal(rebuilt.indices, dst[np.argsort(src, kind="stable")])
    rebuilt.check_invariants()
