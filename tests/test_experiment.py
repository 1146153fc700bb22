import dataclasses
import json
import math
import os
import stat
import struct
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netforge import (EmpiricalParseError, ExperimentSpec, SpecError,
                      degree_distribution, empirical_ingest, export_results,
                      export_sweep, gini, hybrid_sweep, run_batch,
                      small_world_scaling)
from netforge import experiment, metrics
from netforge.lines import SLICE, rows
from test_lines import from_bits, nearest_tie, neighbours


def spec(**kw):
    base = dict(model="matthew", n=60, m_cap=3, runs=3, seed_base=5)
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_from_dict_round_trip(self):
        s = spec()
        assert ExperimentSpec.from_dict(s.to_dict()) == s

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            ExperimentSpec.from_dict({"model": "matthew", "n": 10, "bogus": 1})

    @pytest.mark.parametrize("doc", [{}, {"model": "matthew"}, {"n": 10}])
    def test_missing_key_rejected(self, doc):
        with pytest.raises(SpecError, match="missing spec keys"):
            ExperimentSpec.from_dict(doc)

    def test_bad_runs(self):
        with pytest.raises(SpecError):
            spec(runs=0)

    @pytest.mark.parametrize("key,value", [("runs", "3"), ("runs", 2.5), ("runs", True),
                                           ("seed_base", "a"), ("seed_base", 1.0),
                                           ("xmin", "10"), ("xmin", False), ("xmin", 0),
                                           ("full_metrics", "no"), ("emit_plots", "no"),
                                           ("emit_plots", 1), ("seed_base", -1)])
    def test_non_integer_fields_rejected(self, key, value):
        with pytest.raises(SpecError, match=key):
            spec(**{key: value})

    def test_bad_model_params(self):
        with pytest.raises(SpecError):
            spec(model="hybrid")            # p missing, no sweep
        with pytest.raises(SpecError):
            spec(model="er_directed")       # density missing
        with pytest.raises(SpecError):
            spec(model="nope")

    @pytest.mark.parametrize("kw", [dict(model="matthew", p="x", density=[1]),
                                    dict(model="meritocracy", p=float("nan")),
                                    dict(model="hybrid", p=0.5, density="y"),
                                    dict(model="er_directed", density=0.1, p=float("inf")),
                                    dict(model="hybrid", sweep=[0.5], density=True)])
    def test_p_and_density_checked_for_every_model(self, kw):
        with pytest.raises(SpecError, match="must be null or a finite number"):
            spec(**kw)

    def test_hybrid_sweep_spec_without_p(self):
        s = spec(model="hybrid", sweep=[0.0, 0.5, 1.0])
        assert s.p is None

    @pytest.mark.parametrize("sweep", [5, "0.5", [0.5, "1"], [True], [float("nan")]])
    def test_sweep_must_be_list_of_numbers(self, sweep):
        with pytest.raises(SpecError, match="sweep"):
            spec(model="hybrid", p=0.5, sweep=sweep)

    @pytest.mark.parametrize("doc", [[1], 3, None, "matthew"])
    def test_from_dict_requires_object(self, doc):
        with pytest.raises(SpecError, match="JSON object"):
            ExperimentSpec.from_dict(doc)

    def test_sweep_p_out_of_range(self):
        with pytest.raises(SpecError):
            spec(model="hybrid", sweep=[0.5, 1.5])

    @pytest.mark.parametrize("model,extra", [("matthew", {}), ("meritocracy", {}),
                                             ("er_directed", {"density": 0.1})])
    def test_sweep_requires_hybrid(self, model, extra):
        with pytest.raises(SpecError, match="sweep requires model 'hybrid'"):
            spec(model=model, sweep=[0.5], **extra)

    def test_seeds(self):
        s = spec()
        assert [s.config_for_run(r).seed for r in range(3)] == [5, 6, 7]

    def test_frozen_after_run(self):
        s = spec(runs=2, seed_base=3)
        rs = run_batch(s)
        for key, value in [("seed_base", 40), ("runs", 7), ("n", "x")]:
            with pytest.raises(AttributeError):
                setattr(s, key, value)
        assert rs.provenance["seeds"] == [3, 4]
        assert rs.provenance["spec"]["n"] == 60

    def test_numpy_values_export_like_python(self, tmp_path):
        plain = dict(model="hybrid", n=60, m_cap=3, runs=2, seed_base=1, xmin=4,
                     p=0.5, density=0.25)
        numpy = dict(plain, n=np.int64(60), m_cap=np.int32(3), runs=np.int64(2),
                     seed_base=np.int64(1), xmin=np.int16(4), p=np.float32(0.5),
                     density=np.float64(0.25))
        for name, kw in [("plain", plain), ("numpy", numpy)]:
            export_results(run_batch(ExperimentSpec(**kw)), str(tmp_path / name))
        assert ((tmp_path / "numpy" / "metrics.json").read_bytes()
                == (tmp_path / "plain" / "metrics.json").read_bytes())


class TestRunBatch:
    def test_shapes_and_aggregation(self):
        rs = run_batch(spec())
        assert len(rs.reports) == 3
        assert rs.mean_rank_curve.shape == (60,)
        assert rs.per_node_mean_indegree.shape == (60,)
        # both aggregations conserve total edge mass
        assert rs.mean_rank_curve.sum() == pytest.approx(180.0)
        assert rs.per_node_mean_indegree.sum() == pytest.approx(180.0)
        assert np.all(np.diff(rs.mean_rank_curve) <= 0)
        assert rs.provenance["seeds"] == [5, 6, 7]

    def test_deterministic(self):
        a = json.dumps(run_batch(spec()).to_dict(), sort_keys=True)
        b = json.dumps(run_batch(spec()).to_dict(), sort_keys=True)
        assert a == b

    def test_single_run_curves_match_report(self):
        rs = run_batch(spec(runs=1))
        hist = rs.reports[0].degree_histogram
        degrees = np.repeat(list(hist), list(hist.values()))
        assert rs.mean_rank_curve.tolist() == sorted(degrees.tolist(), reverse=True)

    def test_pooled_ccdf_matches_run_histograms(self):
        rs = run_batch(spec(runs=3))
        degrees = np.concatenate([np.repeat(list(r.degree_histogram),
                                            list(r.degree_histogram.values()))
                                  for r in rs.reports])
        assert len(degrees) == 3 * 60
        assert rs.pooled_ccdf == degree_distribution(degrees)[1]

    def test_indegrees_is_the_stored_matrix(self):
        rs = run_batch(spec())
        assert rs.indegrees.shape == (3, 60) and rs.indegrees.dtype == np.int64
        assert not rs.indegrees.flags.writeable
        for row, report in zip(rs.indegrees, rs.reports):
            assert dict(zip(*np.unique(row, return_counts=True))) == report.degree_histogram

    def test_indegrees_stacks_the_report_vectors(self):
        rs = run_batch(spec())
        assert [f.name for f in dataclasses.fields(rs)] == ["spec", "reports"]
        first, second = rs.indegrees, rs.indegrees
        assert first is not second and np.array_equal(first, second)
        assert np.array_equal(first, np.stack([r.indegree for r in rs.reports]))

    def test_scalar_stats(self):
        rs = run_batch(spec())
        assert rs.scalar_stats["gini"]["count"] == 3
        per_run = [r.gini for r in rs.reports]
        assert rs.scalar_stats["gini"]["mean"] == pytest.approx(np.mean(per_run))

    def test_full_metrics_adds_paths(self):
        rs = run_batch(spec(runs=1, full_metrics=True))
        assert rs.reports[0].diameter is not None


round_inputs = st.one_of(
    st.floats(),                                            # NaN, inf, subnormals, +-0
    st.integers(-2 ** 63, 2 ** 63 - 1).map(from_bits),
    st.builds(lambda k, s: neighbours(nearest_tie(k, -12), s),     # (k + 1/2) * 10**-12
              st.one_of(st.integers(-10 ** 13, 10 ** 13), st.integers(-2 ** 62, 2 ** 62)),
              st.integers(-2, 2)),
    st.builds(lambda k, r: k / r, st.integers(0, 10 ** 5), st.integers(1, 12)),  # batch means
    st.builds(lambda v, s, sign: sign * neighbours(v, s),
              st.sampled_from([2.0 ** 42 * 1e-12, 2.0 ** 52 * 1e-12, 0.5e-12]),
              st.integers(-3, 3), st.sampled_from([1.0, -1.0])),
    st.floats(2.0 ** 42 * 1e-12, 1e6),
)


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(round_inputs, max_size=30))
@example([0.5e-12, 1.5e-12, 2.5e-12, -0.5e-12, -1e-14, -0.0, 4.0 / 3.0, 2.0 ** 52 * 1e-12])
def test_round12_matches_round(values):
    # metrics.json's per-node means, by bit pattern: -0.0 and 0.0 differ
    x = np.array(values, dtype=np.float64)
    assert bits(experiment._round12(x)) == bits(round(v, 12) for v in values)



@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
       st.dictionaries(st.sampled_from(["provenance", "runs", "scalar_stats"]),
                       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3)))
@example([], {})
@example([-0.0, 5e-324, 1e308, 1 / 3], {"runs": [], "scalar_stats": [0.5]})
def test_metrics_json_matches_dumps(values, rest):
    d = {**rest, "per_node_mean_indegree": values}
    assert experiment._metrics_json(d) == json.dumps(
        d, allow_nan=False, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_json_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        experiment._metrics_json({"per_node_mean_indegree": [1.0, bad]})

class TestExports:
    def test_files_and_formats(self, tmp_path):
        rs = run_batch(spec(emit_plots=True))
        written = export_results(rs, str(tmp_path))
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["degree_ccdf.csv", "degree_ccdf.svg", "metrics.json",
                         "rank_curve.csv", "rank_curve.svg"]
        rank = (tmp_path / "rank_curve.csv").read_text().splitlines()
        assert rank[0] == "rank,mean_indegree"
        assert rank[1].startswith("1,")
        assert len(rank) == 61
        ccdf = (tmp_path / "degree_ccdf.csv").read_text().splitlines()
        assert ccdf[0] == "indegree,ccdf"
        meta = json.loads((tmp_path / "metrics.json").read_text())
        assert "created_at" not in json.dumps(meta)
        assert meta["provenance"]["spec"]["model"] == "matthew"

    def test_curves_rebuilt_from_run_histograms(self, tmp_path):
        # metrics.json keeps each run's histogram once; both exported curves
        # must follow from those histograms alone
        export_results(run_batch(spec(runs=3, emit_plots=True)), str(tmp_path))
        meta = json.loads((tmp_path / "metrics.json").read_text())
        assert set(meta) == {"provenance", "scalar_stats", "per_node_mean_indegree", "runs"}
        hists = [{int(d): c for d, c in run["degree_histogram"].items()}
                 for run in meta["runs"]]
        ranked = [sorted((d for d, c in h.items() for _ in range(c)), reverse=True)
                  for h in hists]
        rank = [sum(col) / len(col) for col in zip(*ranked)]
        pooled = sum(map(Counter, hists), Counter())
        total = sum(pooled.values())
        ccdf = [(d, sum(c for e, c in pooled.items() if e >= d) / total)
                for d in sorted(pooled)]
        assert (tmp_path / "rank_curve.csv").read_text() == "".join(
            ["rank,mean_indegree\n"] + [f"{i},{v:.12g}\n" for i, v in enumerate(rank, 1)])
        assert (tmp_path / "degree_ccdf.csv").read_text() == "".join(
            ["indegree,ccdf\n"] + [f"{d},{p:.12g}\n" for d, p in ccdf])

    def test_nan_never_written(self, tmp_path):
        rs = run_batch(spec())
        rs.reports[0].gini = float("nan")
        with pytest.raises(ValueError):
            export_results(rs, str(tmp_path))
        assert not (tmp_path / "metrics.json").exists()

    def test_byte_identical_reexport(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_results(run_batch(spec()), str(d1))
        export_results(run_batch(spec()), str(d2))
        for name in ("metrics.json", "rank_curve.csv", "degree_ccdf.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_export_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            experiment._atomic_write(str(tmp_path / "export.csv"), "a\n")
            with open(tmp_path / "plain.csv", "w") as fh:
                fh.write("a\n")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("export.csv", "plain.csv")}
        assert modes == {0o666 & ~umask}

    def test_replaced_export_keeps_its_mode(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_text("old\n")
        os.chmod(path, 0o640)
        experiment._atomic_write(str(path), "new\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["export.csv"]     # no temporary file left

    def test_csv_streams_in_slices(self, tmp_path):
        # about 20 MB of text, written with one slice's memory
        n = 10 ** 6
        ranks = np.arange(1, n + 1)
        values = np.random.default_rng(7).uniform(0.0, 1000.0, n)
        path = tmp_path / "curve.csv"
        tracemalloc.start()
        try:
            experiment._write_csv(str(path), "rank,value", ranks, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert path.read_bytes() == b"rank,value\n" + rows([ranks, values]).encode()

    @pytest.mark.parametrize("columns", [
        (np.arange(3 * SLICE), np.arange(3 * SLICE) - 2 * SLICE),     # negative past slice 1
        (np.arange(3 * SLICE), np.ones(3 * SLICE - 1)),
    ])
    def test_rejected_column_leaves_the_target(self, tmp_path, columns):
        with pytest.raises(ValueError) as expected:
            rows(columns)
        path = tmp_path / "export.csv"
        path.write_bytes(b"old\n")
        os.chmod(path, 0o640)
        with pytest.raises(ValueError, match=str(expected.value)):
            experiment._write_csv(str(path), "a,b", *columns)
        assert path.read_bytes() == b"old\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert os.listdir(tmp_path) == ["export.csv"]     # no temporary file left

    def test_export_rejects_a_negative_degree(self, tmp_path, monkeypatch):
        rs = run_batch(spec())
        monkeypatch.setattr(experiment.ResultSet, "pooled_ccdf",
                            property(lambda self: [(-1, 1.0), (0, 0.5)]))
        with pytest.raises(ValueError) as expected:
            rows([np.array([-1, 0])])
        path = tmp_path / "degree_ccdf.csv"
        path.write_bytes(b"old\n")
        os.chmod(path, 0o640)
        with pytest.raises(ValueError, match=str(expected.value)):
            export_results(rs, str(tmp_path))
        assert path.read_bytes() == b"old\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

    def test_export_sweep(self, tmp_path):
        s = spec(model="hybrid", n=40, m_cap=2, runs=2, sweep=[0.0, 1.0])
        rows = hybrid_sweep(s)
        written = export_sweep(rows, str(tmp_path))
        assert os.path.join(str(tmp_path), "sweep_gini.csv") in written
        lines = (tmp_path / "sweep_gini.csv").read_text().splitlines()
        assert lines[0].startswith("p,gini_expected_curve")
        assert len(lines) == 3
        assert (tmp_path / "rank_curve_p0.csv").exists()
        assert (tmp_path / "rank_curve_p1.csv").exists()

    def test_sweep_provenance_keeps_full_precision_p(self, tmp_path):
        ps = [1 / 3, 0.1234561, 0.9]        # the first two have 6-digit labels
        rows = hybrid_sweep(spec(model="hybrid", n=20, m_cap=2, runs=2, sweep=ps))
        export_sweep(rows, str(tmp_path))
        prov = json.loads((tmp_path / "provenance.json").read_text())
        assert [entry["spec"]["p"] for entry in prov] == ps
        assert [entry["seeds"] for entry in prov] == [[5, 6]] * 3
        assert prov == [row.result.provenance for row in rows]


class TestSweep:
    def test_rows_match_direct_batches(self):
        # each sweep report holds the in-degree facts of run_batch's report for
        # the same p and seed, bit for bit, and no structural statistics, even
        # where the batch computes path statistics
        s = spec(model="hybrid", n=300, m_cap=3, runs=2, xmin=3, sweep=[0.0, 0.5, 1.0],
                 full_metrics=True)
        rows = hybrid_sweep(s)
        assert [row.p for row in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            direct = run_batch(dataclasses.replace(s, p=row.p, sweep=None))
            assert row.result.spec == direct.spec
            assert np.array_equal(row.result.per_node_mean_indegree,
                                  direct.per_node_mean_indegree)
            assert row.gini_expected_curve == gini(direct.per_node_mean_indegree)
            for got, want in zip(row.result.reports, direct.reports, strict=True):
                assert got.indegree.dtype == want.indegree.dtype
                assert np.array_equal(got.indegree, want.indegree)
                assert (got.gini, got.alpha_hat, got.xmin_used) == (
                    want.gini, want.alpha_hat, want.xmin_used)
                assert got.alpha_hat is not None
                assert got.avg_clustering is None and want.avg_clustering is not None
                assert got.diameter is got.avg_path_length is None
                assert want.diameter is not None

    @pytest.mark.parametrize("name", ["clustering", "path_stats"])
    def test_computes_no_structural_statistics(self, monkeypatch, name):
        def structural(g):
            raise AssertionError(f"{name} ran")
        for module in (metrics, experiment):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, structural)
        s = spec(model="hybrid", n=40, m_cap=2, runs=2, full_metrics=True, sweep=[0.5, 1.0])
        assert len(hybrid_sweep(s)) == 2
        with pytest.raises(AssertionError, match=f"{name} ran"):
            run_batch(dataclasses.replace(s, p=0.5, sweep=None))

    def test_requires_p_values(self):
        with pytest.raises(SpecError):
            hybrid_sweep(spec(model="hybrid", p=0.5))

    def test_rows_compare_by_identity(self):
        # rows, result sets and reports hold arrays, so == is identity and
        # returns a bool instead of raising on an array's truth value
        s = spec(model="hybrid", n=30, m_cap=2, runs=2, sweep=[0.5])
        (a,), (b,) = hybrid_sweep(s), hybrid_sweep(s)
        for x, y in [(a, b), (a.result, b.result), (a.result.reports[0], b.result.reports[0])]:
            assert (x == y) is False and (x != y) is True
            assert (x == x) is True

    @pytest.mark.parametrize("runs", [1, 3])
    def test_run_gini_mean_and_sd(self, runs):
        rows = hybrid_sweep(spec(model="hybrid", n=40, m_cap=2, runs=runs, sweep=[0.3, 1.0]))
        for row in rows:
            ginis = [r.gini for r in row.result.reports]
            assert row.gini_run_mean == np.mean(ginis)
            assert row.gini_run_sd == (np.std(ginis, ddof=1) if runs > 1 else 0.0)

    @pytest.mark.parametrize("p", [None, 0.5])
    def test_run_batch_rejects_sweep_spec(self, p):
        with pytest.raises(SpecError, match="hybrid_sweep"):
            run_batch(spec(model="hybrid", p=p, sweep=[0.1, 0.9]))

    @pytest.mark.parametrize("sweep", [[0.1234561, 0.1234564], [0.5, 0.5],
                                       [0.25, 0.2500001, 1.0]])
    def test_colliding_labels_rejected(self, monkeypatch, sweep):
        def no_batch(spec):
            raise AssertionError("a batch ran before the labels were checked")
        monkeypatch.setattr(experiment, "generate", no_batch)
        with pytest.raises(SpecError, match="distinct labels"):
            hybrid_sweep(spec(model="hybrid", n=20, m_cap=2, p=0.5, sweep=sweep))


class TestSmallWorldScaling:
    def test_smoke(self):
        rows = small_world_scaling("matthew", [50, 100], m_cap=3, runs=2)
        assert [r.n for r in rows] == [50, 100]
        for r in rows:
            assert r.mean_apl <= r.mean_diameter
            assert r.log2_n == pytest.approx(np.log2(r.n))

    def test_no_reachable_pair_reports_none(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = small_world_scaling("er_directed", [10, 20], m_cap=1, runs=2,
                                       density=0.0)
        assert [(r.mean_diameter, r.mean_apl) for r in rows] == [(None, None)] * 2

    def test_requires_ascending(self):
        with pytest.raises(SpecError):
            small_world_scaling("matthew", [100, 50], m_cap=3, runs=1)

    @pytest.mark.parametrize("model,runs", [("hybrid", 1), ("matthew", 0)])
    def test_spec_errors(self, model, runs):
        # each size is an ExperimentSpec: hybrid needs a p, and runs must be >= 1
        with pytest.raises(SpecError):
            small_world_scaling(model, [20], m_cap=2, runs=runs)


class TestEmpiricalIngest:
    def test_plain_counts(self):
        res = empirical_ingest("10\n5\n5\n", target_mean=5.0)
        assert np.allclose(res.normalized_counts, [7.5, 3.75, 3.75])
        assert res.n == 3
        assert res.gini == pytest.approx(gini([10, 5, 5]))

    def test_csv_rows_and_header(self):
        text = "user_id,followers\nalice,10\nbob,5\ncarol,5\n"
        res = empirical_ingest(text, target_mean=5.0)
        assert np.allclose(res.normalized_counts, [7.5, 3.75, 3.75])

    def test_scaling_preserves_gini(self):
        a = empirical_ingest("3\n1\n8\n", target_mean=1.0)
        b = empirical_ingest("3\n1\n8\n", target_mean=100.0)
        assert a.gini == b.gini
        assert np.mean(b.normalized_counts) == pytest.approx(100.0)

    def test_results_compare_by_identity(self):
        a, b = (empirical_ingest("3\n1\n8\n", target_mean=1.0) for _ in range(2))
        assert (a == b) is False and (a == a) is True

    def test_blank_lines_skipped(self):
        res = empirical_ingest("\n2\n\n4\n", target_mean=3.0)
        assert res.n == 2

    def test_errors(self):
        with pytest.raises(EmpiricalParseError, match="line 2"):
            empirical_ingest("1\nabc\n", target_mean=1.0)
        with pytest.raises(EmpiricalParseError, match="negative"):
            empirical_ingest("1\n-2\n", target_mean=1.0)
        with pytest.raises(EmpiricalParseError):
            empirical_ingest("", target_mean=1.0)
        with pytest.raises(EmpiricalParseError, match="zero"):
            empirical_ingest("0\n0\n", target_mean=1.0)

    def test_negative_zero_count_is_zero(self):
        res = empirical_ingest("user,followers\n1,-0\n2,5\n3,+7\n4, -0.0 \n", target_mean=5.0)
        assert res.n == 4 and list(res.normalized_counts[2:]) == [0.0, 0.0]
        assert not np.signbit(res.normalized_counts).any()

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -5.0, 0, "5", True])
    def test_bad_target_mean_rejected(self, target):
        with pytest.raises(ValueError, match="target_mean"):
            empirical_ingest("10\n5\n", target_mean=target)

    @pytest.mark.parametrize("text, target", [
        ("1e308\n1e308\n", 5.0),          # the total overflows
        ("12\n5\n3\n", 1e308),            # the scale overflows
        ("1e307\n" * 10, 5.0),            # the Gini's rank-weighted sum overflows
        ("5e-324\n", 5.0),                # the scale of a subnormal total overflows
    ])
    def test_overflow_rejected(self, text, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="out of float range"):
                empirical_ingest(text, target_mean=target)

    def test_results_near_the_float_limit_pass(self):
        res = empirical_ingest("1e300\n1e300\n", target_mean=1e300)
        assert res.scale == 1.0 and res.gini == 0.0

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(EmpiricalParseError, match="non-finite") as exc:
            empirical_ingest(f"user,followers\na,3\nb,{token}\n", target_mean=1.0)
        assert exc.value.line_no == 3


@pytest.mark.parametrize("brk", list("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_every_splitlines_boundary_ends_a_line(brk):
    assert empirical_ingest(f"4{brk}6\n", target_mean=5.0).n == 2
    with pytest.raises(EmpiricalParseError) as exc:
        empirical_ingest(f"4{brk}{brk}x\n3", target_mean=5.0)
    assert exc.value.line_no == 3


def reference_ingest(text, target_mean):
    """Line-order scan: (normalized counts, gini, scale, n) that
    empirical_ingest must return, or (EmpiricalParseError, line_no) of the
    error it must raise."""
    counts = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            value = float(raw.split(",")[-1])
        except ValueError:
            if line_no == 1:
                continue                # header
            return EmpiricalParseError, line_no
        if not math.isfinite(value) or value < 0:
            return EmpiricalParseError, line_no
        counts.append(value)
    if not any(counts):
        return EmpiricalParseError, 1   # no counts, or all zero
    arr = np.sort(counts)[::-1]
    scale = np.float64(target_mean) * len(arr) / arr.sum()
    return arr * scale, gini(arr), float(scale), len(arr)


count_lines = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.integers(10 ** 15, 10 ** 18 - 1).map(str),     # 16-18 digits: float64 rounds them
    st.integers(10 ** 18, 10 ** 20).map(str),
    st.tuples(st.sampled_from(["u1", "a b", ""]), st.integers(0, 10 ** 18)).map(
        lambda t: f"{t[0]},{t[1]}"),
    st.sampled_from(["", "  ", " 3 ", "3.5", "1e3", "-0", "inf", "a,b,7", "7,", "-2",
                     "abc", "0", "x,0012", "1_000", "\u0663", "4\x0c5", "6\r7"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(count_lines, max_size=12), st.booleans(), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_ingest_matches_reference(lines, header, newline, final_newline):
    rows = (["user_id,followers"] if header else []) + lines
    text = newline.join(rows) + (newline if final_newline else "")
    expected = reference_ingest(text, 5.0)
    try:
        res = empirical_ingest(text, target_mean=5.0)
    except EmpiricalParseError as exc:
        assert (EmpiricalParseError, exc.line_no) == expected
        return
    assert expected[0] is not EmpiricalParseError, expected
    counts, g, scale, n = expected
    assert np.array_equal(res.normalized_counts, counts)
    assert not np.signbit(res.normalized_counts).any()      # a "-0" count is 0
    assert (res.gini, res.scale, res.n) == (g, scale, n)
