import contextlib
import io
import json
import math
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netforge import (DirectedGraph, exact_expected_indegree, experiment, formation,
                      metrics, theory)
from netforge.theory import CURVE_FUNCS
from netforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_stdout_edge_list(self, capsys):
        code, out, _ = run(capsys, "generate", "--model", "merit", "--n", "20",
                           "--m", "3", "--seed", "1")
        assert code == 0
        g = DirectedGraph.from_edge_list(out, n=20)
        assert g.edge_count > 0
        g.check_invariants()

    def test_to_file_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "generate", "--model", "matthew", "--n", "30",
                             "--m", "2", "--seed", "9", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_model_aliases(self, capsys):
        for model, extra in [("merit", []), ("meritocracy", []), ("matthew", []),
                             ("hybrid", ["--p", "0.5"]),
                             ("er", ["--density", "0.1"])]:
            code, _, _ = run(capsys, "generate", "--model", model, "--n", "10",
                             "--m", "2", "--seed", "0", *extra)
            assert code == 0, model

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run(capsys, "generate", "--model", "hybrid", "--n", "10",
                           "--m", "2", "--seed", "0")       # p missing
        assert code == 1 and "error" in err
        code, _, _ = run(capsys, "generate", "--model", "merit", "--n", "1",
                         "--m", "1", "--seed", "0")
        assert code == 1

    def test_negative_seed_exit_1(self, capsys):
        code, out, err = run(capsys, "generate", "--model", "matthew", "--n", "10",
                             "--m", "2", "--seed", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "seed" in err and "-1" in err

    @pytest.mark.parametrize("n", [2 ** 31 + 1, 3037000500, 3037000501])
    def test_er_node_count_bound_exit_1(self, capsys, monkeypatch, n):
        # ER pair indices n * (n - 1) stay below 2**62: a larger n is
        # rejected before any draw
        monkeypatch.setitem(formation._GENERATORS, "er_directed", _no_batch)
        code, out, err = run(capsys, "generate", "--model", "er", "--n", str(n), "--m", "1",
                             "--density", "1e-18", "--seed", "0")
        assert code == 1 and out == ""
        assert err == f"error: n must be an integer in [2, 2147483649), got {n}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "-1e-3", "error: hybrid requires p in [0,1], got -0.001\n"),
        ("--density", "-inf", "error: er_directed requires density in [0,1], got -inf\n")])
    def test_negative_float_forms_are_values(self, capsys, flag, value, message):
        # argparse takes only "-5"-like strings for numbers; exponent and inf
        # forms must reach the validation too, not read as an option flag
        model = "hybrid" if flag == "--p" else "er"
        code, out, err = run(capsys, "generate", "--model", model, "--n", "10",
                             "--m", "2", "--seed", "1", flag, value)
        assert code == 1 and out == "" and err == message

    @pytest.mark.parametrize("model, flag, value", [
        ("merit", "--p", "nan"), ("matthew", "--density", "inf"), ("hybrid", "--density", "nan")])
    def test_unused_non_finite_p_or_density_exit_1(self, capsys, model, flag, value):
        # the same check as a spec's: every model rejects a non-finite p or density
        code, out, err = run(capsys, "generate", "--model", model, "--n", "4", "--m", "2",
                             "--seed", "0", "--p", "0.5", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag[2:]} must be null or a finite number, got {value}\n"

    def test_hybrid_p_just_below_1_finishes(self, capsys, time_limit):
        # nodes at merit equilibrium still fill through their Matthew attempts
        with time_limit(1):
            code, out, err = run(capsys, "generate", "--model", "hybrid", "--n", "3",
                                 "--m", "2", "--seed", "0", "--p", "0.9999999999999999")
        assert code == 0 and err == ""
        g = DirectedGraph.from_edge_list(out, n=3)
        assert g.edge_count == 6
        g.check_invariants()

    def test_usage_error_exit_1(self, capsys):
        for argv in (["generate", "--model", "merit"], ["nonsense"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: netforge") and len(err.splitlines()) == 1, argv
        assert run(capsys, "generate", "--help")[0] == 0


class TestTheory:
    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "theory", "--formula", "exact", "--n", "3",
                           "--m", "2")
        assert code == 0
        assert out == exact_expected_indegree(3, 2).to_csv()

    def test_stdout_streams_the_out_file(self, tmp_path, capsys, monkeypatch):
        # stdout is written slice by slice, as --out is, never as one text
        def whole_text(columns):
            raise AssertionError("the curve was built as one string")
        monkeypatch.setattr(theory, "rows", whole_text)
        argv = ["theory", "--formula", "exact", "--n", "5", "--m", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "c.csv"))[0] == 0
        assert out.encode() == (tmp_path / "c.csv").read_bytes()

    def test_check_crossing_ok(self, capsys):
        code, _, err = run(capsys, "theory", "--formula", "merit-approx",
                           "--n", "1000", "--m", "5", "--check-crossing")
        assert code == 0
        assert "single crossing at rank" in err

    def test_oracle_size_guard_exit_1(self, capsys):
        code, _, _ = run(capsys, "theory", "--formula", "oracle", "--n", "20",
                         "--m", "2")
        assert code == 1

    def test_allocation_failure_exit_1(self, capsys, monkeypatch):
        def too_big(n, m):
            raise MemoryError(f"Unable to allocate 36.4 TiB for an array with shape ({m}, {n})")
        monkeypatch.setitem(CURVE_FUNCS, "recursion", too_big)
        code, out, err = run(capsys, "theory", "--formula", "recursion",
                             "--n", "1000000000000", "--m", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1

    def test_recursion_at_large_m_times_n(self, capsys):
        # M * n = 1.4e8: one row at a time, the recursion needs O(n) memory
        code, out, _ = run(capsys, "theory", "--formula", "recursion",
                           "--n", "200000", "--m", "700")
        assert code == 0
        values = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=2)[:, 1]
        exact = exact_expected_indegree(200000, 700).values
        # 1e-12 relative, plus up to half a unit in the 12th printed digit
        assert np.max(np.abs(values - exact) / exact) < 1e-12 + 5e-12


class TestMetrics:
    def test_round_trip(self, tmp_path, capsys):
        edges = tmp_path / "g.csv"
        edges.write_text("2,1\n3,1\n3,2\n")
        code, out, _ = run(capsys, "metrics", "--in", str(edges), "--full")
        assert code == 0
        rep = json.loads(out)
        assert rep["degree_histogram"] == {"0": 1, "1": 1, "2": 1}
        assert rep["alpha_hat"] is None

    def test_full_on_one_edge_to_a_far_id(self, tmp_path, capsys, time_limit):
        # a million nodes, one of them with an in-link: one BFS root, not a
        # million (the path statistics took 46 s when every node was a root)
        edges = tmp_path / "g.csv"
        edges.write_text("1,1000000\n")
        with time_limit(5):
            code, out, _ = run(capsys, "metrics", "--in", str(edges), "--full")
        assert code == 0
        rep = json.loads(out)
        assert rep["diameter"] == 1 and rep["avg_path_length"] == 1.0
        assert rep["degree_histogram"] == {"0": 999_999, "1": 1}

    def test_xmin_below_one_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "g.csv"
        edges.write_text("".join(f"{i},1\n" for i in range(2, 80)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "metrics", "--in", str(edges), "--xmin", "0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "xmin" in err

    def test_bad_xmin_exit_1_before_structural_work(self, tmp_path, capsys, monkeypatch):
        def no_structure(g):
            raise AssertionError("clustering or path statistics ran before xmin was checked")
        monkeypatch.setattr(metrics, "path_stats", no_structure)
        monkeypatch.setattr(metrics, "clustering", no_structure)
        edges = tmp_path / "g.csv"
        edges.write_text("".join(f"{i},1\n" for i in range(2, 80)))
        code, out, err = run(capsys, "metrics", "--in", str(edges), "--full", "--xmin", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: xmin must be") and len(err.splitlines()) == 1

    def test_empty_input_needs_n(self, tmp_path, capsys):
        edges = tmp_path / "empty.csv"
        edges.write_text("")
        code, out, err = run(capsys, "metrics", "--in", str(edges))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        code, out, _ = run(capsys, "metrics", "--in", str(edges), "--n", "5", "--full")
        assert code == 0
        rep = json.loads(out)
        assert rep["degree_histogram"] == {"0": 5} and rep["diameter"] is None

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        edges = tmp_path / "g.csv"
        edges.write_bytes(b"\xef\xbb\xbf2,1\n3,1\n")
        code, out, _ = run(capsys, "metrics", "--in", str(edges))
        assert code == 0
        assert json.loads(out)["degree_histogram"] == {"0": 2, "2": 1}

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "metrics", "--in", "/nonexistent/file.csv")
        assert code == 2 and "i/o error" in err

    def test_malformed_edge_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "bad.csv"
        edges.write_text("1,1\n")
        assert run(capsys, "metrics", "--in", str(edges))[0] == 1


def _no_batch(spec):
    raise AssertionError("a batch ran before the spec was checked")


class TestExperiment:
    def test_batch_and_sweep(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "matthew", "n": 40, "m_cap": 2,
                                    "runs": 2, "seed_base": 1}))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "experiment", "--spec", str(spec),
                           "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "rank_curve.csv").exists()
        assert (out_dir / "degree_ccdf.csv").exists()

        sweep_spec = tmp_path / "sweep.json"
        sweep_spec.write_text(json.dumps({"model": "hybrid", "n": 30, "m_cap": 2,
                                          "runs": 2, "sweep": [0.0, 1.0]}))
        sweep_dir = tmp_path / "sweep_out"
        code, _, _ = run(capsys, "sweep", "--spec", str(sweep_spec),
                         "--out", str(sweep_dir))
        assert code == 0
        assert (sweep_dir / "sweep_gini.csv").exists()

    def test_sweep_full_metrics_writes_the_same_sweep(self, tmp_path, capsys):
        # full_metrics belongs to batches: a sweep computes no path statistics
        # and its files differ only in the flag its provenance records
        written = {}
        for full in (False, True):
            spec = tmp_path / f"spec_{full}.json"
            spec.write_text(json.dumps({"model": "hybrid", "n": 30, "m_cap": 2, "runs": 2,
                                        "sweep": [0.0, 0.5, 1.0], "full_metrics": full}))
            out_dir = tmp_path / f"out_{full}"
            assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out_dir))[0] == 0
            written[full] = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        plain, full = written[False], written[True]
        assert sorted(plain) == sorted(full)
        assert {k: v for k, v in plain.items() if k != "provenance.json"} == {
            k: v for k, v in full.items() if k != "provenance.json"}
        provenance = json.loads(full["provenance.json"])
        for batch in provenance:
            assert batch["spec"]["full_metrics"] is True
            batch["spec"]["full_metrics"] = False
        assert provenance == json.loads(plain["provenance.json"])

    def test_sweep_p_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2,
                                    "runs": 1, "p": 0.5}))
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "sweep", "--spec", str(spec),
                         "--out", str(out_dir), "--p", "0.25,0.75")
        assert code == 0
        assert (out_dir / "rank_curve_p0.25.csv").exists()
        assert (out_dir / "rank_curve_p0.75.csv").exists()

    @pytest.mark.parametrize("spec_fields,p_arg", [
        ({"sweep": [0.1234561, 0.1234564]}, None),
        ({"p": 0.5}, "0.5,0.5"),
        ({"p": 0.5}, "0.25,0.7500001,0.75")])
    def test_colliding_sweep_labels_exit_1(self, tmp_path, capsys, monkeypatch,
                                           spec_fields, p_arg):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "runs": 1,
                                    **spec_fields}))
        out_dir = tmp_path / "out"
        argv = ["sweep", "--spec", str(spec), "--out", str(out_dir)]
        code, out, err = run(capsys, *argv, *(["--p", p_arg] if p_arg else []))
        assert code == 1 and out == ""
        assert err.startswith("error: sweep p values") and len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_negative_zero_sweep_repeats_zero_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "p": 0.5}))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out_dir),
                             "--p", "0,-0")
        assert code == 1 and out == ""
        assert err == "error: sweep p values must have distinct labels, got ['0', '0']\n"
        assert not out_dir.exists()

    def test_negative_zero_sweep_value_is_zero(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "p": 0.5}))
        out_dir = tmp_path / "out"
        assert run(capsys, "sweep", "--spec", str(spec), "--out", str(out_dir),
                   "--p", "-0")[0] == 0
        assert sorted(f.name for f in out_dir.iterdir()) == [
            "provenance.json", "rank_curve_p0.csv", "sweep_gini.csv"]
        assert (out_dir / "sweep_gini.csv").read_text().splitlines()[1].startswith("0,")
        (batch,) = json.loads((out_dir / "provenance.json").read_text())
        assert math.copysign(1, batch["spec"]["p"]) == 1

    def test_sweep_p_out_of_range_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "p": 0.5}))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out_dir),
                             "--p", "0.5,1.5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "1.5" in err and len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_empty_sweep_p_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "p": 0.5}))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--spec", str(spec), "--out", str(out_dir),
                             "--p", ",")
        assert code == 1 and out == ""
        assert err == "error: sweep must be null or a non-empty list of numbers, got []\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_sweep_on_non_hybrid_exit_1(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "matthew", "n": 20, "m_cap": 2,
                                    "sweep": [0.5]}))
        code, out, err = run(capsys, command, "--spec", str(spec),
                             "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert err == "error: sweep requires model 'hybrid', got 'matthew'\n"
        assert not (tmp_path / "o").exists()

    def test_experiment_with_sweep_exit_1(self, tmp_path, capsys, monkeypatch):
        # a sweep runs through `netforge sweep`; `experiment` runs one batch
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "hybrid", "n": 20, "m_cap": 2, "p": 0.5,
                                    "sweep": [0.1, 0.9]}))
        code, out, err = run(capsys, "experiment", "--spec", str(spec),
                             "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "sweep" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "matthew", "n": 10, "oops": True}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec),
                           "--out", str(tmp_path / "o"))
        assert code == 1 and "unknown spec keys" in err

    def test_same_spec_two_dirs_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"model": "matthew", "n": 40, "m_cap": 2,
                                    "runs": 2, "seed_base": 3}))
        for name in ("a", "b"):
            assert run(capsys, "experiment", "--spec", str(spec),
                       "--out", str(tmp_path / name))[0] == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())

    @pytest.mark.parametrize("key,value", [("runs", "3"), ("runs", 2.5),
                                           ("runs", True), ("seed_base", "a"),
                                           ("n", True), ("m_cap", True),
                                           ("p", "0.5"), ("p", True),
                                           ("density", "x"), ("density", False),
                                           ("full_metrics", "no"), ("emit_plots", "no"),
                                           ("emit_plots", 1), ("seed_base", -1)])
    def test_mistyped_spec_field_exit_1(self, tmp_path, capsys, key, value):
        # p and density are only read by the model that needs them
        base = {"p": {"model": "hybrid"},
                "density": {"model": "er_directed"}}.get(key, {"model": "matthew"})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**base, "n": 10, key: value}))
        code, _, err = run(capsys, "experiment", "--spec", str(spec),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and key in err

    @pytest.mark.parametrize("fields", [
        {"model": "matthew", "p": "x", "density": [1]},
        {"model": "meritocracy", "p": float("nan")},
        {"model": "hybrid", "p": 0.5, "density": "y"}])
    def test_unused_p_or_density_checked_exit_1(self, tmp_path, capsys, monkeypatch,
                                                fields):
        monkeypatch.setattr(experiment, "generate", _no_batch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 20, "m_cap": 2, **fields}))
        code, out, err = run(capsys, "experiment", "--spec", str(spec),
                             "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "must be null or a finite number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    @pytest.mark.parametrize("text,message", [
        ("[1]", "spec must be a JSON object"), ("3", "spec must be a JSON object"),
        ("null", "spec must be a JSON object"),
        ('{"model": "hybrid", "n": 10, "sweep": 5}', "sweep must be"),
        ('{"model": "hybrid", "n": 10, "sweep": ["0.5"]}', "sweep must be"),
        ('{"model": "hybrid", "n": 10, "sweep": []}', "sweep must be null or a non-empty"),
        ('{"model": "hybrid", "n": 10, "p": 0.5, "sweep": []}',
         "sweep must be null or a non-empty")])
    def test_malformed_spec_exit_1(self, tmp_path, capsys, command, text, message):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, _, err = run(capsys, command, "--spec", str(spec),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert run(capsys, "experiment", "--spec", str(spec),
                   "--out", str(tmp_path / "o"))[0] == 1


class TestEmpirical:
    def test_outputs(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("10\n5\n5\n")
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "empirical", "--in", str(data),
                           "--target-mean", "5", "--out", str(out_dir))
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 3
        curve = (out_dir / "rank_curve.csv").read_text().splitlines()
        assert curve[1] == "1,7.5"
        assert json.loads((out_dir / "summary.json").read_text()) == summary

    def test_byte_order_mark_keeps_first_count(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_bytes(b"\xef\xbb\xbf12\n5\n3\n")
        code, out, _ = run(capsys, "empirical", "--in", str(data),
                           "--target-mean", "5", "--out", str(tmp_path / "out"))
        assert code == 0
        assert json.loads(out)["n"] == 3 and json.loads(out)["scale"] == 0.75

    @pytest.mark.parametrize("counts, target", [("1e308\n1e308\n", "5"),
                                                ("12\n5\n3\n", "1e308")])
    def test_overflow_exit_1_before_writing(self, tmp_path, capsys, counts, target):
        data = tmp_path / "counts.csv"
        data.write_text(counts)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "empirical", "--in", str(data),
                             "--target-mean", target, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("1\nxyz\n")
        code, _, err = run(capsys, "empirical", "--in", str(data),
                           "--target-mean", "5", "--out", str(tmp_path / "o"))
        assert code == 1 and "line 2" in err

    def test_non_finite_count_exit_1(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("1\nnan\n3\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "empirical", "--in", str(data),
                             "--target-mean", "5", "--out", str(out_dir))
        assert code == 1 and "line 2" in err and out == ""
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-5", "0", "-1e+308", "-inf"])
    def test_bad_target_mean_exit_1(self, tmp_path, capsys, target):
        data = tmp_path / "counts.csv"
        data.write_text("10\n5\n5\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "empirical", "--in", str(data),
                             "--target-mean", target, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "target_mean" in err
        assert not out_dir.exists()

    def test_negative_zero_count_written_as_zero(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("user,followers\n1,-0\n2,5\n3,+7\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "empirical", "--in", str(data),
                         "--target-mean", "5", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "rank_curve.csv").read_text().splitlines()[1:] == [
            "1,8.75", "2,6.25", "3,0"]


# -- node counts past the id bound --------------------------------------------

_HUGE_NS = (2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 30)
# xmin at or past the in-degree bound, where the fit once overflowed a float
_HUGE_XMINS = (2 ** 62, 2 ** 63, 10 ** 400)


def _huge_n_examples(make, values=_HUGE_NS):
    """One hypothesis @example per value, by default each node count in
    _HUGE_NS: make(value) gives its arguments."""
    def decorate(test):
        for value in values:
            test = example(**make(value))(test)
        return test
    return decorate


@pytest.mark.parametrize("n", _HUGE_NS)
@pytest.mark.parametrize("command", ["generate", "metrics", "experiment", "sweep",
                                     "theory exact", "theory recursion"])
def test_node_count_bound_exit_1(tmp_path, capsys, command, n):
    spec = {"model": "hybrid", "n": n, "m_cap": 5, "p": 0.5}
    if command == "sweep":
        spec = {**spec, "p": None, "sweep": [0.5]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "edges.csv").write_text("1,2\n2,3\n")
    argv = {"generate": ["--model", "merit", "--n", str(n), "--m", "5", "--seed", "1"],
            "metrics": ["--in", str(tmp_path / "edges.csv"), "--n", str(n)],
            "experiment": ["--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")],
            "sweep": ["--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")],
            "theory exact": ["--formula", "exact", "--n", str(n), "--m", "5"],
            "theory recursion": ["--formula", "recursion", "--n", str(n), "--m", "5"]}
    code, out, err = run(capsys, command.split()[0], *argv[command])
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "2**62" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("xmin", _HUGE_XMINS, ids=["2**62", "2**63", "10**400"])
@pytest.mark.parametrize("command", ["metrics", "experiment"])
def test_xmin_bound_exit_1(tmp_path, capsys, command, xmin):
    (tmp_path / "spec.json").write_text(json.dumps({"model": "matthew", "n": 20, "m_cap": 2,
                                                    "xmin": xmin}))
    (tmp_path / "edges.csv").write_text("1,2\n2,3\n")
    argv = {"metrics": ["--in", str(tmp_path / "edges.csv"), "--xmin", str(xmin)],
            "experiment": ["--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]}
    code, out, err = run(capsys, command, *argv[command])
    assert code == 1 and out == ""
    assert err.startswith("error: xmin must be") and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


# -- every export holds non-negative finite numbers ----------------------------

def _bad_numbers(tokens):
    return [t for t in tokens if t.startswith("-") or t.lower() in ("nan", "inf")]


def test_exports_carry_no_sign_nan_or_inf(tmp_path, capsys):
    """The bulk %.12g writer handles only values whose sign bit is clear:
    every number netforge exports is one."""
    out = tmp_path / "out"
    out.mkdir()
    for model, extra in [("merit", []), ("matthew", []), ("hybrid", ["--p", "0.5"]),
                         ("er", ["--density", "0.1"])]:
        assert main(["generate", "--model", model, "--n", "40", "--m", "3", "--seed", "2",
                     "--out", str(out / f"{model}.edges"), *extra]) == 0
    for formula in sorted(CURVE_FUNCS):
        assert main(["theory", "--formula", formula, "--n", "8", "--m", "2",
                     "--out", str(out / f"theory_{formula}.csv")]) == 0
    for model, p in [("meritocracy", None), ("hybrid", 0.5)]:
        spec = tmp_path / f"{model}.json"
        spec.write_text(json.dumps({"model": model, "n": 60, "m_cap": 3, "p": p,
                                    "runs": 2, "emit_plots": True}))
        assert main(["experiment", "--spec", str(spec), "--out", str(out / model)]) == 0
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"model": "hybrid", "n": 60, "m_cap": 3, "runs": 2,
                                "sweep": [0.0, 0.5, 1.0]}))
    assert main(["sweep", "--spec", str(spec), "--out", str(out / "sweep")]) == 0
    counts = tmp_path / "counts.csv"
    counts.write_text("user,followers\na,-0\nb,+3\nc, 0 \nd,12\ne,0.5\n")
    assert main(["empirical", "--in", str(counts), "--target-mean", "5",
                 "--out", str(out / "empirical")]) == 0
    capsys.readouterr()
    tables = sorted(out.rglob("*.csv")) + sorted(out.glob("*.edges"))
    assert len(tables) == 4 + 5 + 2 * 2 + 4 + 1
    for path in tables:
        lines = path.read_text().splitlines()
        data = lines if path.suffix == ".edges" else lines[1:]
        assert data and not _bad_numbers([t for row in data for t in row.split(",")]), path
    charts = sorted(out.rglob("*.svg"))
    assert len(charts) == 2 * 2
    for path in charts:
        points = re.findall(r'points="([^"]*)"', path.read_text())
        coords = [c for pts in points for pair in pts.split() for c in pair.split(",")]
        assert coords and not _bad_numbers(coords), path


# -- fuzz: any small argv ends in an exit code, never an exception -----------

_SIZES = st.integers(1, 30).map(str)
_CAPS = st.integers(1, 5).map(str)
_PROBS = st.floats(0.0, 1.0).map(repr)     # subnormals and both ends included


@st.composite
def _generate_argv(draw):
    return ["generate", "--model", draw(st.sampled_from(["merit", "matthew", "hybrid", "er"])),
            "--n", draw(_SIZES), "--m", draw(_CAPS),
            "--seed", str(draw(st.integers(0, 2**32))),
            "--p", draw(_PROBS), "--density", draw(_PROBS)]


@st.composite
def _theory_argv(draw):
    argv = ["theory", "--formula", draw(st.sampled_from(sorted(CURVE_FUNCS))),
            "--n", draw(_SIZES), "--m", draw(_CAPS)]
    return argv + draw(st.sampled_from([[], ["--check-crossing"]]))


_EDGES = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
    lambda e: e[0] != e[1]), unique=True, max_size=60)


@st.composite
def _metrics_options(draw):
    options = ["--xmin", str(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        options += ["--n", draw(_SIZES)]
    return options + draw(st.sampled_from([[], ["--full"]]))


# counts and target means from small integers up to the largest finite float
_COUNTS = st.one_of(st.integers(0, 10 ** 6).map(str),
                    st.floats(0.0, allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["1e308", "1.7976931348623157e308", "5e-324"]))
_TARGETS = st.one_of(st.floats(0.0, allow_nan=False, allow_infinity=False),
                     st.sampled_from([1e308, 1.7976931348623157e308, 5e-324])).map(repr)


@st.composite
def _empirical_argv(draw, counts_file, out_dir):
    head = draw(st.sampled_from(["", "\ufeff", "followers\n", "\ufeffuser_id,followers\n"]))
    counts = draw(st.lists(_COUNTS, max_size=20))
    counts_file.write_text(head + "".join(f"{c}\n" for c in counts), encoding="utf-8")
    return ["empirical", "--in", str(counts_file), "--target-mean", draw(_TARGETS),
            "--out", str(out_dir)]


# a spec key maps to a well-typed small value or, as often, to junk
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
                  st.floats(), st.lists(st.integers(0, 1), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_SPEC_VALUES = {
    "model": st.sampled_from(["meritocracy", "matthew", "hybrid", "er_directed", "er"]),
    "n": st.integers(-1, 30), "m_cap": st.integers(0, 6),
    "p": st.floats(-0.5, 1.5), "density": st.floats(-0.5, 1.5),
    "runs": st.integers(0, 3), "seed_base": st.integers(-1, 5),
    "sweep": st.lists(st.floats(-0.5, 1.5), max_size=3),
    "emit_plots": st.booleans(), "xmin": st.integers(0, 12), "full_metrics": st.booleans(),
    "bogus": st.integers(0, 1), "": st.none(),
}


@st.composite
def _specs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SPEC_VALUES)), unique=True))
    return {k: draw(st.one_of(_SPEC_VALUES[k], _JUNK)) for k in keys}


@st.composite
def _spec_commands(draw):
    """The command and its options after --spec and --out."""
    command = draw(st.sampled_from(["experiment", "sweep"]))
    if command == "sweep" and draw(st.booleans()):
        return [command, "--p", ",".join(map(repr, draw(st.lists(st.floats(-0.5, 1.5),
                                                                 max_size=3))))]
    return [command]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def edge_file(fuzz_dir):
    return fuzz_dir / "edges.csv"


def _exit_code(argv, time_limit):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=200, deadline=None)
@given(argv=_generate_argv())
@_huge_n_examples(lambda n: {"argv": ["generate", "--model", "merit", "--n", str(n), "--m",
                                      "5", "--seed", "1", "--p", "0.5", "--density", "0.5"]})
@example(argv=["generate", "--model", "er", "--n", "50", "--m", "1", "--seed", "0",
               "--p", "0.0", "--density", "5e-324"])
@example(argv=["generate", "--model", "er", "--n", "3037000501", "--m", "1", "--seed", "0",
               "--p", "0.0", "--density", "1e-18"])     # n * (n - 1) >= 2**63
@example(argv=["generate", "--model", "er", "--n", "3037000500", "--m", "1", "--seed", "0",
               "--p", "0.0", "--density", "1e-18"])
@example(argv=["generate", "--model", "hybrid", "--n", "3", "--m", "2", "--seed", "0",
               "--p", "0.9999999999999999", "--density", "0.0"])
def test_fuzz_generate_exit_codes(argv, time_limit):
    assert _exit_code(argv, time_limit) in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(argv=_theory_argv())
def test_fuzz_theory_exit_codes(argv, time_limit):
    assert _exit_code(argv, time_limit) in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(edges=_EDGES, options=_metrics_options())
@_huge_n_examples(lambda n: {"edges": [(1, 2), (2, 3)], "options": ["--n", str(n)]})
@_huge_n_examples(lambda x: {"edges": [(1, 2)], "options": ["--xmin", str(x)]}, _HUGE_XMINS)
def test_fuzz_metrics_exit_codes(edges, options, edge_file, time_limit):
    edge_file.write_text("".join(f"{a},{b}\n" for a, b in edges))
    argv = ["metrics", "--in", str(edge_file), *options]
    assert _exit_code(argv, time_limit) in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(spec=_specs(), command=_spec_commands())
@_huge_n_examples(lambda n: {"spec": {"model": "meritocracy", "n": n, "m_cap": 5},
                             "command": ["experiment"]})
@_huge_n_examples(lambda n: {"spec": {"model": "hybrid", "n": n, "m_cap": 5,
                                      "sweep": [0.5]}, "command": ["sweep"]})
@_huge_n_examples(lambda x: {"spec": {"model": "matthew", "n": 20, "xmin": x},
                             "command": ["experiment"]}, _HUGE_XMINS)
def test_fuzz_spec_exit_codes(spec, command, fuzz_dir, time_limit):
    (fuzz_dir / "spec.json").write_text(json.dumps(spec))
    argv = [command[0], "--spec", str(fuzz_dir / "spec.json"),
            "--out", str(fuzz_dir / "out"), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_empirical_exit_codes(data, fuzz_dir, time_limit):
    out_dir = fuzz_dir / "empirical"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = data.draw(_empirical_argv(fuzz_dir / "counts.csv", out_dir))
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 0:
        summary = json.loads(out.getvalue())
        assert summary == json.loads((out_dir / "summary.json").read_text())
    else:
        assert err.getvalue().startswith("error:") and len(err.getvalue().splitlines()) == 1
        assert not out_dir.exists()
