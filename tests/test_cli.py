import json
import warnings

import pytest

from netforge import DirectedGraph, exact_expected_indegree
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

    def test_usage_error_exit_1(self, capsys):
        assert run(capsys, "generate", "--model", "merit")[0] == 1
        assert run(capsys, "nonsense")[0] == 1


class TestTheory:
    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "theory", "--formula", "exact", "--n", "3",
                           "--m", "2")
        assert code == 0
        assert out == exact_expected_indegree(3, 2).to_csv()

    def test_check_crossing_ok(self, capsys):
        code, _, err = run(capsys, "theory", "--formula", "merit-approx",
                           "--n", "1000", "--m", "5", "--check-crossing")
        assert code == 0
        assert "single crossing at rank" in err

    def test_oracle_size_guard_exit_1(self, capsys):
        code, _, _ = run(capsys, "theory", "--formula", "oracle", "--n", "20",
                         "--m", "2")
        assert code == 1


class TestMetrics:
    def test_round_trip(self, tmp_path, capsys):
        edges = tmp_path / "g.csv"
        edges.write_text("2,1\n3,1\n3,2\n")
        code, out, _ = run(capsys, "metrics", "--in", str(edges), "--full")
        assert code == 0
        rep = json.loads(out)
        assert rep["degree_histogram"] == {"0": 1, "1": 1, "2": 1}
        assert rep["alpha_hat"] is None

    def test_xmin_below_one_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "g.csv"
        edges.write_text("".join(f"{i},1\n" for i in range(2, 80)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "metrics", "--in", str(edges), "--xmin", "0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "xmin" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "metrics", "--in", "/nonexistent/file.csv")
        assert code == 2 and "i/o error" in err

    def test_malformed_edge_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "bad.csv"
        edges.write_text("1,1\n")
        assert run(capsys, "metrics", "--in", str(edges))[0] == 1


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
                                           ("emit_plots", 1)])
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

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    @pytest.mark.parametrize("text,message", [
        ("[1]", "spec must be a JSON object"), ("3", "spec must be a JSON object"),
        ("null", "spec must be a JSON object"),
        ('{"model": "hybrid", "n": 10, "sweep": 5}', "sweep must be"),
        ('{"model": "hybrid", "n": 10, "sweep": ["0.5"]}', "sweep must be")])
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

    @pytest.mark.parametrize("target", ["nan", "inf", "-5", "0"])
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
