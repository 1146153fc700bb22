"""Export bytes pinned by sha256, so that a change which alters the bytes the
same way on every run (and so passes the two-run byte-identity tests) fails here.

The digests were recorded before MetricsReport kept its in-degree vector in
place of the histogram dict; the two that hash matthew output were re-recorded
when the Matthew sampler's RNG stream changed (the loop it replaced is kept in
test_formation.py as the reference of a two-sample test), and the two that
hash hybrid output at 0 < p < 1 when the hybrid sampler's stream changed (its
jump-chain loop is kept there the same way). A deliberate change
to an export format updates them together with the format. The empirical
digests were recorded before the follower-CSV parser read regular lines in
bulk, and the generate and theory digests before the CSV and edge-list
writers formatted numbers in bulk. The inputs are small enough that no power-law fit runs (alpha_hat is
null), so every exported number comes from sums, counts and divisions of
small integers (and one half) and reads the same on any IEEE-754 host;
the merit-approx curve alone goes through numpy's log. The n = 2000
export digests and the chart digest were recorded before the charts and
metrics.json's rounding were written in bulk (the chart test then passed
its points as a list of pairs); these go through math.log10 and, at
n = 2000, the power-law fit's numpy log. The sweep-label digest was
recorded before sweep_gini.csv was written with Python's % in place of
lines.rows. The larger generate digests were recorded before the
generators, the CSR constructor and the degree-order relabels stopped
stable-sorting unordered keys; unlike the sweep pins, which hash in-degrees
alone, they see the order of each node's out-list.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from netforge import ExperimentSpec, export_results, export_sweep, hybrid_sweep, run_batch
from netforge.cli import main
from netforge.plotting import loglog_svg


def tree_digest(root) -> str:
    """sha256 over each file's relative path and the sha256 of its bytes."""
    lines = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                lines.append(f"{os.path.relpath(path, root)} "
                             f"{hashlib.sha256(fh.read()).hexdigest()}\n")
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


@pytest.mark.parametrize("model, digest", [
    ("meritocracy", "f7f895a53f2f7e82c6d4476abb50cdc4071f151fcfbc421facc517abb9746857"),
    ("matthew", "e111de1ebf0f83fb9dffb2294d62a61b4c3f45ea9800ed5f1cf614bd9493a6f9"),
])
def test_export_results_bytes(tmp_path, model, digest):
    spec = ExperimentSpec(model=model, n=60, m_cap=3, runs=3, seed_base=5, emit_plots=True)
    export_results(run_batch(spec), str(tmp_path))
    assert tree_digest(tmp_path) == digest


@pytest.mark.parametrize("model, digest", [
    ("meritocracy", "595a9e8463429ee32f2ae6559dc5913699b52c729a37559e6d4fa32e94e7ab31"),
    ("matthew", "170fd5bd5cd86bb8a5fda4e24924a896360e50403242879ba782e5a76efb63ef"),
])
def test_export_results_bytes_n2000(tmp_path, model, digest):
    # 4-digit ranks on the charts, and per-node means k/3 that metrics.json rounds
    spec = ExperimentSpec(model=model, n=2000, m_cap=5, runs=3, seed_base=5, emit_plots=True)
    export_results(run_batch(spec), str(tmp_path))
    assert tree_digest(tmp_path) == digest


def test_loglog_svg_bytes():
    rng = np.random.default_rng(7)
    x = rng.lognormal(0.0, 2.0, 3000)
    y = rng.lognormal(1.0, 3.0, 3000)
    svg = loglog_svg(x, y, "t", "x", "y")
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "da6a93e4558e878d32e2d0eb1afbc01f649d10494b1c507e56be352ef7d671c9")


def test_export_sweep_bytes(tmp_path):
    spec = ExperimentSpec(model="hybrid", n=40, m_cap=2, runs=2, seed_base=5,
                          sweep=[0.25, 0.75])
    export_sweep(hybrid_sweep(spec), str(tmp_path))
    assert tree_digest(tmp_path) == (
        "b6252b32473ed4d4920fe7ecf59cce396da537e1c2ee296fdd437b488fb812e3")


def test_export_sweep_labels_bytes(tmp_path):
    # %g shortens or exponent-formats these p labels: 1e-07, 0.123457, 1
    spec = ExperimentSpec(model="hybrid", n=40, m_cap=2, runs=2, seed_base=5,
                          sweep=[1e-07, 0.1234567, 1.0])
    export_sweep(hybrid_sweep(spec), str(tmp_path))
    assert tree_digest(tmp_path) == (
        "4e34d6072258821e092080dabe52d73095fe5b74e00e6a237bd08819ec8cb6da")


def test_metrics_full_stdout_bytes(tmp_path):
    edges = tmp_path / "edges.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["generate", "--model", "matthew", "--n", "150", "--m", "3",
                     "--seed", "11", "--out", str(edges)]) == 0
        assert main(["metrics", "--in", str(edges), "--full"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "1d7177a09dc95b13ef68a62a1b07146adf11c9bf2d4ba636efd5a2a621b15236")


def test_empirical_exports_bytes(tmp_path):
    # a header, plain rows and a few rows only the per-line rules read
    rows = [f"u{i},{i * 37 % 101}" for i in range(1, 41)] + ["", " u41 , 7 ", "u42,3.5"]
    csv = tmp_path / "followers.csv"
    csv.write_text("user_id,followers\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["empirical", "--in", str(csv), "--target-mean", "5",
                     "--out", str(tmp_path / "emp")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "emp" / name).read_bytes()).hexdigest()
               for name in ("rank_curve.csv", "summary.json")}
    digests["stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == {
        "rank_curve.csv": "d717270a41bbb3dcf83049f9ba67b87d78cdf9b19f9e18e90e0e32890da87685",
        "summary.json": "ec454aa6fb18bea2286dc568371abc65908ddd545287c638d5984b56a1c788f8",
        "stdout": "72d4d043d6bfe69e90205e411891a9dc37089e4a7f29a72361f77d1ec76e7789",
    }


def stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("model, extra, digest", [
    ("meritocracy", [], "bed8aec49f9d7b498a98d1f554f62f52cb33f7cd82ce4bae173cfe0edab93baa"),
    ("matthew", [], "149161d0a8f22edd49d4339416c4771b4a49a7bf1f3c223b8bef299612556bb0"),
    ("hybrid", ["--p", "0.5"],
     "89d2cf9b1030c4c15de293ea47cffe9ffb97e8574e95498ffea3069abcac249a"),
    ("er_directed", ["--density", "0.1"],
     "09639bbb4d34db8fe675d486bf8b297108e2c6c632eb72c2993223c3f3b3e065"),
])
def test_generate_stdout_bytes(model, extra, digest):
    assert stdout_digest(["generate", "--model", model, "--n", "50", "--m", "3",
                          "--seed", "4"] + extra) == digest


@pytest.mark.parametrize("model, n, extra, digest", [
    ("hybrid", 1000, ["--p", "0.25"],
     "4c0bb9850e85bb54eb6c06b3e3292020027e6a71685af33e8d8f475fd7a24959"),
    ("hybrid", 1000, ["--p", "0.75"],
     "54ddc1df0308e4841c495599cc89877980d527880a9342a09e8236a5aa4c86a2"),
    ("matthew", 10_000, [],
     "b97c33818ada2a6a56bf737d852da03cd06c6f80aae945a33e56da78f111b99a"),
    ("meritocracy", 10_000, [],
     "675b75a232fb8cc0debac2bd835badfa64cfa4727d6a5b730080b8ce1a8506e3"),
    ("er_directed", 2000, ["--density", "0.005"],
     "4cad73cc34f4c414c6175853faf77c94cc2aec29f7597e95f39ab9cec117e894"),
])
def test_generate_stdout_bytes_large(model, n, extra, digest):
    # every node's out-list in creation order, at sizes where rows are long
    # and many sort keys tie
    assert stdout_digest(["generate", "--model", model, "--n", str(n), "--m", "5",
                          "--seed", "4"] + extra) == digest


@pytest.mark.parametrize("formula, digest", [
    ("exact", "4aa572c4813440070584129838c571df7a527caaf6f75ddba603c0ef47909096"),
    ("merit-approx", "f1a94798c03a9eec43fe7b744a84f2ea5ee167e84629df210a4a7ed2f372c243"),
])
def test_theory_csv_bytes(tmp_path, formula, digest):
    argv = ["theory", "--formula", formula, "--n", "300", "--m", "4"]
    assert stdout_digest(argv) == digest
    out = tmp_path / "curve.csv"
    stdout_digest(argv + ["--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
