"""Export bytes pinned by sha256, so that a change which alters the bytes the
same way on every run (and so passes the two-run byte-identity tests) fails here.

The digests were recorded before MetricsReport kept its in-degree vector in
place of the histogram dict; the two that hash matthew output were re-recorded
when the Matthew sampler's RNG stream changed (the loop it replaced is kept in
test_formation.py as the reference of a two-sample test). A deliberate change
to an export format updates them together with the format. The inputs are small enough that no power-law
fit runs (alpha_hat is null), so every exported number comes from sums, counts
and divisions of small integers and reads the same on any IEEE-754 host.
"""

import contextlib
import hashlib
import io
import os

import pytest

from netforge import ExperimentSpec, export_results, export_sweep, hybrid_sweep, run_batch
from netforge.cli import main


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


def test_export_sweep_bytes(tmp_path):
    spec = ExperimentSpec(model="hybrid", n=40, m_cap=2, runs=2, seed_base=5,
                          sweep=[0.25, 0.75])
    export_sweep(hybrid_sweep(spec), str(tmp_path))
    assert tree_digest(tmp_path) == (
        "1b39f1c4e21f1ff0fb9aac47ae30bab7d172c49f429513a21d083899324aaa6d")


def test_metrics_full_stdout_bytes(tmp_path):
    edges = tmp_path / "edges.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["generate", "--model", "matthew", "--n", "150", "--m", "3",
                     "--seed", "11", "--out", str(edges)]) == 0
        assert main(["metrics", "--in", str(edges), "--full"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "1d7177a09dc95b13ef68a62a1b07146adf11c9bf2d4ba636efd5a2a621b15236")
