"""Tests of the benchmark itself, on the workloads' small parameter sets:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import netforge  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from netforge import experiment, formation, graph  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = {m["name"] for m in json.load(_fh)["per_layer"]}

# Run-level metrics every workload reports, computed by run.py, not by a span.
RUN_LEVEL = {spans.REMAINDER, "trace.wall_s", "trace.overhead_s"}

_BUILD = {"graph.build_s", "formation.graphs", "formation.edges"}
_REPORT = {"metrics.compute_report_s", "metrics.clustering_s",
           "graph.degrees_snapshot_s"}

# The per-layer metrics each workload exists to exercise: every one must be
# non-zero after a single traced repetition, so a rename cannot zero a layer.
EXERCISES = {
    "library": _BUILD | _REPORT | {
        "formation.meritocracy_s", "formation.matthew_s", "formation.hybrid_s",
        "formation.er_directed_s", "metrics.path_stats_s", "metrics.adjacency_csr_s",
        "metrics.adjacency_csr.calls", "metrics.bfs_sources", "experiment.run_batch_s",
        "experiment.hybrid_sweep_s", "experiment.small_world_scaling_s",
        "theory.curve_s", "experiment.export_s", "experiment.export_bytes",
        "plotting.svg_s"},
    "cli": _BUILD | _REPORT | {
        "formation.meritocracy_s", "formation.matthew_s", "graph.to_edge_list_s",
        "graph.from_edge_list_s", "graph.edge_list_bytes", "cli.main_s",
        "experiment.empirical_ingest_s"},
}


def _tiny(name: str, tmp_path) -> tuple:
    wl = workloads.WORKLOADS[name]
    return wl, wl.inputs(wl.tiny, 3, str(tmp_path))


def _out(tmp_path, name: str) -> str:
    path = tmp_path / name
    path.mkdir()
    return str(path)


def test_self_times_subtract_direct_children_only():
    trace = [["a", 0.0, 10.0, None],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 6.0, 0],
             ["a", 11.0, 12.0, None]]
    assert spans.self_times(trace) == {"a": 7.0, "b": 2.0, "c": 1.0, "d": 1.0}


def test_every_per_layer_metric_is_exercised_by_some_workload():
    assert set().union(*EXERCISES.values()) | RUN_LEVEL == PER_LAYER
    assert set(EXERCISES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_repetition_covers_its_layers_and_keeps_exports(name, tmp_path):
    wl, ctx = _tiny(name, tmp_path)
    plain, traced = _out(tmp_path, "plain"), _out(tmp_path, "traced")
    wl.run(ctx, plain)
    tracer = spans.Tracer()
    with tracer.installed("r0"):
        start = perf_counter()
        wl.run(ctx, traced)
        wall = perf_counter() - start
    found = tracer.layer_metrics("r0", wall)

    assert workloads.export_digests(plain) == workloads.export_digests(traced)
    assert sorted(k for k in EXERCISES[name] if not found.get(k, 0) > 0) == []
    assert set(found) <= PER_LAYER
    times = [v for k, v in found.items() if k.endswith("_s")]
    assert min(times) >= 0
    assert sum(times) == pytest.approx(wall, rel=1e-9)


def test_tracer_restores_every_reference():
    def refs():
        return [formation.generate_matthew, formation._GENERATORS["matthew"],
                experiment.run_batch, netforge.run_batch, experiment.compute_report,
                graph.DirectedGraph.__dict__["from_edge_list"],
                graph.DirectedGraph.__dict__["to_edge_list"]]

    before = refs()
    with spans.Tracer().installed("r0"):
        assert all(a is not b for a, b in zip(before, refs()))
    assert all(a is b for a, b in zip(before, refs()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_correct_program(name, tmp_path):
    wl, ctx = _tiny(name, tmp_path)
    checks = workloads.Checks()
    digests = workloads.checked_run(wl, ctx, _out(tmp_path, "out"), checks)
    assert checks.failures == []
    assert checks.attempted > 0 and digests


def test_checks_catch_a_lossy_edge_list(tmp_path):
    wl, ctx = _tiny("cli", tmp_path)
    drop_last_line = {"graph:DirectedGraph.to_edge_list":
                      lambda f: lambda g: "".join(f(g).splitlines(True)[:-1])}
    checks = workloads.Checks()
    with spans.patched(drop_last_line):
        workloads.checked_run(wl, ctx, _out(tmp_path, "out"), checks)
    assert len(checks.failures) == 2
    assert all("round trip" in f for f in checks.failures)


def test_checks_catch_a_wrong_diameter(tmp_path):
    wl, ctx = _tiny("library", tmp_path)
    off_by_one = {"metrics:path_stats":
                  lambda f: lambda g: f(g)._replace(diameter=f(g).diameter + 1)}
    checks = workloads.Checks()
    with spans.patched(off_by_one):
        workloads.checked_run(wl, ctx, _out(tmp_path, "out"), checks)
    assert checks.failures and all("path_stats" in f for f in checks.failures)


def test_checks_count_a_raise_as_a_failure(tmp_path):
    wl, ctx = _tiny("library", tmp_path)
    def boom(f):
        def raising(*args, **kwargs):
            raise RuntimeError("boom")
        return raising
    checks = workloads.Checks()
    with spans.patched({"plotting:loglog_svg": boom}):
        assert workloads.checked_run(wl, ctx, _out(tmp_path, "out"), checks) is None
    assert len(checks.failures) == 1 and "boom" in checks.failures[0]
