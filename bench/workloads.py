"""The benchmark's workloads and the correctness checks run on their outputs.

A workload makes its inputs from the seed (`prepare`), then runs a timed
section (`run`) that writes every export into one directory. The checks run
on an extra, untimed repetition with hooks on the generators, the edge-list
emitter and parser and `path_stats`; none of them depends on the RNG stream.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import netforge as nf
from netforge import cli
from netforge.formation import FormationConfig

import spans

M = 5                   # out-degree cap in every workload
SWEEP_P = [0.25, 0.5, 0.75, 1.0]
ORACLE_MAX_N = 1000     # path_stats is compared with networkx up to this size


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _seeded(params: dict, seed: int, in_dir: str) -> dict:
    return {**params, "seed": seed}


def _batch(ctx: dict, out: str) -> None:
    for model in ("meritocracy", "matthew"):
        spec = nf.ExperimentSpec(model=model, n=ctx["n"], m_cap=M, runs=ctx["runs"],
                                 seed_base=ctx["seed"], emit_plots=True)
        nf.export_results(nf.run_batch(spec), os.path.join(out, model))
    curve = nf.exact_expected_indegree(ctx["n"], M)
    _write(os.path.join(out, "exact_curve.csv"), curve.to_csv())


def _sweep(ctx: dict, out: str) -> None:
    spec = nf.ExperimentSpec(model="hybrid", n=ctx["sweep_n"], m_cap=M,
                             runs=ctx["sweep_runs"], seed_base=ctx["seed"], sweep=SWEEP_P)
    nf.export_sweep(nf.hybrid_sweep(spec), os.path.join(out, "sweep"))


def _paths(ctx: dict, out: str) -> None:
    result = {}
    for model in ("meritocracy", "matthew"):
        rows = nf.small_world_scaling(model, ctx["sizes"], M, runs=1,
                                      seed_base=ctx["seed"])
        result[model] = [dataclasses.asdict(r) for r in rows]
    n = ctx["clustering_n"]
    for model in ("meritocracy", "matthew", "er_directed"):
        density = nf.matched_er_density(n, M) if model == "er_directed" else None
        cfg = FormationConfig(model=model, n=n, m_cap=M, density=density,
                              seed=ctx["seed"])
        result[f"clustering_{model}"] = nf.clustering(nf.generate(cfg))[1]
    _write(os.path.join(out, "paths.json"),
           json.dumps(result, allow_nan=False, indent=1, sort_keys=True) + "\n")


def _followers(params: dict, seed: int, in_dir: str) -> dict:
    counts = np.random.default_rng(seed).lognormal(4.0, 1.5, params["followers"])
    path = os.path.join(in_dir, "followers.csv")
    _write(path, "user_id,followers\n" + "".join(
        f"{i},{c}\n" for i, c in enumerate(counts.astype(np.int64).tolist(), start=1)))
    return {**params, "seed": seed, "followers_csv": path}


def _cli(*argv: str, stdout: str = os.devnull) -> None:
    with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"netforge {' '.join(argv)} exited with {code}")


def _edgelist(ctx: dict, out: str) -> None:
    for model in ("merit", "matthew"):
        edges = os.path.join(out, f"{model}.csv")
        _cli("generate", "--model", model, "--n", str(ctx["cli_n"]), "--m", str(M),
             "--seed", str(ctx["seed"]), "--out", edges)
        _cli("metrics", "--in", edges, stdout=os.path.join(out, f"{model}_metrics.json"))
    _cli("empirical", "--in", ctx["followers_csv"], "--target-mean", str(M),
         "--out", os.path.join(out, "empirical"),
         stdout=os.path.join(out, "empirical.json"))


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict                  # parameters of a measured repetition
    tiny: dict                  # same keys, small: warm-up and tests
    run: Callable[[dict, str], None]            # timed section: (inputs, out dir)
    prepare: Callable[[dict, int, str], dict] = _seeded   # (params, seed, dir) -> inputs
    edge_lists: tuple = ()      # exported edge lists, in the order they are emitted

    def inputs(self, params: dict, seed: int, root: str) -> dict:
        in_dir = os.path.join(root, "inputs")
        os.makedirs(in_dir, exist_ok=True)
        return self.prepare(params, seed, in_dir)


def _library(ctx: dict, out: str) -> None:
    _batch(ctx, out)
    _sweep(ctx, out)
    _paths(ctx, out)


# Two workloads, one per way into the package, so that a change to a layer has
# a workload that exercises it and one that bypasses it. `library` calls the
# experiment API in memory: run_batch + export (generation, graph build and
# reports), the hybrid sweep (its event loop) and small-world scaling
# (all-source shortest paths) each take about a third of it. `cli` is the only
# one that writes and parses edge-list files, through the CLI. Fewer, longer
# workloads keep the median steady on a host whose throughput swings by tens
# of percent over seconds to minutes.
WORKLOADS = {w.name: w for w in [
    Workload("library", run=_library,
             full={"n": 10_000, "runs": 2, "sweep_n": 1000, "sweep_runs": 3,
                   "sizes": [1000, 1500], "clustering_n": 2000},
             tiny={"n": 200, "runs": 2, "sweep_n": 100, "sweep_runs": 2,
                   "sizes": [60, 120], "clustering_n": 100}),
    Workload("cli", run=_edgelist, prepare=_followers,
             full={"cli_n": 20_000, "followers": 200_000},
             tiny={"cli_n": 200, "followers": 500},
             edge_lists=("merit.csv", "matthew.csv")),
]}


# -- outputs -----------------------------------------------------------------


def export_digests(out: str) -> dict:
    """sha256 of every file under `out`, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def combined_digest(digests: dict) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in digests.items())
                          .encode()).hexdigest()


# -- correctness checks ------------------------------------------------------


class Checks:
    """Counts the checks attempted and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run(self, what: str, check: Callable[[], object]) -> None:
        """A check that passes unless `check` raises."""
        try:
            check()
        except Exception as exc:        # any raise is this check's failure
            self.expect(False, f"{what}: {type(exc).__name__}: {exc}")
        else:
            self.expect(True, what)


def _edge_keys(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.sort(arr[:, 0] << 32 | arr[:, 1])


def _file_edge_keys(path: str) -> np.ndarray:
    return _edge_keys(np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2))


def _networkx_path_stats(g) -> tuple[int, float]:
    """Diameter and mean shortest-path length over reachable ordered pairs
    i != j, by networkx BFS (the definition path_stats documents)."""
    import networkx as nx
    G = nx.DiGraph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges())
    diameter, total, count = 0, 0, 0
    for src, lengths in nx.all_pairs_shortest_path_length(G):
        for dst, d in lengths.items():
            if dst != src:
                diameter = max(diameter, d)
                total += d
                count += 1
    return diameter, total / count


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def checked_run(wl: Workload, ctx: dict, out: str, checks: Checks) -> dict | None:
    """Run the workload once with checking hooks installed, then check its
    exports. Returns the export digests, or None when the run raised."""
    emitted, parsed = [], []

    def graph_ok(args, g):
        checks.run(f"check_invariants on {g!r}", g.check_invariants)

    def matthew_ok(args, g):
        graph_ok(args, g)
        _, outs = g.degrees_snapshot()
        m = args[0].m_cap
        checks.expect(g.edge_count == m * g.n and bool(np.all(outs == m)),
                      f"matthew {g!r}: edge_count == M*n, every out-degree M={m}")

    def emit(args, text):
        emitted.append(_edge_keys(list(args[0].edges())))

    def parse(args, g):
        graph_ok(args, g)
        parsed.append(_edge_keys(list(g.edges())))

    def paths_ok(args, stats):
        g = args[0]
        if g.n <= ORACLE_MAX_N:
            diameter, apl = _networkx_path_stats(g)
            checks.expect(stats.diameter == diameter
                          and math.isclose(stats.avg_path_length, apl, rel_tol=1e-12),
                          f"path_stats {tuple(stats)} == networkx ({diameter}, {apl}) "
                          f"on {g!r}")

    hooks = {
        "formation:generate_meritocracy": graph_ok,
        "formation:generate_matthew": matthew_ok,
        "formation:generate_hybrid": graph_ok,
        "formation:generate_er_directed": graph_ok,
        "graph:DirectedGraph.to_edge_list": emit,
        "graph:DirectedGraph.from_edge_list": parse,
        "metrics:path_stats": paths_ok,
    }

    def after(hook):
        def make(func):
            def checked(*args, **kwargs):
                result = func(*args, **kwargs)
                hook(args, result)
                return result
            return checked
        return make

    try:
        with spans.patched({t: after(h) for t, h in hooks.items()}):
            wl.run(ctx, out)
    except Exception as exc:            # the program raised: a failed check
        checks.expect(False, f"{wl.name} raised {type(exc).__name__}: {exc}")
        return None

    files = [os.path.join(out, name) for name in wl.edge_lists]
    checks.expect(len(emitted) == len(parsed) == len(files),
                  f"{len(files)} edge lists emitted and parsed back")
    for sent, got, path in zip(emitted, parsed, files):
        checks.expect(np.array_equal(sent, _file_edge_keys(path))
                      and np.array_equal(sent, got),
                      f"edge-list round trip through {os.path.basename(path)} "
                      "keeps the edge set")
    for rel in export_digests(out):
        if rel.endswith(".json"):
            with open(os.path.join(out, rel), encoding="utf-8") as fh:
                text = fh.read()
            checks.run(f"{rel} parses as JSON with NaN rejected",
                       lambda: json.loads(text, parse_constant=_reject_constant))
    return export_digests(out)
