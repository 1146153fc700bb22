"""In-memory span tracing of the netforge package, installed from outside it.

`patched` replaces every reference to a netforge function for the duration of
a block: module globals (including names bound by `from .x import y`), values
of module-level dicts (dispatch tables such as `formation._GENERATORS`) and
class attributes (methods and classmethods of `DirectedGraph`). The package's
own code is not modified, so a later change that renames a wrapped function
makes `patched` fail loudly instead of silently zeroing a layer.

`Tracer` uses it to record one span per call of each function in `LAYERS`:
name, start, end, parent span and repetition id. Self time is a span's
duration minus that of its direct children; traced wall time outside every
span is reported as the benchmark's own remainder.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _generated(args, g):
    return {"formation.graphs": 1, "formation.edges": g.edge_count}


def _exported(args, paths):
    return {"experiment.export_bytes": sum(os.path.getsize(p) for p in paths)}


# "module:attribute" -> (span name, counter function or None). A counter
# function maps (call arguments, result) to counts added for the repetition.
LAYERS = {
    "formation:generate_meritocracy": ("formation.meritocracy", _generated),
    "formation:generate_matthew": ("formation.matthew", _generated),
    "formation:generate_hybrid": ("formation.hybrid", _generated),
    "formation:generate_er_directed": ("formation.er_directed", _generated),
    "graph:DirectedGraph._from_out_adj": ("graph.build", None),
    "graph:DirectedGraph.degrees_snapshot": ("graph.degrees_snapshot", None),
    "graph:DirectedGraph.to_edge_list": (
        "graph.to_edge_list", lambda a, text: {"graph.edge_list_bytes": len(text)}),
    "graph:DirectedGraph.from_edge_list": (
        "graph.from_edge_list", lambda a, g: {"graph.edge_list_bytes": len(a[1])}),
    "metrics:adjacency_csr": (
        "metrics.adjacency_csr", lambda a, r: {"metrics.adjacency_csr.calls": 1}),
    "metrics:path_stats": (
        "metrics.path_stats", lambda a, r: {"metrics.bfs_sources": a[0].n}),
    "metrics:clustering": ("metrics.clustering", None),
    "metrics:compute_report": ("metrics.compute_report", None),
    "theory:recursion_table": ("theory.curve", None),
    "theory:exact_expected_indegree": ("theory.curve", None),
    "theory:merit_approx_curve": ("theory.curve", None),
    "theory:matthew_approx_curve": ("theory.curve", None),
    "theory:brute_force_oracle": ("theory.curve", None),
    "experiment:run_batch": ("experiment.run_batch", None),
    "experiment:hybrid_sweep": ("experiment.hybrid_sweep", None),
    "experiment:small_world_scaling": ("experiment.small_world_scaling", None),
    "experiment:empirical_ingest": ("experiment.empirical_ingest", None),
    "experiment:export_results": ("experiment.export", _exported),
    "experiment:export_sweep": ("experiment.export", _exported),
    "plotting:loglog_svg": ("plotting.svg", None),
    "cli:main": ("cli.main", None),
}

REMAINDER = "bench.remainder_s"     # traced wall time outside every span


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "netforge" or name.startswith("netforge.")]


@contextmanager
def patched(wrap: dict):
    """Within the block, every reference to each function named in `wrap`
    ("module:attribute" -> make(original) -> replacement) is the replacement."""
    undo = []
    try:
        for target, make in wrap.items():
            modname, attr = target.split(":")
            module = importlib.import_module(f"netforge.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__))
                else:
                    new = make(raw)
                setattr(cls, meth, new)
                undo.append(functools.partial(setattr, cls, meth, raw))
                continue
            func = getattr(module, attr)
            new = make(func)
            for mod in _package_modules():
                for container in [vars(mod)] + [v for v in vars(mod).values()
                                                if type(v) is dict]:
                    for key, value in list(container.items()):
                        if value is func:
                            container[key] = new
                            undo.append(functools.partial(
                                container.__setitem__, key, func))
        yield
    finally:
        for restore in reversed(undo):
            restore()


class Tracer:
    """Collects spans and counts for every function in LAYERS while installed."""

    def __init__(self):
        # run id -> spans as [name, start, end, parent index within the run]
        self.spans: dict = defaultdict(list)
        self.counts: dict = defaultdict(lambda: defaultdict(float))   # run -> name -> n
        self.run = None
        self._stack: list[int] = []

    def _make(self, name: str, count):
        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                spans = self.spans[self.run]
                span = [name, perf_counter(), None,
                        self._stack[-1] if self._stack else None]
                self._stack.append(len(spans))
                spans.append(span)
                try:
                    result = func(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    self._stack.pop()
                if count is not None:
                    for key, v in count(args, result).items():
                        self.counts[self.run][key] += v
                return result
            return traced
        return make

    @contextmanager
    def installed(self, run):
        """Trace calls made inside the block under repetition id `run`."""
        self.run = run
        with patched({t: self._make(name, count)
                      for t, (name, count) in LAYERS.items()}):
            yield

    def layer_metrics(self, run, wall: float) -> dict:
        """Per-layer self times (`<span>_s`) and counts of one repetition whose
        traced wall time was `wall`; time outside every span is REMAINDER."""
        spans = self.spans[run]
        out = {f"{name}_s": t for name, t in self_times(spans).items()}
        out.update(self.counts[run])
        out[REMAINDER] = wall - sum(end - start for _, start, end, parent in spans
                                    if parent is None)
        return out

    def records(self, origin: float):
        """Spans as JSON-ready dicts, times in seconds from `origin`."""
        for run, spans in self.spans.items():
            for k, (name, start, end, parent) in enumerate(spans):
                yield {"run": run, "id": k, "parent": parent, "name": name,
                       "start": start - origin, "end": end - origin}


def self_times(spans) -> dict:
    """Sum of self time per span name. `spans` are [name, start, end, parent
    index] lists whose parent indices point into the same list."""
    out: dict = defaultdict(float)
    for name, start, end, parent in spans:
        out[name] += end - start
        if parent is not None:
            out[spans[parent][0]] -= end - start
    return dict(out)
