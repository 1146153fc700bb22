"""Command-line surface.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 property violation
(e.g. the curve-crossing check finding anything but a single crossing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .experiment import (ExperimentSpec, _json_text, _write_csv, _write_out,
                         empirical_ingest, export_results, export_sweep, hybrid_sweep,
                         run_batch)
from .formation import FormationConfig, generate
from .graph import DirectedGraph
from .metrics import DEFAULT_XMIN, compute_report
from .theory import (CURVE_FUNCS, matthew_approx_curve, merit_approx_curve,
                     single_crossing_index)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_PROPERTY = 3

_MODEL_ALIASES = {"merit": "meritocracy", "meritocracy": "meritocracy",
                  "matthew": "matthew", "hybrid": "hybrid",
                  "er": "er_directed", "er_directed": "er_directed"}


class PropertyViolation(Exception):
    pass


class _NegativeNumber:
    """Matches an argument that parses as a negative float ("-5", "-1e+308",
    "-inf"); argparse reads such an argument as a value, not as an option."""

    @staticmethod
    def match(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return arg.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber   # no option looks like one

    def error(self, message):
        """Report a usage error as one stderr line, without the usage block."""
        self.exit(EXIT_VALIDATION, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="netforge")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate one network and emit its edge list")
    g.add_argument("--model", required=True, choices=sorted(_MODEL_ALIASES))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True, help="out-degree cap M")
    g.add_argument("--p", type=float, default=None, help="hybrid mixing probability")
    g.add_argument("--density", type=float, default=None, help="ER edge probability")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default=None, help="edge-list file (default: stdout)")

    t = sub.add_parser("theory", help="evaluate an expected in-degree curve")
    t.add_argument("--formula", required=True, choices=sorted(CURVE_FUNCS))
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--out", default=None, help="curve CSV file (default: stdout)")
    t.add_argument("--check-crossing", action="store_true",
                   help="also verify the two approximation curves cross exactly once")

    m = sub.add_parser("metrics", help="compute metrics for an edge-list file")
    m.add_argument("--in", dest="infile", required=True)
    m.add_argument("--xmin", type=int, default=DEFAULT_XMIN)
    m.add_argument("--n", type=int, default=None, help="node count (default: max id)")
    m.add_argument("--full", action="store_true",
                   help="include all-source BFS path statistics")

    e = sub.add_parser("experiment", help="run a batch from a spec.json")
    e.add_argument("--spec", required=True)
    e.add_argument("--out", required=True)

    s = sub.add_parser("sweep", help="hybrid mixing-probability sweep")
    s.add_argument("--spec", required=True)
    s.add_argument("--p", default=None, help="comma-separated p values")
    s.add_argument("--out", required=True)

    p = sub.add_parser("empirical", help="ingest a follower-count CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target-mean", type=float, required=True)
    p.add_argument("--out", required=True)
    return ap


def _read(path: str) -> str:
    """The file's text; a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _load_spec(path: str) -> ExperimentSpec:
    return ExperimentSpec.from_dict(json.loads(_read(path)))


def _cmd_generate(args) -> int:
    cfg = FormationConfig(model=_MODEL_ALIASES[args.model], n=args.n, m_cap=args.m,
                          p=args.p, density=args.density, seed=args.seed)
    _write_out(args.out, generate(cfg).to_edge_list())
    return EXIT_OK


def _cmd_theory(args) -> int:
    curve = CURVE_FUNCS[args.formula](args.n, args.m)
    _write_csv(args.out, curve.header, *curve.columns)
    if args.check_crossing:
        report = single_crossing_index(merit_approx_curve(args.n, args.m).values,
                                       matthew_approx_curve(args.n, args.m).values)
        if report.sign_changes != 1:
            raise PropertyViolation(
                f"expected one crossing, found {report.sign_changes} sign changes")
        print(f"single crossing at rank {report.crossing_rank}", file=sys.stderr)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    g = DirectedGraph.from_edge_list(_read(args.infile), n=args.n)
    report = compute_report(g, xmin=args.xmin, with_paths=args.full)
    _write_out(None, _json_text(report.to_dict()))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    spec = _load_spec(args.spec)
    rs = run_batch(spec)
    for path in export_results(rs, args.out):
        print(path, file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    if args.p:
        spec = replace(spec, sweep=[float(tok) for tok in args.p.split(",") if tok.strip()])
    rows = hybrid_sweep(spec)
    for path in export_sweep(rows, args.out):
        print(path, file=sys.stderr)
    return EXIT_OK


def _cmd_empirical(args) -> int:
    result = empirical_ingest(_read(args.infile), target_mean=args.target_mean)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "rank_curve.csv"), "rank,normalized_followers",
               np.arange(1, result.n + 1), result.normalized_counts)
    summary = {"n": result.n, "gini": result.gini, "scale": result.scale,
               "target_mean": args.target_mean}
    _write_out(os.path.join(args.out, "summary.json"), _json_text(summary))
    _write_out(None, json.dumps(summary, allow_nan=False, sort_keys=True) + "\n")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "theory": _cmd_theory,
    "metrics": _cmd_metrics,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "empirical": _cmd_empirical,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # --help exits 0, a usage error EXIT_VALIDATION
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, MemoryError) as exc:     # bad input, or a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
