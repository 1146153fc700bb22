"""Batch orchestration: seeded Monte Carlo runs, parameter sweeps, empirical
CSV ingestion, aggregation, and atomic exports.

Run r of a batch uses seed_base + r, so a batch is fully determined by its
spec and identical specs produce byte-identical exports.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .formation import (FormationConfig, generate, is_integer, is_real,
                        matched_er_density)
from .metrics import (DEFAULT_XMIN, MetricsReport, compute_report,
                      degree_distribution, gini, path_stats)
from .plotting import loglog_svg


class SpecError(ValueError):
    """Invalid ExperimentSpec (bad value or unknown key)."""


@dataclass
class ExperimentSpec:
    model: str
    n: int
    m_cap: int = 5
    p: float | None = None
    density: float | None = None
    runs: int = 1
    seed_base: int = 0
    sweep: list[float] | None = None
    emit_plots: bool = False
    xmin: int = DEFAULT_XMIN
    full_metrics: bool = False      # include all-source BFS path statistics per run

    def __post_init__(self):
        for name in ("runs", "seed_base", "xmin"):
            value = getattr(self, name)
            if not is_integer(value):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        for name in ("emit_plots", "full_metrics"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SpecError(f"{name} must be true or false, got {value!r}")
        if self.runs < 1:
            raise SpecError(f"runs must be >= 1, got {self.runs}")
        if self.xmin < 1:
            raise SpecError(f"xmin must be >= 1, got {self.xmin}")
        if self.sweep is not None and not (isinstance(self.sweep, list)
                                           and all(map(is_real, self.sweep))):
            raise SpecError(f"sweep must be null or a list of numbers, got {self.sweep!r}")
        # delegate model/parameter validation to FormationConfig; a hybrid
        # sweep spec may leave p unset and take it from the sweep list
        if self.model == "hybrid" and self.p is None and self.sweep:
            self.config_for_run(0, p=float(self.sweep[0]))
        else:
            self.config_for_run(0)
        if self.sweep is not None:
            for v in self.sweep:
                if self.model == "hybrid" and not 0.0 <= v <= 1.0:
                    raise SpecError(f"sweep p value {v} outside [0,1]")

    def config_for_run(self, run: int, p: float | None = None) -> FormationConfig:
        try:
            return FormationConfig(
                model=self.model, n=self.n, m_cap=self.m_cap,
                p=self.p if p is None else p, density=self.density,
                seed=self.seed_base + run)
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise SpecError(f"spec must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise SpecError(f"unknown spec keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ResultSet:
    spec: ExperimentSpec
    reports: list[MetricsReport]
    mean_rank_curve: np.ndarray = field(repr=False)     # position-wise mean of sorted in-degrees
    per_node_mean_indegree: np.ndarray = field(repr=False)
    pooled_ccdf: list[tuple[int, float]] = field(repr=False, default_factory=list)
    scalar_stats: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "scalar_stats": self.scalar_stats,
            "mean_rank_curve": [round(float(v), 12) for v in self.mean_rank_curve],
            "per_node_mean_indegree": [round(float(v), 12)
                                       for v in self.per_node_mean_indegree],
            "pooled_ccdf": [[int(d), p] for d, p in self.pooled_ccdf],
            "runs": [r.to_dict() for r in self.reports],
        }


def _scalar_stats(reports: list[MetricsReport]) -> dict:
    out = {}
    for name in ("gini", "alpha_hat", "diameter", "avg_path_length", "avg_clustering"):
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if vals:
            arr = np.asarray(vals, dtype=float)
            out[name] = {"mean": float(arr.mean()),
                         "var": float(arr.var(ddof=1)) if len(arr) > 1 else 0.0,
                         "count": len(arr)}
    return out


def run_batch(spec: ExperimentSpec) -> ResultSet:
    """Execute spec.runs independent generations (seeds seed_base + r), compute
    per-run metrics, and aggregate. The mean rank curve averages sorted
    in-degree vectors position-wise; the per-node curve averages by node id
    (meaningful where id equals quality rank)."""
    reports: list[MetricsReport] = []
    indeg = np.empty((spec.runs, spec.n), dtype=np.int64)    # row r: run r's in-degrees
    for r in range(spec.runs):
        g = generate(spec.config_for_run(r))
        indeg[r] = g.degrees_snapshot()[0]
        reports.append(compute_report(g, xmin=spec.xmin, with_paths=spec.full_metrics))
    _, pooled_ccdf = degree_distribution(indeg.ravel())
    rs = ResultSet(
        spec=spec,
        reports=reports,
        mean_rank_curve=np.sort(indeg, axis=1)[:, ::-1].mean(axis=0),
        per_node_mean_indegree=indeg.mean(axis=0),
        pooled_ccdf=pooled_ccdf,
        scalar_stats=_scalar_stats(reports),
        provenance={
            "spec": spec.to_dict(),
            "seeds": [spec.seed_base + r for r in range(spec.runs)],
            "tool_version": __version__,
        },
    )
    return rs


@dataclass
class SweepRow:
    p: float
    gini_expected_curve: float      # Gini of the per-node mean in-degree curve
    gini_rank_curve: float          # Gini of the sorted mean rank curve
    gini_run_mean: float            # mean of per-run Gini values
    gini_run_sd: float
    result: ResultSet


def hybrid_sweep(spec: ExperimentSpec, p_values: list[float] | None = None) -> list[SweepRow]:
    """Per-p hybrid batches. The headline Gini is taken over the per-node mean
    in-degree curve (the empirical estimate of each node's expected in-degree);
    the sorted-curve and per-run Ginis are reported alongside."""
    ps = p_values if p_values is not None else spec.sweep
    if not ps:
        raise SpecError("hybrid_sweep requires p values (spec.sweep or p_values)")
    rows = []
    for p in ps:
        sub = ExperimentSpec(**{**spec.to_dict(), "model": "hybrid", "p": float(p),
                                "sweep": None})
        rs = run_batch(sub)
        run_ginis = np.array([r.gini for r in rs.reports])
        rows.append(SweepRow(
            p=float(p),
            gini_expected_curve=gini(rs.per_node_mean_indegree),
            gini_rank_curve=gini(rs.mean_rank_curve),
            gini_run_mean=float(run_ginis.mean()),
            gini_run_sd=float(run_ginis.std(ddof=1)) if len(run_ginis) > 1 else 0.0,
            result=rs,
        ))
    return rows


@dataclass
class ScalingRow:
    n: int
    mean_diameter: float | None     # None when no run at this size has a reachable pair
    mean_apl: float | None
    log2_n: float


def small_world_scaling(model: str, n_list: list[int], m_cap: int, runs: int,
                        seed_base: int = 0, density: float | None = None) -> list[ScalingRow]:
    """Mean diameter and APL per network size, with the log2(n) benchmark.
    Runs with no reachable pair are left out of the means."""
    if sorted(n_list) != list(n_list):
        raise SpecError("n_list must be ascending")
    rows = []
    for n in n_list:
        dens = density
        if model == "er_directed" and dens is None:
            dens = matched_er_density(n, m_cap)
        diams, apls = [], []
        for r in range(runs):
            cfg = FormationConfig(model=model, n=n, m_cap=m_cap,
                                  p=0.5 if model == "hybrid" else None,
                                  density=dens, seed=seed_base + r)
            diam, apl = path_stats(generate(cfg))
            if diam is not None:
                diams.append(diam)
                apls.append(apl)
        rows.append(ScalingRow(n=n,
                               mean_diameter=float(np.mean(diams)) if diams else None,
                               mean_apl=float(np.mean(apls)) if apls else None,
                               log2_n=math.log2(n)))
    return rows


class EmpiricalParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class EmpiricalResult:
    normalized_counts: np.ndarray = field(repr=False)   # descending
    gini: float = 0.0
    n: int = 0
    scale: float = 1.0


def empirical_ingest(text: str, target_mean: float) -> EmpiricalResult:
    """Parse follower counts (one per line, or "user_id,followers" rows; a
    single non-numeric header line is tolerated) and rescale so the mean count
    equals target_mean, a positive finite number. Gini is computed before
    scaling and is unchanged by it."""
    if not is_real(target_mean) or target_mean <= 0:
        raise ValueError(f"target_mean must be a positive finite number, got {target_mean!r}")
    counts: list[float] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        token = line.split(",")[-1].strip()
        try:
            value = float(token)
        except ValueError:
            if line_no == 1 and not counts:
                continue        # header row
            raise EmpiricalParseError(line_no, f"non-numeric count {token!r}") from None
        if not math.isfinite(value):
            raise EmpiricalParseError(line_no, f"non-finite count {token!r}")
        if value < 0:
            raise EmpiricalParseError(line_no, f"negative count {value}")
        counts.append(value)
    if not counts:
        raise EmpiricalParseError(1, "no follower counts found")
    arr = np.sort(np.asarray(counts))[::-1]
    total = arr.sum()
    if total == 0:
        raise EmpiricalParseError(1, "all counts are zero")
    scale = target_mean * len(arr) / total
    return EmpiricalResult(normalized_counts=arr * scale, gini=gini(arr),
                           n=len(arr), scale=float(scale))


# -- exports -----------------------------------------------------------------


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_results(rs: ResultSet, out_dir: str) -> list[str]:
    """Write metrics.json, rank_curve.csv, degree_ccdf.csv (and SVG charts when
    rs.spec.emit_plots is set) atomically. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "metrics.json")
    text = json.dumps(rs.to_dict(), allow_nan=False, indent=1, sort_keys=True)
    _atomic_write(path, text + "\n")
    written.append(path)

    lines = ["rank,mean_indegree"]
    lines += [f"{i},{v:.12g}" for i, v in enumerate(rs.mean_rank_curve, start=1)]
    path = os.path.join(out_dir, "rank_curve.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)

    lines = ["indegree,ccdf"]
    lines += [f"{d},{p:.12g}" for d, p in rs.pooled_ccdf]
    path = os.path.join(out_dir, "degree_ccdf.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)

    if rs.spec.emit_plots:
        curve = [(i, v) for i, v in enumerate(rs.mean_rank_curve, start=1)]
        path = os.path.join(out_dir, "rank_curve.svg")
        _atomic_write(path, loglog_svg(curve, "Mean in-degree vs rank",
                                       "rank", "mean in-degree"))
        written.append(path)
        path = os.path.join(out_dir, "degree_ccdf.svg")
        _atomic_write(path, loglog_svg([(d, p) for d, p in rs.pooled_ccdf],
                                       "In-degree CCDF", "in-degree", "P[D >= d]"))
        written.append(path)
    return written


def export_sweep(rows: list[SweepRow], out_dir: str) -> list[str]:
    """Write sweep_gini.csv plus a per-p rank curve file for each batch."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    lines = ["p,gini_expected_curve,gini_rank_curve,gini_run_mean,gini_run_sd"]
    for row in rows:
        lines.append(f"{row.p:g},{row.gini_expected_curve:.12g},"
                     f"{row.gini_rank_curve:.12g},{row.gini_run_mean:.12g},"
                     f"{row.gini_run_sd:.12g}")
        sub = ["rank,mean_indegree"]
        sub += [f"{i},{v:.12g}" for i, v in enumerate(row.result.mean_rank_curve, start=1)]
        path = os.path.join(out_dir, f"rank_curve_p{row.p:g}.csv")
        _atomic_write(path, "\n".join(sub) + "\n")
        written.append(path)
    path = os.path.join(out_dir, "sweep_gini.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)
    return written
