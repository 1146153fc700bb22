"""Batch orchestration: seeded Monte Carlo runs, parameter sweeps, empirical
CSV ingestion, aggregation, and atomic exports.

Run r of a batch uses seed_base + r, so a batch is fully determined by its
spec and identical specs produce byte-identical exports.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .formation import FormationConfig, _python_numbers, generate, is_real
from .graph import check_range
from .lines import digit_runs, rint_scaled, row_slices, scan_lines
from .metrics import (DEFAULT_XMIN, MetricsReport, compute_report,
                      degree_distribution, degree_report, gini, path_stats)
from .plotting import loglog_svg


class SpecError(ValueError):
    """Invalid ExperimentSpec (bad value or unknown key)."""


@dataclass(frozen=True)
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
        check_range(SpecError, "runs", self.runs, 1, None)
        check_range(SpecError, "seed_base", self.seed_base, 0, None)
        check_range(SpecError, "xmin", self.xmin, 1)
        for name in ("emit_plots", "full_metrics"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SpecError(f"{name} must be true or false, got {value!r}")
        if self.sweep is not None:
            if not (isinstance(self.sweep, list) and self.sweep and all(map(is_real, self.sweep))):
                raise SpecError("sweep must be null or a non-empty list of numbers,"
                                f" got {self.sweep!r}")
            if self.model != "hybrid":
                raise SpecError(f"sweep requires model 'hybrid', got {self.model!r}")
            labels = [_label(batch.p) for batch in self._batches()]
            if len(set(labels)) < len(labels):
                raise SpecError(f"sweep p values must have distinct labels, got {labels}")
        # FormationConfig checks the model parameters; a sweep spec may leave p unset
        if self.p is not None or self.sweep is None:
            self.config_for_run(0)
        _python_numbers(self)

    def _batches(self) -> list[ExperimentSpec]:
        """The batch spec of each sweep value, in sweep order; + 0.0 makes a
        -0 the value 0."""
        return [replace(self, p=float(p) + 0.0, sweep=None) for p in self.sweep]

    def config_for_run(self, run: int) -> FormationConfig:
        try:
            return FormationConfig(
                model=self.model, n=self.n, m_cap=self.m_cap, p=self.p,
                density=self.density, seed=self.seed_base + run)
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
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(d)
        if missing:
            raise SpecError(f"missing spec keys: {sorted(missing)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)    # holds arrays: == is identity
class ResultSet:
    spec: ExperimentSpec
    reports: list[MetricsReport]     # report r: run r, with its in-degree vector

    @property
    def indegrees(self) -> np.ndarray:
        """(runs, n) int64, row r: run r's in-degrees; a new read-only matrix
        stacked from the reports on each call."""
        matrix = np.stack([r.indegree for r in self.reports])
        matrix.flags.writeable = False
        return matrix

    @property
    def mean_rank_curve(self) -> np.ndarray:
        """Position-wise mean of the runs' sorted (descending) in-degrees."""
        return np.sort(self.indegrees, axis=1)[:, ::-1].mean(axis=0)

    @property
    def per_node_mean_indegree(self) -> np.ndarray:
        """Mean in-degree of each node id (its quality rank in the merit models)."""
        return self.indegrees.mean(axis=0)

    @property
    def pooled_ccdf(self) -> list[tuple[int, float]]:
        """In-degree CCDF over all runs' nodes together."""
        return degree_distribution(self.indegrees.ravel())[1]

    @property
    def scalar_stats(self) -> dict:
        """Mean, variance and count of each per-run scalar over the runs that report it."""
        out = {}
        for name in ("gini", "alpha_hat", "diameter", "avg_path_length", "avg_clustering"):
            vals = [getattr(r, name) for r in self.reports if getattr(r, name) is not None]
            if vals:
                arr = np.asarray(vals, dtype=float)
                out[name] = {"mean": float(arr.mean()),
                             "var": float(arr.var(ddof=1)) if len(arr) > 1 else 0.0,
                             "count": len(arr)}
        return out

    @property
    def provenance(self) -> dict:
        """The spec, the run seeds and the tool version that produced the batch."""
        return {"spec": self.spec.to_dict(),
                "seeds": [self.spec.seed_base + r for r in range(self.spec.runs)],
                "tool_version": __version__}

    def to_dict(self) -> dict:
        # both curves follow from the runs' in-degree vectors; the CSVs carry them
        return {
            "provenance": self.provenance,
            "scalar_stats": self.scalar_stats,
            "per_node_mean_indegree": _round12(self.per_node_mean_indegree),
            "runs": [r.to_dict() for r in self.reports],
        }


def _label(p: float) -> str:
    """A sweep value as its file names and its sweep_gini.csv row write it."""
    return f"{p:g}"


def _map_runs(spec: ExperimentSpec, per_graph) -> list:
    """per_graph(graph) for each run of spec, in run order, where run r's
    graph is drawn with seed seed_base + r: the one loop over a batch's runs."""
    return [per_graph(generate(spec.config_for_run(r))) for r in range(spec.runs)]


def _round12(values: np.ndarray) -> list[float]:
    """[round(v, 12) for v in values.tolist()], bit for bit: round gives the
    float nearest the decimal r / 10**12, where r is the integer nearest
    v * 10**12. Where lines.rint_scaled proves r, r and 1e12 are exact
    floats, so the division r / 1e12 rounds to that same float; any other
    value goes through round."""
    r, proven = rint_scaled(values, 1e12)
    out = r / 1e12
    other = np.flatnonzero(~proven)
    out[other] = [round(v, 12) for v in values[other].tolist()]
    return out.tolist()


def run_batch(spec: ExperimentSpec) -> ResultSet:
    """Execute spec.runs independent generations (seeds seed_base + r) and
    compute each run's report, which keeps the run's in-degree vector; the
    ResultSet derives its curves from those. A spec with a sweep is run by
    hybrid_sweep."""
    if spec.sweep is not None:
        raise SpecError("run_batch runs one batch; a spec with a sweep needs hybrid_sweep"
                        " (netforge sweep)")
    return ResultSet(spec=spec, reports=_map_runs(spec, lambda g: compute_report(
        g, xmin=spec.xmin, with_paths=spec.full_metrics)))


@dataclass(eq=False)    # holds a ResultSet: == is identity
class SweepRow:
    p: float
    gini_expected_curve: float      # Gini of the per-node mean in-degree curve
    gini_rank_curve: float          # Gini of the sorted mean rank curve
    gini_run_mean: float            # mean of per-run Gini values
    gini_run_sd: float
    result: ResultSet


def hybrid_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """One hybrid batch per spec.sweep value, run as run_batch would run it
    (seeds seed_base + r), but each run's report holds its in-degree facts
    only (metrics.degree_report): a sweep row reads nothing else, so no
    clustering or path statistics are computed, whatever spec.full_metrics
    says. The headline Gini is taken over the per-node mean in-degree curve
    (the empirical estimate of each node's expected in-degree); the
    sorted-curve and per-run Ginis are reported alongside."""
    if spec.sweep is None:
        raise SpecError("hybrid_sweep requires a non-empty spec.sweep")
    rows = []
    for batch in spec._batches():
        rs = ResultSet(spec=batch, reports=_map_runs(
            batch, lambda g: degree_report(g.in_degree, xmin=spec.xmin)))
        run_gini = rs.scalar_stats["gini"]
        rows.append(SweepRow(
            p=batch.p,
            gini_expected_curve=gini(rs.per_node_mean_indegree),
            gini_rank_curve=gini(rs.mean_rank_curve),
            gini_run_mean=run_gini["mean"],
            gini_run_sd=math.sqrt(run_gini["var"]),
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
    Each size runs the batch spec of (model, n, m_cap, density, runs, seed_base).
    Runs with no reachable pair are left out of the means."""
    if sorted(n_list) != list(n_list):
        raise SpecError("n_list must be ascending")
    rows = []
    for n in n_list:
        spec = ExperimentSpec(model=model, n=n, m_cap=m_cap, density=density, runs=runs,
                              seed_base=seed_base)
        reached = [s for s in _map_runs(spec, path_stats) if s.diameter is not None]
        diam, apl = (float(np.mean(v)) for v in zip(*reached)) if reached else (None, None)
        rows.append(ScalingRow(n=spec.n, mean_diameter=diam, mean_apl=apl,
                               log2_n=math.log2(n)))
    return rows


class EmpiricalParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(eq=False)    # holds arrays: == is identity
class EmpiricalResult:
    normalized_counts: np.ndarray = field(repr=False)   # descending
    gini: float
    n: int
    scale: float


def _regular_counts(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """scan_lines rule for the lines whose last comma-separated field (the
    whole line when it has no comma) is all digits: (read, (1, lines) counts)."""
    counts, first = digit_runs(data, ends)
    read = (first < ends) & ((first == starts) | (data[first - 1] == ord(",")))
    return read, counts.astype(np.float64)[None]


def _count_line(line_no: int, raw: str) -> tuple[float] | None:
    """scan_lines rule for any other line: its count, or None for a blank
    line or a non-numeric header on line 1."""
    line = raw.strip()
    if not line:
        return None
    token = line.split(",")[-1].strip()
    try:
        value = float(token)
    except ValueError:
        if line_no == 1:
            return None         # header row
        raise EmpiricalParseError(line_no, f"non-numeric count {token!r}") from None
    if not math.isfinite(value):
        raise EmpiricalParseError(line_no, f"non-finite count {token!r}")
    if value < 0:
        raise EmpiricalParseError(line_no, f"negative count {value}")
    return (value or 0.0,)      # "-0" is the count 0, not -0.0


def empirical_ingest(text: str, target_mean: float) -> EmpiricalResult:
    """Parse follower counts (one per line, or "user_id,followers" rows; a
    single non-numeric header line is tolerated) and rescale so the mean count
    equals target_mean, a positive finite number. Gini is computed before
    scaling and is unchanged by it. Input whose total, Gini, scale or rescaled
    counts would overflow float64 raises ValueError."""
    if not is_real(target_mean) or target_mean <= 0:
        raise ValueError(f"target_mean must be a positive finite number, got {target_mean!r}")
    (counts,), _ = scan_lines(text, _regular_counts, _count_line)
    if not len(counts):
        raise EmpiricalParseError(1, "no follower counts found")
    arr = np.sort(counts)[::-1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            total = arr.sum()
            if total == 0:
                raise EmpiricalParseError(1, "all counts are zero")
            scale = np.float64(target_mean) * len(arr) / total
            return EmpiricalResult(normalized_counts=arr * scale, gini=gini(arr),
                                   n=len(arr), scale=float(scale))
    except FloatingPointError:
        raise ValueError("counts or target_mean out of float range: the total, Gini,"
                         " scale or rescaled counts overflow") from None


# -- exports -----------------------------------------------------------------


def _write_out(path: str | None, data) -> str | None:
    """Write data, a str or an iterable of byte slices, to path, or to
    sys.stdout when path is None or "": a str as it is, each slice decoded
    as it comes. A file is written as UTF-8 through a temporary file and a
    rename, and gets the mode open(path, "w") would leave: a replaced file
    keeps its mode, a new one gets 0o666 less the umask. When data raises,
    path is left as it was and the temporary file is removed. Returns path."""
    if not path:
        sys.stdout.writelines([data] if isinstance(data, str) else map(bytes.decode, data))
        return path
    if isinstance(data, str):
        data = [data.encode("utf-8")]
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)    # the umask applies
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(data)
        try:
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _write_csv(path: str | None, header: str, *columns) -> str | None:
    """Write the header line and then the rows of the columns, slice by
    slice (see lines.row_slices), through _write_out: to path, or to
    sys.stdout when path is None. Returns path."""
    return _write_out(path, itertools.chain([(header + "\n").encode("utf-8")],
                                            row_slices(columns)))


def _json_text(obj) -> str:
    """obj as sorted JSON indented by one space, with a final newline; NaN
    and infinities are an error."""
    return json.dumps(obj, allow_nan=False, indent=1, sort_keys=True) + "\n"


def _metrics_json(d: dict) -> str:
    """_json_text(d) for a ResultSet.to_dict() object, with its longest list,
    per_node_mean_indegree, joined in one call: json writes a finite float as
    float.__repr__, and the key sorts first, so the list opens the text."""
    values = d["per_node_mean_indegree"]
    if not all(map(math.isfinite, values)):
        raise ValueError("Out of range float values are not JSON compliant")
    text = _json_text({**d, "per_node_mean_indegree": []})
    if values:
        head = '{\n "per_node_mean_indegree": ['
        text = (head + "\n  " + ",\n  ".join(map(float.__repr__, values)) + "\n ]"
                + text[len(head) + 1:])
    return text


def export_results(rs: ResultSet, out_dir: str) -> list[str]:
    """Write metrics.json, rank_curve.csv, degree_ccdf.csv (and SVG charts when
    rs.spec.emit_plots is set) atomically. Returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    curve = rs.mean_rank_curve
    ranks = np.arange(1, len(curve) + 1)
    degrees, ccdf = (np.array(c) for c in zip(*rs.pooled_ccdf))
    written = [_write_out(os.path.join(out_dir, "metrics.json"), _metrics_json(rs.to_dict())),
               _write_csv(os.path.join(out_dir, "rank_curve.csv"), "rank,mean_indegree",
                          ranks, curve),
               _write_csv(os.path.join(out_dir, "degree_ccdf.csv"), "indegree,ccdf",
                          degrees, ccdf)]
    if rs.spec.emit_plots:
        written += [
            _write_out(os.path.join(out_dir, "rank_curve.svg"),
                       loglog_svg(ranks, curve, "Mean in-degree vs rank", "rank",
                                  "mean in-degree")),
            _write_out(os.path.join(out_dir, "degree_ccdf.svg"),
                       loglog_svg(degrees, ccdf, "In-degree CCDF", "in-degree",
                                  "P[D >= d]"))]
    return written


def export_sweep(rows: list[SweepRow], out_dir: str) -> list[str]:
    """Write sweep_gini.csv, a per-p rank curve file for each batch and
    provenance.json, the list of each batch's provenance (full-precision p)."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for row in rows:
        curve = row.result.mean_rank_curve
        written.append(_write_csv(os.path.join(out_dir, f"rank_curve_p{_label(row.p)}.csv"),
                                  "rank,mean_indegree", np.arange(1, len(curve) + 1), curve))
    written.append(_write_out(
        os.path.join(out_dir, "sweep_gini.csv"),
        "p,gini_expected_curve,gini_rank_curve,gini_run_mean,gini_run_sd\n"
        + "".join("%s,%.12g,%.12g,%.12g,%.12g\n" % (
            _label(row.p), row.gini_expected_curve, row.gini_rank_curve, row.gini_run_mean,
            row.gini_run_sd) for row in rows)))
    written.append(_write_out(os.path.join(out_dir, "provenance.json"),
                              _json_text([row.result.provenance for row in rows])))
    return written
