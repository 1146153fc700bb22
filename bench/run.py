"""netforge benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload library --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports netforge from its `src/`.
The workload's inputs come from `--seed`; the timed section is repeated while
another repetition is expected to end within `--seconds`, then an extra
untimed repetition runs the correctness checks (workloads.py). Every workload,
metric and unit is named in BENCHMARK.json at the checkout root.

--trace 0 reports the end-to-end metrics:
  setup_s       median over SETUP_PROBES fresh interpreters, one started
                before each of the first timed repetitions, of start,
                `import netforge` and one small call of every function the
                workload uses
  wall_per_cal  median over the timed repetitions of each one's wall time
                divided by the mean time of a fixed calibration task, which
                runs no netforge code, timed just before and just after it.
                The host's throughput swings by tens of percent over seconds
                to minutes, and the ratio cancels what the swing does to both;
                a change to netforge moves it as much as it moves wall time.
  peak_rss_mb   peak resident memory of this process after the timed repetitions
The uncalibrated median wall time, wall_s, is printed and recorded beside them.
--trace 1 alternates untraced and traced repetitions and reports, as means
over the traced ones, each layer's self time and counts (spans.py), the
benchmark's own remainder, the traced wall time and the tracing overhead.

Human-readable lines, including fail_ratio, come first; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. Each run also writes a record to .bench_results/ with the machine,
versions, source digest, thread settings, samples, check results and the
sha256 of every export (and, traced, the spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_results")
SETUP_PROBES = 5        # fresh interpreters timed for setup_s in one run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _load():
    """Import the benchmark's modules against the checkout's own netforge."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import netforge
    if os.path.dirname(os.path.abspath(netforge.__file__)) != os.path.join(src, "netforge"):
        raise ImportError(f"netforge imported from {netforge.__file__}, not {src}")
    import spans
    import workloads
    return spans, workloads


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(workloads) -> dict:
    import numpy
    import scipy
    sources = {path: digest for path, digest in
               workloads.export_digests(os.path.join(ROOT, "src")).items()
               if path.endswith(".py")}
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": workloads.combined_digest(sources),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"count": len(values), "q1": q[0], "median": statistics.median(values),
            "q3": q[2], "samples": values}


def _probe_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports netforge and warms up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _warm_up(wl, seed: int, work: str) -> None:
    """One small run of the workload: lazy imports and first calls."""
    warm = os.path.join(work, "warm")
    wl.run(wl.inputs(wl.tiny, seed, warm), _fresh(os.path.join(warm, "out")))


def _calibration_seconds() -> float:
    """Median time of a fixed task that runs no netforge code: an interpreter
    loop over a dict and a numpy sort, the two kinds of work the workloads do.
    Timed between repetitions, it gives the host's speed at that moment; the
    host's throughput swings by tens of percent over seconds to minutes."""
    import numpy as np
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(30_000):
            table[i & 1023] = total
            total += i * i
        np.arange(100_000)[::-1].copy().sort()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _timed_reps(args, wl, ctx: dict, out: str, tracer, checks, workloads):
    """Repeat the timed section while another repetition is expected to end by
    the deadline: with --trace 0 after a set-up probe the first SETUP_PROBES
    times and with a calibration before the first and after every
    repetition, with --trace 1 traced every other time. Returns set-up times,
    calibration times, wall times by traced flag, the per-layer metrics of each
    traced repetition and the export digests of every repetition."""
    setup, cals, walls = [], [], {False: [], True: []}
    layers, digests = [], []
    if not args.trace:
        cals.append(_calibration_seconds())
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while True:
        traced = bool(args.trace) and rep % 2 == 1
        probe = not args.trace and len(setup) < SETUP_PROBES
        if walls[traced]:
            expected = statistics.median(walls[traced])
            if probe:
                expected += statistics.median(setup)
            if time.perf_counter() + expected > deadline:
                break
        if probe:
            setup.append(_probe_seconds(args))
        _fresh(out)
        gc.collect()
        try:
            with tracer.installed(rep) if traced else nullcontext():
                start = time.perf_counter()
                wl.run(ctx, out)
                wall = time.perf_counter() - start
        except Exception as exc:        # the program raised: report it, stop timing
            checks.expect(False, f"repetition {rep} raised {type(exc).__name__}: {exc}")
            break
        walls[traced].append(wall)
        if not args.trace:
            cals.append(_calibration_seconds())
        if traced:
            layers.append(tracer.layer_metrics(rep, wall))
        digests.append(workloads.export_digests(out))
        rep += 1
    return setup, cals, walls, layers, digests


def _measure(args, wl, spans, workloads, work: str, spec: dict) -> int:
    ctx = wl.inputs(wl.full, args.seed, work)
    _warm_up(wl, args.seed, work)

    out = os.path.join(work, "out")
    checks = workloads.Checks()
    tracer = spans.Tracer()
    origin = time.perf_counter()
    setup, cals, walls, layers, digests = _timed_reps(args, wl, ctx, out, tracer, checks,
                                                workloads)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if not walls[False] or (args.trace and not walls[True]):
        print(f"error: {checks.failures[-1]}", file=sys.stderr)
        return 1
    checked = workloads.checked_run(wl, ctx, _fresh(out), checks)
    checks.expect(checked is not None and all(d == checked for d in digests),
                  f"exports identical across {len(digests)} timed repetitions "
                  "and the checked one")

    if args.trace:
        untraced, traced = statistics.fmean(walls[False]), statistics.fmean(walls[True])
        values = {name: statistics.fmean(m.get(name, 0.0) for m in layers)
                  for name in spec["per_layer"]}
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - untraced
        names = spec["per_layer"]
    else:
        per_cal = [wall * 2 / (before + after)
                   for wall, before, after in zip(walls[False], cals, cals[1:])]
        values = {"setup_s": statistics.median(setup),
                  "wall_per_cal": statistics.median(per_cal),
                  "peak_rss_mb": peak_mb}
        names = spec["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    fail_ratio = len(checks.failures) / checks.attempted

    record = {
        "workload": wl.name, "why": spec["why"][wl.name], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "params": wl.full,
        "provenance": _provenance(workloads), "metrics": metrics,
        "wall_s": _quartiles(walls[False]),
        "checks": {"attempted": checks.attempted, "failures": checks.failures,
                   "fail_ratio": fail_ratio},
        "exports": {"sha256": workloads.combined_digest(digests[0]), "files": digests[0]},
    }
    if args.trace:
        record["traced_wall_s"] = _quartiles(walls[True])
    else:
        record["setup_s"] = _quartiles(setup)
        record["calibration_s"] = _quartiles(cals)
        record["wall_per_cal"] = _quartiles(per_cal)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.records(origin):
                fh.write(json.dumps(span) + "\n")

    print(f"workload {wl.name}, seed {args.seed}: {len(walls[False])} untraced"
          + (f" and {len(walls[True])} traced" if args.trace else "")
          + f" repetitions in {time.perf_counter() - origin:.1f} s")
    samples = {"setup_s": f"median of {len(setup)} fresh interpreters",
               "wall_per_cal": f"median of {len(walls[False])} repetitions"}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} {samples.get(name, '')}")
    print(f"  {'wall_s':34s} {statistics.median(walls[False]):14.6g} {'s':6s} "
          f"median of {len(walls[False])} untraced repetitions, not calibrated")
    print(f"  {'fail_ratio':34s} {fail_ratio:14.6g} {'ratio':6s} "
          f"{len(checks.failures)} failed of {checks.attempted} checks")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(f"  exports sha256 {record['exports']['sha256']}")
    print(f"  record {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:             # before numpy is first imported
        os.environ[var] = "1"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {"why": {w["name"]: w["why"] for w in bench["workloads"]},
            "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["why"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        spans, workloads = _load()
    except ImportError as exc:
        print(f"error: cannot import netforge from this checkout: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        if args.probe:
            _warm_up(wl, args.seed, work)
            return 0
        return _measure(args, wl, spans, workloads, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
