"""Seeded benchmark of the weighted-FDR pipeline.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim-poisson, analyze-safety, analyze-metric (see workloads.py).
The run generates the workload's inputs from the seed, computes the
expected results with the independent reference, then starts one cold
interpreter per timed run until ``--seconds`` are used up.  Each timed run
reports the import time of the package's entry module and, separately, the
wall time of the workload itself (``wall_s``).  Every timed run
is checked against the reference; a crash, a non-zero exit or a failed
check counts as a failed operation.

Each timed run also times a fixed calibration computation right before
and after the workload; ``wall_norm`` is the workload's wall time divided
by the calibration's, which cancels most of the host's speed drift.
``setup_s`` is normalised the same way: the import time is divided by the
time of a fixed pure-Python calibration run just before and after the
import, and multiplied by SETUP_CAL_REF_S, so it reads as the import time on
a host where that calibration takes SETUP_CAL_REF_S seconds.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json (``wall_s`` and ``hyp_per_s`` are printed, not bounded).
With ``--trace 1`` traced and untraced runs alternate and the last line
reports the per-layer metrics, including the tracing overhead; the spans
of the last traced run are written to
``.bench_out/trace-<workload>-<seed>.json``.  Everything else the run
writes lives in ``.bench_work/`` and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "discrete_fdr" / "__init__.py"
CHILD_TIMEOUT_S = 120
SETUP_CAL_REF_S = 0.05
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Counts the reference gives as a ceiling: the full outcome range of each
# distinct statistic, of which an exact test may enumerate only a part.
UPPER_BOUNDS = {"exact_tests.outcomes"}
E2E_UNITS = {"wall_s": "s", "wall_norm": "ratio", "hyp_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _child(workdir: Path, *flags) -> tuple[dict | None, str]:
    """Run bench/child.py in ``workdir``; return its result and any error."""
    env = dict(os.environ, DISCRETE_FDR_WORKERS="1", **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "spec.json", result_path.name, *flags],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    with open(result_path) as handle:
        return json.load(handle), ""


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def _run(args, config: dict, workdir: Path) -> dict:
    import numpy
    import scipy

    print(f"benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} commit={_git_commit()}")

    spec = workloads.generate(args.workload, args.seed, workdir)
    with open(workdir / "spec.json", "w") as handle:
        json.dump(spec, handle)
    start = time.perf_counter()
    exp = reference.expected(spec, workdir)
    print(f"inputs: m={spec['m']} replications={spec['replications']} "
          f"(reference computed in {time.perf_counter() - start:.2f} s)")

    # The first import of a checkout may compile bytecode: a warm-up, untimed.
    res, err = _child(workdir, "--import-only")
    if res is None:
        raise RuntimeError(f"import of the package failed: {err}")

    samples = []
    deadline = time.monotonic() + args.seconds
    min_samples = 2 if args.trace else 1
    last = 0.0
    while len(samples) < min_samples or time.monotonic() + last <= deadline:
        traced = bool(args.trace) and len(samples) % 2 == 1
        began = time.monotonic()
        res, err = _child(workdir, *(["--trace"] if traced else []))
        last = time.monotonic() - began
        sample = {"traced": traced, "result": res, "problems": [err] if err else []}
        if res is not None:
            if res["exit_code"] != 0:
                sample["problems"].append(f"program exit code {res['exit_code']}")
            elif spec["kind"] == "simulate":
                problems, sample["digest"] = check.check_simulate(workdir / "cells.json", exp)
                sample["problems"] += problems
            else:
                problems, sample["digest"] = check.check_analyze(workdir, exp)
                sample["problems"] += problems
        samples.append(sample)
        tag = "traced" if traced else "timed"
        if res is None:
            print(f"run {len(samples)} ({tag}): FAILED {err}")
        else:
            status = "ok" if not sample["problems"] else "FAILED " + "; ".join(sample["problems"])
            print(f"run {len(samples)} ({tag}): wall {res['wall_s']:.4f} s, "
                  f"calibration {res['cal_s'][0]:.4f}/{res['cal_s'][1]:.4f} s, "
                  f"peak rss {res['peak_rss_mb']:.1f} MB "
                  f"({res['rss_before_mb']:.1f} MB before the workload), {status}")

    digests = {s.get("digest") for s in samples if s.get("digest")}
    if len(digests) > 1:
        for s in samples:
            if s.get("digest") and s["digest"] != samples[0].get("digest"):
                s["problems"].append("output differs from the first run's")
    for d in sorted(digests):
        print(f"output digest: sha256 {d}")

    measured = [s for s in samples if s["result"] is not None]
    if not measured:
        raise RuntimeError("no run of the workload completed")
    untraced = [s["result"] for s in measured if not s["traced"]]
    traced = [s["result"] for s in measured if s["traced"]]
    failed = sum(1 for s in samples if s["problems"])
    walls = [r["wall_s"] for r in untraced]
    wall = statistics.median(walls)
    # Wall time over the time of a fixed computation run in the same process
    # just before and after the workload: the host's speed drifts by tens of
    # percent over minutes, and the ratio cancels most of that drift.
    norm = [r["wall_s"] / statistics.fmean(r["cal_s"]) for r in untraced]
    imports = [r["import_s"] for r in untraced]
    setups = [r["import_s"] / statistics.fmean(r["setup_cal_s"]) * SETUP_CAL_REF_S
              for r in untraced]
    e2e = {
        "wall_s": wall,
        "wall_norm": statistics.median(norm),
        "hyp_per_s": spec["m"] * spec["replications"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        # every run starts a fresh interpreter, so each one times a set-up
        "setup_s": statistics.median(setups),
    }
    print(f"wall_s: {_spread(walls)} untraced runs")
    print(f"import of discrete_fdr.cli: {_spread(imports)} fresh interpreters, "
          f"median {statistics.median(imports):.4f} s raw")
    print(f"setup_s: {_spread(setups)} normalised imports")
    print(f"failed_frac = {failed}/{len(samples)} = {failed / len(samples):.4f}")
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {E2E_UNITS[name]}")

    correct = failed == 0
    report = {"correct": correct, "attempted": len(samples), "failed": failed}
    if not args.trace:
        report["metrics"] = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                             for m in config["end_to_end"]}
        return report

    if not traced:
        raise RuntimeError("no traced run of the workload completed")
    layers, counts_ok = _layer_metrics(config, traced, untraced, exp)
    report["correct"] = correct and counts_ok
    report["metrics"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                         for m in config["per_layer"]}
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{args.workload}-{args.seed}.json"
    with open(trace_path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": {k: layers[k] for k in sorted(layers)},
                   "leaves": traced[-1]["leaves"], "spans": traced[-1]["spans"]},
                  handle, indent=1)
    print(f"spans of the last traced run: {trace_path.relative_to(ROOT)}")
    return report


def _layer_metrics(config, traced, untraced, exp) -> tuple[dict, bool]:
    """Per-layer metrics from the traced runs: medians of times, and counts
    that must repeat exactly across runs and match the reference's.  The
    flag is False when a count does not."""
    ok = True
    missing = sorted({p for r in traced for p in r["missing_probes"]})
    if missing:
        print(f"not traced (attribute absent): {', '.join(missing)}")
    names = [m["name"] for m in config["per_layer"] if m["name"] != "trace.overhead_s"]
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    out = {}
    for name in names:
        values = [r["layers"][name] for r in traced]
        if units[name] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"CHECK FAILED: {name} differs between traced runs: {values}")
                ok = False
    for name, want in exp["counts"].items():
        got = out.get(name)
        if name in UPPER_BOUNDS:
            if got is None or got > want:
                print(f"CHECK FAILED: {name} = {got}, at most {want} from the inputs")
                ok = False
        elif got != want:
            print(f"CHECK FAILED: {name} = {got}, expected {want} from the inputs")
            ok = False
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in untraced))

    self_s = {layer: statistics.median(r["layer_self"].get(layer, 0.0) for r in traced)
              for layer in tracing.LAYERS}
    print(f"per-layer self time (median of {len(traced)} traced runs):")
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:9.4f} s")
    print(f"largest self time: {max(self_s, key=self_s.get)}")
    print(f"tracing overhead: {out['trace.overhead_s']:+.4f} s on an untraced "
          f"wall of {statistics.median(r['wall_s'] for r in untraced):.4f} s")
    for m in config["per_layer"]:
        print(f"metric {m['name']} = {out[m['name']]:.6g} {m['unit']}")
    return out, ok


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE.relative_to(ROOT)} not found; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        config = json.load(handle)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        report = _run(args, config, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
