"""One cold run of a workload in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON [--trace] [--import-only]

Imports the package from the checkout's ``src`` (the import is timed as
set-up, between two runs of a fixed pure-Python calibration), runs the
workload described by SPEC_JSON in the current directory with one worker,
and writes its wall time, the time of a fixed calibration computation run
just before and just after it, the peak RSS (and the RSS reached before the
workload started) and the exit code to RESULT_JSON.  With ``--trace`` the
run is traced and the per-layer metrics and spans are written as well.
"""

import os
import sys
import time


def calibrate_python() -> float:
    """Wall time of a fixed pure-Python computation (string formatting, dict
    updates, calls), the interpreter work an import does; it needs no module
    that the timed import would load."""
    start = time.perf_counter()
    table = {}
    for i in range(100_000):
        key = f"attr_{i % 4000}"
        table[key] = table.get(key, 0) + len(key)
    return time.perf_counter() - start


SETUP_CAL_S = [calibrate_python()]
_start = time.perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import discrete_fdr.cli  # noqa: E402  (the entry module; its import is the set-up)

IMPORT_S = time.perf_counter() - _start
SETUP_CAL_S.append(calibrate_python())

import dataclasses  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

import discrete_fdr  # noqa: E402
from discrete_fdr import simulate  # noqa: E402

import tracing  # noqa: E402


def _scenario(fields: dict) -> simulate.ScenarioConfig:
    return simulate.ScenarioConfig(
        family=simulate.Family(fields["family"]),
        m=fields["m"],
        pi0=fields["pi0"],
        alpha_grid=tuple(fields["alpha_grid"]),
        l_star_grid=tuple(fields["l_star_grid"]),
        replications=fields["replications"],
        master_seed=fields["master_seed"],
    )


def calibrate() -> float:
    """Wall time of a fixed computation mixing the three kinds of work the
    workloads do: pure-Python loops (the pairwise distances of analyze-metric),
    interpreter-bound small-array calls (the pi0 loop of sim-poisson) and sorts
    of arrays the size of an exact test's outcome range (analyze-safety).  Its
    arrays take a few hundred KB."""
    start = time.perf_counter()
    for _ in range(6):
        calibrate_python()
    support = np.arange(200.0)
    taus = np.linspace(0.0, 0.2, 401)
    total = np.zeros(taus.size)
    for _ in range(24000):
        total += np.searchsorted(support, taus, side="right")
    values = np.random.default_rng(0).random(20_000)
    for _ in range(800):
        np.sort(values)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started, in MB.  Read from VmHWM
    rather than ru_maxrss, which after exec keeps the high-water mark of the
    parent process this one was forked from."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    spec_path, result_path = argv[0], argv[1]
    if not os.path.abspath(discrete_fdr.__file__).startswith(SRC + os.sep):
        print(f"discrete_fdr imported from {discrete_fdr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = {"import_s": IMPORT_S, "setup_cal_s": SETUP_CAL_S}
    if "--import-only" in argv:
        with open(result_path, "w") as handle:
            json.dump(result, handle)
        return 0

    with open(spec_path) as handle:
        spec = json.load(handle)
    tracer = tracing.Tracer() if "--trace" in argv else None
    if tracer is not None:
        tracing.install_probes(tracer, discrete_fdr)

    cal_before = calibrate()
    rss_before_mb = peak_rss_mb()
    if spec["kind"] == "simulate":
        cfg = _scenario(spec["scenario"])
        start = time.perf_counter()
        study = simulate.run_study(cfg, workers=1)
        wall = time.perf_counter() - start
        code = 0
        outputs = ["cells.json"]
        with open(outputs[0], "w") as handle:
            json.dump([dataclasses.asdict(c) for c in study.cells], handle,
                      sort_keys=True, indent=1)
            handle.write("\n")
    else:
        start = time.perf_counter()
        code = discrete_fdr.cli.main(spec["argv"])
        wall = time.perf_counter() - start
        prefix = spec["argv"][spec["argv"].index("--output") + 1]
        outputs = [f"{prefix}.report.csv", f"{prefix}.summary.json"]

    peak_mb = peak_rss_mb()
    result.update(
        wall_s=wall,
        cal_s=[cal_before, calibrate()],
        peak_rss_mb=peak_mb,
        rss_before_mb=rss_before_mb,
        exit_code=code,
        outputs=outputs,
    )
    if tracer is not None:
        tracer.uninstall()
        written = sum(os.path.getsize(p) for p in outputs
                      if spec["kind"] == "cli" and os.path.exists(p))
        result["layers"] = tracing.layer_metrics(tracer, written)
        result["layer_self"] = tracer.self_times("layer")
        result["missing_probes"] = tracer.missing
        result["spans"] = tracer.spans
        result["leaves"] = tracer.leaves
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
