"""Output check applied to every timed run of a workload.

For the ``analyze`` workloads the report CSV and summary JSON must agree
with the independent reference: the same rejected ids for both procedures,
and pi0, group estimates and thresholds within ``RTOL`` relative.  Two
checks need no reference: BH recomputed from the report's own p-values
rejects the same ids, and every ``weighted_p`` equals ``p_value * weight``.
For the simulation the per-cell summaries must match the reference within
``RTOL``.  Each check returns a list of problems (empty when the run is
correct) and the SHA-256 digest of the output files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from operator import itemgetter

import numpy as np

from reference import bh

RTOL = 1e-9


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def check_analyze(workdir, exp: dict):
    report_path = workdir / "out.report.csv"
    summary_path = workdir / "out.summary.json"
    with open(report_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    with open(summary_path) as handle:
        summary = json.load(handle)
    problems = []

    ids = [r["id"] for r in rows]
    if ids != exp["ids"]:
        return ["report ids differ from the input ids"], digest((report_path, summary_path))
    for column in ("rejected_wfdr", "rejected_bh"):
        got = [r["id"] for r in rows if r[column] == "1"]
        if got != exp[column]:
            problems.append(f"{column}: {len(got)} ids, reference {len(exp[column])}")

    pvalues = np.array([float(r["p_value"]) for r in rows])
    _, bh_rejected = bh(pvalues, float(summary["flags"]["alpha"]))
    if [ids[i] for i in bh_rejected] != [r["id"] for r in rows if r["rejected_bh"] == "1"]:
        problems.append("BH recomputed from the report's p-values disagrees")
    for r in rows:
        if float(r["weighted_p"]) != float(r["p_value"]) * float(r["weight"]):
            problems.append(f"row {r['id']}: weighted_p != p_value * weight")
            break

    scalars = (
        ("pi0_g", summary["pi0_g"], exp["pi0_g"]),
        ("pi0_star", summary["pi0_star"], exp["pi0_star"]),
        ("wfdr.tau_alpha", summary["wfdr"]["tau_alpha"], exp["tau_alpha"]),
        ("bh.threshold", summary["bh"]["threshold"], exp["bh_threshold"]),
    )
    for name, got, want in scalars:
        if not _close(got, want):
            problems.append(f"{name} = {got!r}, reference {want!r}")
    if summary["groups"]["sizes"] != exp["group_sizes"]:
        problems.append(f"group sizes {summary['groups']['sizes']}, reference {exp['group_sizes']}")
    elif not all(map(_close, summary["groups"]["pi0"], exp["group_pi0"])):
        problems.append(f"group pi0 {summary['groups']['pi0']}, reference {exp['group_pi0']}")
    return problems, digest((report_path, summary_path))


CELL_FIELDS = ("fdr", "power", "fdp_std", "tdp_std", "mean_rejections",
               "pi0_star_mean", "pi0_g_mean")


def check_simulate(cells_path, exp: dict):
    with open(cells_path) as handle:
        cells = json.load(handle)
    problems = []
    key = itemgetter("l_star", "alpha", "procedure")
    got = {key(c): c for c in cells}
    if len(got) != len(exp["cells"]):
        problems.append(f"{len(got)} cells, reference {len(exp['cells'])}")
    for want in exp["cells"]:
        cell = got.get(key(want))
        if cell is None:
            problems.append(f"missing cell {key(want)}")
            continue
        for name in CELL_FIELDS:
            value = cell[name]
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"cell {key(want)}: {name} is {value}")
            elif not _close(value, want[name]):
                problems.append(f"cell {key(want)}: {name} = {value!r}, reference {want[name]!r}")
    return problems, digest((cells_path,))
