"""Command-line interface: analyze a count table or run a simulation study.

``discrete-fdr analyze`` reads a delimited count table, runs the weighted
procedure and/or the BH baseline, and writes a per-hypothesis report plus a
JSON summary.  ``discrete-fdr simulate`` runs the Monte Carlo harness and
writes its long-format table plus a JSON summary.  Exit codes: 0 success,
2 usage, 3 schema error, 4 parse error, 5 compute, IO or memory error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .errors import DiscreteFdrError, ParseError, SchemaError
from .exact_tests import Sidedness
from .io import MAX_COUNT, FilterRule, apply_filter, parse_counts_csv, score_input
from .proportion import (
    BINOMIAL_PI0_CONFIG,
    FET_PI0_CONFIG,
    Pi0Config,
    estimate_pi0,
)
from .simulate import Family, ScenarioConfig, run_study
from .wfdr import WfdrConfig, bh_reject, weight_study

EXIT_OK = 0
EXIT_SCHEMA = 3
EXIT_PARSE = 4
EXIT_COMPUTE = 5


def _jsonable(value):
    """Make a value JSON-serialisable; non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    return value


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sidedness(flag: str) -> Sidedness:
    return Sidedness.ONE_SIDED if flag == "one" else Sidedness.TWO_SIDED


def _parse_study_totals(raw: str | None) -> tuple[int, int] | None:
    if raw is None:
        return None
    try:
        cases, events = (int(part) for part in raw.split(","))
    except ValueError:
        raise SchemaError(
            f"--study-totals expects CASES,EVENTS integers, got {raw!r}"
        ) from None
    if max(cases, events) > MAX_COUNT:
        raise SchemaError(f"--study-totals must not exceed {MAX_COUNT}, got {raw!r}")
    return cases, events


def _add_analyze_parser(subparsers) -> None:
    p = subparsers.add_parser("analyze", help="run procedures on a count table")
    p.add_argument("--test", choices=("binomial", "fet"), required=True)
    p.add_argument("--sided", choices=("one", "two"), default="two")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--groups", type=int, required=True,
                   help="number of groups for the weighted procedure")
    p.add_argument("--grouping", choices=("metric", "quantile"), default="quantile")
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True,
                   help="output prefix; writes PREFIX.report.csv and PREFIX.summary.json")
    p.add_argument("--procedure", choices=("wfdr", "bh", "all"), default="all")
    p.add_argument("--study-totals", default=None, metavar="CASES,EVENTS",
                   help="fet only: derive the complement row from study-wide totals")
    p.add_argument("--min-total", type=int, default=None,
                   help="keep rows with c1+c2 strictly greater than this")
    p.add_argument("--max-per-cell", type=int, default=None,
                   help="keep rows with each count at most this")


def _add_simulate_parser(subparsers) -> None:
    p = subparsers.add_parser("simulate", help="run the Monte Carlo harness")
    p.add_argument("--family", choices=("poisson", "binomial"), required=True,
                   help="poisson: Poisson pairs + binomial test; "
                        "binomial: binomial pairs + Fisher's exact test")
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--pi0", type=float, action="append", default=None)
    p.add_argument("--alpha", type=float, action="append", default=None)
    p.add_argument("--l-star", type=int, action="append", default=None)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True,
                   help="output prefix; writes PREFIX.csv and PREFIX.json")


def _pi0_config(args, family: str) -> Pi0Config:
    default = BINOMIAL_PI0_CONFIG if family == "binomial" else FET_PI0_CONFIG
    lambda_max = args.lambda_max if args.lambda_max is not None else default.lambda_max
    step = args.step if args.step is not None else default.step
    return Pi0Config(lambda_max=lambda_max, step=step)


def _analyze(args) -> int:
    study = parse_counts_csv(
        args.input, args.test, study_totals=_parse_study_totals(args.study_totals)
    )
    m_input = study.m
    if args.min_total is not None or args.max_per_cell is not None:
        rule = FilterRule(
            min_total=args.min_total or 0,
            max_per_cell=args.max_per_cell if args.max_per_cell is not None else math.inf,
        )
        study = apply_filter(study, rule)
    if study.m == 0:
        raise SchemaError("no rows left to analyze after filtering")

    sided = _sidedness(args.sided)
    pvalues, supports, stats = score_input(
        study.c1, study.c2, sided, study.n1, study.n2
    )
    pi0_cfg = _pi0_config(args, args.test)

    cfg = WfdrConfig(l_star=args.groups, grouping=args.grouping, pi0=pi0_cfg)
    weighted = weight_study(pvalues, supports, stats, cfg)
    wfdr_report = weighted.reject(args.alpha)
    pi0_g = estimate_pi0(pvalues, supports, pi0_cfg)

    procedures = ("wfdr", "bh") if args.procedure == "all" else (args.procedure,)
    bh_report = bh_reject(pvalues, args.alpha) if "bh" in procedures else None

    partition = weighted.partition
    group_of = partition.group_of()
    weights = weighted.weights
    rejected_wfdr = np.zeros(study.m, dtype=bool)
    rejected_wfdr[wfdr_report.rejected] = True
    rejected_bh = np.zeros(study.m, dtype=bool)
    if bh_report is not None:
        rejected_bh[bh_report.rejected] = True

    report_path = f"{args.output}.report.csv"
    summary_path = f"{args.output}.summary.json"
    header = ["id", "p_value", "group", "weight", "weighted_p"]
    if "wfdr" in procedures:
        header.append("rejected_wfdr")
    if "bh" in procedures:
        header.append("rejected_bh")
    with open(report_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, row_id in enumerate(study.ids):
            row = [
                row_id,
                repr(float(pvalues[i])),
                int(group_of[i]),
                repr(float(weights[group_of[i]])),
                repr(float(weighted.weighted[i])),
            ]
            if "wfdr" in procedures:
                row.append(int(rejected_wfdr[i]))
            if "bh" in procedures:
                row.append(int(rejected_bh[i]))
            writer.writerow(row)

    summary = {
        "command": "analyze",
        "flags": {
            "test": args.test,
            "sided": args.sided,
            "alpha": args.alpha,
            "groups": args.groups,
            "grouping": args.grouping,
            "lambda_max": pi0_cfg.lambda_max,
            "step": pi0_cfg.step,
            "seed": args.seed,
            "input": args.input,
            "procedure": args.procedure,
            "study_totals": args.study_totals,
            "min_total": args.min_total,
            "max_per_cell": args.max_per_cell,
        },
        "m_input": m_input,
        "m_analyzed": study.m,
        "filtered_out": m_input - study.m,
        "pi0_g": pi0_g.value,
        "pi0_star": weighted.pi0_overall,
        "groups": {
            "sizes": list(partition.sizes),
            "pi0": [e.value for e in weighted.group_pi0],
            "pi0_raw": [e.raw_value for e in weighted.group_pi0],
            "clamped": [e.clamped for e in weighted.group_pi0],
            "weights": list(weights),
        },
    }
    if "wfdr" in procedures:
        summary["wfdr"] = {
            "tau_alpha": wfdr_report.threshold,
            "k_tilde_star": wfdr_report.k_tilde_star,
            "n_rejected": wfdr_report.n_rejected,
        }
    if bh_report is not None:
        summary["bh"] = {
            "threshold": bh_report.threshold,
            "k_star": bh_report.k_star,
            "n_rejected": bh_report.n_rejected,
        }
    _write_json(summary, summary_path)
    return EXIT_OK


def _simulate(args) -> int:
    pi0_grid = args.pi0 if args.pi0 else [0.5]
    alpha_grid = tuple(args.alpha if args.alpha else [0.05])
    l_star_grid = tuple(args.l_star if args.l_star else [3])
    family = Family.POISSON_BINOMIAL if args.family == "poisson" else Family.BINOMIAL_FET

    rows = []
    summaries = []
    for pi0 in pi0_grid:
        cfg = ScenarioConfig(
            family=family,
            m=args.m,
            pi0=pi0,
            alpha_grid=alpha_grid,
            l_star_grid=l_star_grid,
            replications=args.reps,
            master_seed=args.seed,
        )
        result = run_study(cfg)
        rows.extend(result.long_table())
        summaries.extend(
            {
                "pi0": cell.pi0,
                "alpha": cell.alpha,
                "l_star": cell.l_star,
                "procedure": cell.procedure,
                "fdr": cell.fdr,
                "power": cell.power,
                "fdp_std": cell.fdp_std,
                "tdp_std": cell.tdp_std,
                "mean_rejections": cell.mean_rejections,
                "pi0_star_mean": cell.pi0_star_mean,
                "pi0_g_mean": cell.pi0_g_mean,
            }
            for cell in result.cells
        )

    table_path = f"{args.output}.csv"
    json_path = f"{args.output}.json"
    with open(table_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["family", "pi0", "alpha", "l_star", "procedure", "metric", "value"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["family"],
                    repr(float(row["pi0"])),
                    repr(float(row["alpha"])),
                    row["l_star"],
                    row["procedure"],
                    row["metric"],
                    repr(float(row["value"])) if row["value"] is not None else "",
                ]
            )
    _write_json(
        {
            "command": "simulate",
            "flags": {
                "family": args.family,
                "m": args.m,
                "pi0": list(pi0_grid),
                "alpha": list(alpha_grid),
                "l_star": list(l_star_grid),
                "reps": args.reps,
                "seed": args.seed,
            },
            "cells": summaries,
        },
        json_path,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrete-fdr",
        description="Weighted FDR procedure for discrete, heterogeneous p-values",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_analyze_parser(subparsers)
    _add_simulate_parser(subparsers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _analyze(args)
        return _simulate(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DiscreteFdrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
