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
from dataclasses import asdict

import numpy as np

from .errors import DiscreteFdrError, InvalidConfigError, ParseError, SchemaError, check_scalar
from .exact_tests import Sidedness
from .io import MAX_COUNT, FilterRule, apply_filter, parse_counts_csv, score_input
from .proportion import _PI0_CONFIGS, Pi0Config, estimate_pi0
from .simulate import Family, ScenarioConfig, run_study
from .wfdr import WfdrConfig, bh_reject, weight_study

EXIT_OK = 0
EXIT_SCHEMA = 3
EXIT_PARSE = 4
EXIT_COMPUTE = 5

# summary keys of each procedure's threshold and rejection count, named as
# in the paper: tau_alpha and k~* for the weighted procedure, k* for BH
SUMMARY_KEYS = {"wfdr": ("tau_alpha", "k_tilde_star"), "bh": ("threshold", "k_star")}


def _jsonable(value):
    """Make a value JSON-serialisable; non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    return value


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


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
    if min(cases, events) < 0:
        raise InvalidConfigError(f"--study-totals must be nonnegative, got {raw!r}")
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


def _pi0_config(args) -> Pi0Config:
    default = _PI0_CONFIGS[args.test]
    lambda_max = args.lambda_max if args.lambda_max is not None else default.lambda_max
    step = args.step if args.step is not None else default.step
    return Pi0Config(lambda_max=lambda_max, step=step)


def _flags(args, **resolved) -> dict:
    """Every parsed option but the command and the output prefix, with the
    ``resolved`` values in place of the parsed ones."""
    flags = {**vars(args), **resolved}
    del flags["command"], flags["output"]
    return flags


def _analyze(args) -> int:
    study = parse_counts_csv(
        args.input, args.test, study_totals=_parse_study_totals(args.study_totals)
    )
    m_input = study.m
    study = apply_filter(study, FilterRule(args.min_total, args.max_per_cell))
    if study.m == 0:
        raise SchemaError("no rows left to analyze after filtering")

    # the settings are checked before any table is built
    pi0_cfg = _pi0_config(args)
    cfg = WfdrConfig(l_star=args.groups, grouping=args.grouping)
    check_scalar("alpha", args.alpha, "be in [0, 1]")
    # scored on the grid, so that each support is dropped once its lambda row is taken
    pvalues, supports, stats = score_input(
        study.c1, study.c2, Sidedness(args.sided), study.n1, study.n2, pi0=pi0_cfg
    )
    weighted = weight_study(pvalues, supports, stats, cfg)
    pi0_g = estimate_pi0(pvalues, supports)

    summary = {
        "command": "analyze",
        "flags": _flags(args, lambda_max=pi0_cfg.lambda_max, step=pi0_cfg.step),
        "m_input": m_input,
        "m_analyzed": study.m,
        "filtered_out": m_input - study.m,
        "pi0_g": pi0_g.value,
        "pi0_star": weighted.pi0_overall,
        "groups": {
            "sizes": weighted.partition.sizes,
            "pi0": [e.value for e in weighted.group_pi0],
            "pi0_raw": [e.raw_value for e in weighted.group_pi0],
            "clamped": [e.clamped for e in weighted.group_pi0],
            "weights": weighted.weights.tolist(),
        },
    }
    group_of = weighted.partition.group_of()
    # csv writes a float as str(), which is its repr: the shortest string
    # that reads back as the same double
    columns = {
        "id": study.ids,
        "p_value": pvalues.tolist(),
        "group": group_of.tolist(),
        "weight": weighted.weights[group_of].tolist(),
        "weighted_p": weighted.weighted.tolist(),
    }
    procedures = ("wfdr", "bh") if args.procedure == "all" else (args.procedure,)
    for name in procedures:
        if name == "wfdr":
            report = weighted.reject(args.alpha)
        else:
            report = bh_reject(pvalues, args.alpha)
        # rejected indices are distinct, so each count is 0 or 1
        columns[f"rejected_{name}"] = np.bincount(
            report.rejected, minlength=study.m
        ).tolist()
        threshold_key, count_key = SUMMARY_KEYS[name]
        summary[name] = {
            threshold_key: report.threshold,
            count_key: report.n_rejected,
            "n_rejected": report.n_rejected,
        }

    with open(f"{args.output}.report.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))
    _write_json(summary, f"{args.output}.summary.json")
    return EXIT_OK


def _simulate(args) -> int:
    pi0_grid = args.pi0 or [0.5]
    # each pi0 is its own study, so the scenario config cannot see a repeat
    if len(set(pi0_grid)) != len(pi0_grid):
        raise InvalidConfigError(f"pi0 grid has a repeated value: {pi0_grid}")
    alpha_grid = tuple(args.alpha or [0.05])
    l_star_grid = tuple(args.l_star or [3])

    rows = []
    summaries = []
    for pi0 in pi0_grid:
        cfg = ScenarioConfig(
            family=Family(args.family),
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
                key: value
                for key, value in asdict(cell).items()
                if key not in ("family", "replications")
            }
            for cell in result.cells
        )

    with open(f"{args.output}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(rows[0])  # long_table's column names
        writer.writerows(row.values() for row in rows)
    _write_json(
        {
            "command": "simulate",
            "flags": _flags(args, pi0=pi0_grid, alpha=alpha_grid, l_star=l_star_grid),
            "cells": summaries,
        },
        f"{args.output}.json",
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
