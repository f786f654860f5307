"""Seeded inputs of the three benchmark workloads.

Each workload stresses a different layer of the pipeline:

* ``sim-poisson`` -- the paper's Poisson simulation scenario through
  ``simulate.run_study``.  Only ~70-100 distinct totals occur among 20,000
  hypotheses, so exact tests are nearly all cache hits and the
  per-hypothesis pi0 loop dominates; each replication runs 12 weighted and
  3 BH step-ups.
* ``analyze-safety`` -- the paper's drug-safety layout through
  ``discrete-fdr analyze --test fet --study-totals``.  Every row has its own
  margins, so every exact test is a cache miss and enumeration dominates,
  while pi0 (63 guiding values) is negligible.
* ``analyze-metric`` -- Poisson pairs through ``discrete-fdr analyze
  --grouping metric``.  The O(m^2) distance matrix and metric-ball grouping
  dominate; it is the only workload off the quantile-grouping path.

``generate`` writes a workload's input files into a directory and returns
its spec: everything the program receives (CLI arguments or scenario
fields), plus m and the replication count.  The same seed always gives the
same inputs.
"""

from __future__ import annotations

import numpy as np

SIM_M = 20_000
SIM_PI0 = 0.8
SIM_ALPHAS = (0.01, 0.05, 0.1)
SIM_L_STARS = (1, 2, 3, 5)
SIM_REPLICATIONS = 1

SAFETY_M = 500
SAFETY_CASES_TOTAL = 20_000
SAFETY_EVENTS_TOTAL = 2_000_000
# Row event counts are spread over this range; above 20,000 events a row's
# hypergeometric range is capped by the cases total, as in real tables.
SAFETY_N1_RANGE = (5_000, 100_000)
SAFETY_NULL_SHARE = 0.8

METRIC_M = 1_500
METRIC_PI0 = 0.8

GROUPS = 3
ALPHA = 0.05

WORKLOADS = ("sim-poisson", "analyze-safety", "analyze-metric")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(v) for v in row) + "\n")


def _sim_spec(seed: int) -> dict:
    return {
        "kind": "simulate",
        "m": SIM_M,
        "replications": SIM_REPLICATIONS,
        "scenario": {
            "family": "poisson",
            "m": SIM_M,
            "pi0": SIM_PI0,
            "alpha_grid": list(SIM_ALPHAS),
            "l_star_grid": list(SIM_L_STARS),
            "replications": SIM_REPLICATIONS,
            "master_seed": seed,
        },
    }


def _safety_spec(seed: int, workdir) -> dict:
    """Distinct per-row event counts n1 with cases c1 drawn around the
    study-wide rate; a fifth of the rows have an elevated rate.

    n1 takes one value in each of ``SAFETY_M`` geometric strata of
    ``SAFETY_N1_RANGE``, so the enumeration work is nearly the same for
    every seed.
    """
    rng = _rng(seed, 1)
    edges = np.geomspace(*SAFETY_N1_RANGE, SAFETY_M + 1)
    n1 = np.floor(edges[:-1] + rng.uniform(size=SAFETY_M) * np.diff(edges))
    n1 = n1.astype(np.int64)
    if np.unique(n1).size != SAFETY_M:
        raise AssertionError("safety generator produced repeated margins")
    rate = np.full(SAFETY_M, SAFETY_CASES_TOTAL / SAFETY_EVENTS_TOTAL)
    m0 = int(SAFETY_M * SAFETY_NULL_SHARE)
    # Signals sit 3-8 standard deviations above the null mean.  Far larger
    # excesses have null probabilities below double precision, which the
    # package rejects as degenerate data.
    excess_sd = rng.uniform(3.0, 8.0, SAFETY_M - m0)
    rate[m0:] *= 1.0 + excess_sd / np.sqrt(n1[m0:] * rate[m0:])
    c1 = rng.binomial(n1, rate)
    order = rng.permutation(SAFETY_M)
    _write_csv(
        workdir / "safety.csv",
        ("id", "c1", "n1"),
        ((f"AE{i:04d}", c1[j], n1[j]) for i, j in enumerate(order)),
    )
    return {
        "kind": "cli",
        "m": SAFETY_M,
        "replications": 1,
        "argv": [
            "analyze", "--test", "fet",
            "--study-totals", f"{SAFETY_CASES_TOTAL},{SAFETY_EVENTS_TOTAL}",
            "--groups", str(GROUPS), "--alpha", str(ALPHA),
            "--input", "safety.csv", "--output", "out",
        ],
    }


def _metric_spec(seed: int, workdir) -> dict:
    """Poisson pairs with the paper's Pareto(scale 7, shape 7) means; the
    alternatives' second mean is scaled by Uniform(1.5, 5)."""
    rng = _rng(seed, 2)
    mu1 = 7.0 * (1.0 + rng.pareto(7.0, METRIC_M))
    mu2 = mu1.copy()
    m0 = int(METRIC_M * METRIC_PI0)
    mu2[m0:] *= rng.uniform(1.5, 5.0, METRIC_M - m0)
    c1 = rng.poisson(mu1)
    c2 = rng.poisson(mu2)
    order = rng.permutation(METRIC_M)
    _write_csv(
        workdir / "pairs.csv",
        ("id", "c1", "c2"),
        ((f"H{i:04d}", c1[j], c2[j]) for i, j in enumerate(order)),
    )
    return {
        "kind": "cli",
        "m": METRIC_M,
        "replications": 1,
        "argv": [
            "analyze", "--test", "binomial", "--grouping", "metric",
            "--groups", str(GROUPS), "--alpha", str(ALPHA),
            "--input", "pairs.csv", "--output", "out",
        ],
    }


def generate(name: str, seed: int, workdir) -> dict:
    """Write the inputs of workload ``name`` into ``workdir``; return its spec."""
    if name == "sim-poisson":
        spec = _sim_spec(seed)
    elif name == "analyze-safety":
        spec = _safety_spec(seed, workdir)
    elif name == "analyze-metric":
        spec = _metric_spec(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    spec["workload"] = name
    spec["seed"] = seed
    return spec
