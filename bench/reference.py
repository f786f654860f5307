"""Independent reference results for the benchmark's output check.

Everything here is computed from the workload's generated inputs and the
method's definitions, without importing the package under test: the exact
two-sided tests with their aggregated p-value supports, quantile and
metric-ball grouping, the discrete pi0 estimator (evaluated per distinct
conditioning statistic rather than per hypothesis), the pi/(1 - pi)
weights, the weighted step-up rule and BH.  A change to the package that
alters any result is therefore caught whatever layer it touches.

``expected(spec, workdir)`` returns the expected outputs and the exact work
counts that the traced run must reproduce.  ``exact_tests.outcomes`` counts
every outcome of each distinct statistic's full range; the program may
enumerate fewer (for example, only the outcomes whose mass a double can
hold), so for it the traced count must not exceed this one.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import gammaln, logsumexp

PROB_TIE_RTOL = 1e-12  # outcomes this close in probability are equally likely
AGGREGATION_RTOL = 1e-10  # p-values this close to an atom's first value merge

BINOMIAL_GRID = (0.2, 0.0005)  # (lambda_max, step) of the guiding values
FET_GRID = (0.5, 0.008)
MAX_RESTARTS = 64


def guiding_values(lambda_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to lambda_max, which is always the last value."""
    n_full = int(np.floor(lambda_max / step + 1e-9))
    taus = step * np.arange(n_full + 1)
    if taus[-1] > lambda_max or lambda_max - taus[-1] <= 1e-12:
        taus[-1] = lambda_max
    else:
        taus = np.append(taus, lambda_max)
    return taus


def _log_choose(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def two_sided_null(log_weights: np.ndarray):
    """Support and per-outcome canonical p-value of a two-sided exact test.

    An outcome's p-value is the null mass of all outcomes at most as likely
    (ties judged at ``PROB_TIE_RTOL``).  Sorted p-values are merged greedily
    into atoms: a value joins the current atom when it is within
    ``AGGREGATION_RTOL`` of the atom's first value.  Outcomes whose mass
    underflows to 0 are left out and get a NaN p-value.
    """
    pmf = np.exp(log_weights - logsumexp(log_weights))
    order = np.argsort(pmf, kind="stable")
    sorted_pmf = pmf[order]
    at_most = np.searchsorted(sorted_pmf, pmf * (1.0 + PROB_TIE_RTOL), side="right")
    pvals = np.minimum(np.cumsum(sorted_pmf)[at_most - 1], 1.0)

    kept = np.flatnonzero(pmf > 0.0)
    kept = kept[np.argsort(pvals[kept], kind="stable")]
    v = pvals[kept]
    close = np.zeros(v.size, dtype=bool)
    close[1:] = v[1:] <= v[:-1] * (1.0 + AGGREGATION_RTOL)
    # A value far from its predecessor always starts an atom; only values
    # close to it need the greedy comparison with the atom's first value.
    start = ~close
    last_far_start = np.maximum.accumulate(np.where(start, np.arange(v.size), 0))
    last_close_start = -1
    for i in np.flatnonzero(close):
        first = max(last_far_start[i], last_close_start)
        if v[i] > v[first] * (1.0 + AGGREGATION_RTOL):
            start[i] = True
            last_close_start = i
    atom = np.cumsum(start) - 1
    support = v[start]
    if abs(support[-1] - 1.0) <= AGGREGATION_RTOL:
        support[-1] = 1.0
    canonical = np.full(pmf.size, np.nan)
    canonical[kept] = support[atom]
    return support, canonical


class Scored:
    """p-values of a study, with one support per distinct statistic (class)."""

    def __init__(self, pvalues, classes, supports, outcomes):
        self.p = np.asarray(pvalues, dtype=float)
        self.cls = np.asarray(classes, dtype=np.intp)
        self.supports = supports
        self.outcomes = outcomes  # outcomes enumerated per class


def score_binomial(c1, c2) -> Scored:
    """Binomial test of each Poisson pair, conditional on its total.

    A pair with total 0 gets p = 1 and the single-atom support {1}.
    """
    totals = np.asarray(c1) + np.asarray(c2)
    distinct, classes = np.unique(totals, return_inverse=True)
    supports, canonicals, outcomes = [], [], []
    for t in distinct.tolist():
        if t == 0:
            supports.append(np.array([1.0]))
            canonicals.append(np.array([1.0]))
            outcomes.append(0)
            continue
        support, canonical = two_sided_null(_log_choose(float(t), np.arange(t + 1.0)))
        supports.append(support)
        canonicals.append(canonical)
        outcomes.append(t + 1)
    p = np.array([canonicals[k][c] for k, c in zip(classes, np.asarray(c1))])
    return Scored(p, classes, supports, outcomes)


def score_fet(c1, n1, n2, m_obs) -> Scored:
    """Fisher's exact test of each 2x2 table; every row is its own class."""
    supports, pvalues, outcomes = [], [], []
    seen = {}
    classes = []
    for a, r1, r2, col in zip(c1.tolist(), n1.tolist(), n2.tolist(), m_obs.tolist()):
        lo, hi = max(0, col - r2), min(r1, col)
        k = np.arange(lo, hi + 1, dtype=float)
        support, canonical = two_sided_null(
            _log_choose(float(r1), k) + _log_choose(float(r2), float(col) - k)
        )
        pvalues.append(canonical[a - lo])
        key = (r1, r2, col)
        if key not in seen:
            seen[key] = len(supports)
            supports.append(support)
            outcomes.append(hi - lo + 1)
        classes.append(seen[key])
    return Scored(pvalues, classes, supports, outcomes)


def estimate_pi0(scored: Scored, members: np.ndarray, taus: np.ndarray):
    """(clamped value, raw minimum) of the discrete pi0 estimate of a group.

    At guiding value tau each hypothesis contributes 1{p > lambda} /
    (1 - lambda), lambda being its support's largest point <= tau, or 1 if
    there is none; the count of p > lambda is taken per class.
    """
    p = scored.p[members]
    cls = scored.cls[members]
    total = np.zeros(taus.size)
    order = np.argsort(cls, kind="stable")
    bounds = np.flatnonzero(np.diff(cls[order])) + 1
    for block in np.split(order, bounds):
        support = scored.supports[cls[block[0]]]
        sorted_p = np.sort(p[block])
        idx = np.searchsorted(support, taus, side="right") - 1
        lam = support[np.maximum(idx, 0)]
        above = sorted_p.size - np.searchsorted(sorted_p, lam, side="right")
        with np.errstate(divide="ignore", invalid="ignore"):
            total += np.where(idx >= 0, above / (1.0 - lam), float(sorted_p.size))
    raw = float((total / members.size).min())
    return min(raw, 1.0), raw


def quantile_groups(stats, l_star: int) -> list[np.ndarray]:
    """Bins [q_{j-1}, q_j) at equally spaced percentiles, last bin closed;
    empty bins are dropped."""
    stats = np.asarray(stats, dtype=float)
    qs = np.percentile(stats, 100.0 * np.arange(l_star + 1) / l_star)
    groups = []
    for j in range(1, l_star + 1):
        upper = stats <= qs[j] if j == l_star else stats < qs[j]
        idx = np.flatnonzero((stats >= qs[j - 1]) & upper)
        if idx.size:
            groups.append(idx)
    return groups


def _ball_pass(dist, sigma, l_star, g_star=1):
    remaining = np.arange(dist.shape[0])
    groups = []
    for stage in range(1, l_star + 1):
        inside = dist[np.ix_(remaining, remaining)] <= sigma
        ball = remaining[inside[int(np.argmax(inside.sum(axis=1)))]]
        groups.append(ball)
        remaining = np.setdiff1d(remaining, ball, assume_unique=True)
        if stage < l_star:
            if stage == l_star - 1 and remaining.size == g_star:
                return "done", groups + [remaining]
            if remaining.size <= g_star:
                return "halve", None
        elif remaining.size <= g_star:
            if remaining.size:
                groups[-1] = np.concatenate([groups[-1], remaining])
            return "done", groups
        else:
            return "grow", None


def metric_groups(stats, l_star: int):
    """Greedy metric balls on |s_i - s_j|, the largest ball first (ties to
    the lowest centre), radius max/(2 l*) halved or grown by 1.5 until a
    pass succeeds.  Returns (groups, restarts, fell_back)."""
    stats = np.asarray(stats, dtype=float)
    dist = np.abs(stats[:, None] - stats[None, :])
    top = float(dist.max())
    if l_star == 1 or top == 0.0:
        return [np.arange(stats.size)], 0, False
    sigma = top / (2.0 * l_star)
    for restarts in range(MAX_RESTARTS + 1):
        outcome, groups = _ball_pass(dist, sigma, l_star)
        if outcome == "done":
            return [np.sort(g) for g in groups], restarts, False
        sigma = sigma / 2.0 if outcome == "halve" else sigma * 1.5
    return quantile_groups(stats, l_star), MAX_RESTARTS + 1, True


def step_up_threshold(values, scale: float, alpha: float) -> float:
    """Largest sorted value v_(k) with scale * v_(k) <= k alpha / m, else 0."""
    v = np.sort(values, kind="stable")
    ok = scale * v <= alpha * np.arange(1, v.size + 1) / v.size
    hits = np.flatnonzero(ok)
    return float(v[hits[-1]]) if hits.size else 0.0


def weighted_procedure(scored: Scored, groups, taus, alphas):
    """Group pi0 estimates, weights, overall pi0 and, per alpha, the
    threshold and rejected indices of the weighted step-up rule."""
    m = scored.p.size
    estimates = [estimate_pi0(scored, g, taus) for g in groups]
    values = np.array([e[0] for e in estimates])
    with np.errstate(divide="ignore"):
        weights = np.where(values == 1.0, np.inf, values / (1.0 - values))
    sizes = np.array([g.size for g in groups], dtype=float)
    pi0_star = float(np.dot(sizes, values) / sizes.sum())
    group_of = np.empty(m, dtype=np.intp)
    for j, g in enumerate(groups):
        group_of[g] = j
    ptilde = scored.p * weights[group_of]
    by_alpha = {}
    for alpha in alphas:
        tau = step_up_threshold(ptilde, 1.0 - pi0_star, alpha) if pi0_star < 1.0 else 0.0
        by_alpha[alpha] = (tau, np.flatnonzero(ptilde <= tau))
    return {
        "group_sizes": [int(g.size) for g in groups],
        "group_pi0": values.tolist(),
        "pi0_star": pi0_star,
        "by_alpha": by_alpha,
    }


def bh(pvalues, alpha: float):
    """Benjamini-Hochberg threshold and rejected indices."""
    tau = step_up_threshold(pvalues, 1.0, alpha)
    return tau, np.flatnonzero(pvalues <= tau)


def _exact_counts(scored_list, calls: int) -> dict:
    """Distinct statistics and outcomes enumerated, over all scored studies."""
    outcomes = {}
    for scored, keys in scored_list:
        for key, n in zip(keys, scored.outcomes):
            if n:
                outcomes[key] = n
    return {
        "exact_tests.calls": calls,
        "exact_tests.distinct_stats": len(outcomes),
        "exact_tests.outcomes": sum(outcomes.values()),
    }


def _read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    ids = [r["id"] for r in rows]
    cols = {k: np.array([int(r[k]) for r in rows], dtype=np.int64)
            for k in rows[0] if k != "id"}
    return ids, cols


def _analyze_expected(spec, workdir) -> dict:
    argv = spec["argv"]
    flag = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    l_star = int(flag["--groups"])
    alpha = float(flag["--alpha"])
    ids, cols = _read_rows(workdir / flag["--input"])
    m = len(ids)
    if flag["--test"] == "fet":
        cases, events = (int(x) for x in flag["--study-totals"].split(","))
        c1, n1 = cols["c1"], cols["n1"]
        c2, n2 = cases - c1, events - n1
        m_obs = c1 + c2
        scored = score_fet(c1, n1, n2, m_obs)
        stat = m_obs if np.ptp(m_obs) > 0 else n1
        keys = [tuple(x) for x in np.stack([n1, n2, m_obs], axis=1).tolist()]
        keys = list(dict.fromkeys(keys))
        taus = guiding_values(*FET_GRID)
        calls = m
        cdf_calls = 0
    else:
        c1, c2 = cols["c1"], cols["c2"]
        scored = score_binomial(c1, c2)
        stat = (c1 + c2).astype(float)
        keys = np.unique(c1 + c2).tolist()
        taus = guiding_values(*BINOMIAL_GRID)
        calls = int(np.count_nonzero(c1 + c2))
        cdf_calls = m * (m - 1) // 2 if flag.get("--grouping") == "metric" else 0

    restarts, fallbacks = 0, 0
    if flag.get("--grouping") == "metric":
        groups, restarts, fell_back = metric_groups(stat, l_star)
        fallbacks = int(fell_back)
    else:
        groups = quantile_groups(stat, l_star)
    result = weighted_procedure(scored, groups, taus, (alpha,))
    tau, rejected = result["by_alpha"][alpha]
    bh_tau, bh_rejected = bh(scored.p, alpha)
    counts = _exact_counts([(scored, keys)], calls)
    counts.update({
        "cdf_metric.calls": cdf_calls,
        "grouping.groups": len(groups),
        "grouping.restarts": restarts,
        "grouping.fallbacks": fallbacks,
        "proportion.calls": 1 + len(groups),
        "proportion.hyp_tau_evals": 2 * m * taus.size,
    })
    return {
        "ids": ids,
        "pi0_g": estimate_pi0(scored, np.arange(m), taus)[0],
        "pi0_star": result["pi0_star"],
        "group_sizes": result["group_sizes"],
        "group_pi0": result["group_pi0"],
        "tau_alpha": tau,
        "rejected_wfdr": [ids[i] for i in rejected],
        "bh_threshold": bh_tau,
        "rejected_bh": [ids[i] for i in bh_rejected],
        "counts": counts,
    }


def poisson_study(scenario: dict, rep: int):
    """Counts and null labels of one replication of the Poisson scenario:
    means Pareto(scale 7, shape 7), the first floor(m pi0) pairs null, the
    others' second mean scaled by Uniform(1.5, 5); seeded by
    SeedSequence([master_seed, rep])."""
    m, pi0 = scenario["m"], scenario["pi0"]
    rng = np.random.default_rng(np.random.SeedSequence([scenario["master_seed"], rep]))
    m0 = int(np.floor(m * pi0 + 1e-9))
    mu1 = 7.0 * (1.0 + rng.pareto(7.0, m))
    mu2 = mu1.copy()
    mu2[m0:] = rng.uniform(1.5, 5.0, m - m0) * mu1[m0:]
    c1 = rng.poisson(mu1)
    c2 = rng.poisson(mu2)
    is_null = np.zeros(m, dtype=bool)
    is_null[:m0] = True
    return c1, c2, is_null


def _proportions(rejected, is_null):
    n = rejected.size
    false = int(np.count_nonzero(is_null[rejected])) if n else 0
    m1 = int(np.count_nonzero(~is_null))
    return false / max(n, 1), (n - false) / m1 if m1 else 0.0, n


def _sim_expected(spec) -> dict:
    sc = spec["scenario"]
    alphas, l_stars = sc["alpha_grid"], sc["l_star_grid"]
    taus = guiding_values(*BINOMIAL_GRID)
    records = {}
    scored_list = []
    calls = 0
    n_groups = 0
    for rep in range(sc["replications"]):
        c1, c2, is_null = poisson_study(sc, rep)
        scored = score_binomial(c1, c2)
        scored_list.append((scored, np.unique(c1 + c2).tolist()))
        calls += int(np.count_nonzero(c1 + c2))
        every = np.arange(c1.size)
        pi0_g = estimate_pi0(scored, every, taus)[0]
        for alpha in alphas:
            fdp, tdp, n = _proportions(bh(scored.p, alpha)[1], is_null)
            for l_star in l_stars:
                records.setdefault((l_star, alpha, "bh"), []).append((fdp, tdp, n, None, None))
        for l_star in l_stars:
            groups = quantile_groups((c1 + c2).astype(float), l_star)
            n_groups += len(groups)
            result = weighted_procedure(scored, groups, taus, alphas)
            for alpha in alphas:
                fdp, tdp, n = _proportions(result["by_alpha"][alpha][1], is_null)
                records.setdefault((l_star, alpha, "wfdr"), []).append(
                    (fdp, tdp, n, result["pi0_star"], pi0_g)
                )

    def std(x):
        return float(np.std(x, ddof=1)) if len(x) > 1 else 0.0

    cells = []
    for l_star in l_stars:
        for alpha in alphas:
            for procedure in ("wfdr", "bh"):
                fdp, tdp, n, pi0_star, pi0_g = zip(*records[(l_star, alpha, procedure)])
                wfdr = procedure == "wfdr"
                cells.append({
                    "l_star": l_star, "alpha": alpha, "procedure": procedure,
                    "fdr": float(np.mean(fdp)), "power": float(np.mean(tdp)),
                    "fdp_std": std(fdp), "tdp_std": std(tdp),
                    "mean_rejections": float(np.mean(n)),
                    "pi0_star_mean": float(np.mean(pi0_star)) if wfdr else None,
                    "pi0_g_mean": float(np.mean(pi0_g)) if wfdr else None,
                })
    reps = sc["replications"]
    counts = _exact_counts(scored_list, calls)
    counts.update({
        "cdf_metric.calls": 0,
        "grouping.groups": n_groups,
        "grouping.restarts": 0,
        "grouping.fallbacks": 0,
        "proportion.calls": reps + n_groups,
        "proportion.hyp_tau_evals": reps * sc["m"] * taus.size * (1 + len(l_stars)),
    })
    return {"cells": cells, "counts": counts}


def expected(spec: dict, workdir) -> dict:
    """Expected outputs and exact work counts of a generated workload."""
    if spec["kind"] == "simulate":
        return _sim_expected(spec)
    return _analyze_expected(spec, workdir)
