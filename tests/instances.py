"""Shared random-instance generators for procedure-level tests."""

import numpy as np
from hypothesis import strategies as st

from discrete_fdr import Sidedness, binomial_null_distribution, rejection_threshold

# p-values every entry point must reject: non-finite or outside (0, 1]
INVALID_PVALUES = [np.nan, np.inf, -np.inf, 0.0, 1.5]

# margins anywhere up to 2**62, and often next to 2**53, where float64
# stops representing every integer
MARGIN_VALUES = st.one_of(
    st.integers(min_value=0, max_value=2**62),
    st.integers(min_value=2**53 - 8, max_value=2**53 + 8),
)


def random_weighted_instance(rng, max_m=200):
    """A random study: p-values (with discrete ties), groups, weights.

    Returns (pvalues, weighted_pvalues, pi0_overall) with pi0_overall < 1;
    weights follow pi/(1 - pi) from random per-group estimates, some of
    which may be 1 (infinite weights).
    """
    m = int(rng.integers(1, max_m + 1))
    p = rng.uniform(size=m)
    if rng.random() < 0.5:
        # inject atoms so ties are exercised
        atoms = rng.choice([0.01, 0.05, 0.2, 0.5, 1.0], size=m)
        mask = rng.random(m) < 0.5
        p = np.where(mask, atoms, p)
    n_groups = int(rng.integers(1, 6))
    gid = rng.integers(0, n_groups, size=m)
    gid[: min(n_groups, m)] = np.arange(min(n_groups, m))  # no empty group
    pi = rng.uniform(0.0, 1.0, n_groups)
    if rng.random() < 0.3:
        pi[rng.integers(0, n_groups)] = 1.0  # an infinite-weight group
    sizes = np.bincount(gid, minlength=n_groups)
    pi0_overall = float(np.dot(sizes, pi) / m)
    if pi0_overall >= 1.0:
        pi[0] = 0.5
        pi0_overall = float(np.dot(sizes, pi) / m)
    weights = np.where(pi == 1.0, np.inf, pi / np.maximum(1.0 - pi, 1e-300))
    return p, p * weights[gid], pi0_overall


def step_up_rejections(ptilde, pi0_overall, alpha):
    """Rejection set via the closed-form step-up threshold.

    A threshold of 0 rejects exactly the weighted p-values equal to 0
    (members of zero-weight groups); for positive weighted p-values it
    rejects nothing.
    """
    tau = rejection_threshold(alpha, ptilde, pi0_overall)
    return set(np.flatnonzero(ptilde <= tau).tolist())


def grid_sup_rejections(ptilde, pi0_overall, alpha):
    """Rejection set from a dense-grid evaluation of the estimated-FDR sup.

    Candidates: 0, every finite weighted p-value, midpoints between
    neighbours, and a point beyond the maximum.  The estimated FDR of the
    rule "reject whenever the weighted p-value <= t" is
    min(1, (1 - pi0) t / (max(R_t, 1) / m)), with R_t the number rejected.
    """
    m = ptilde.size

    def fdr_estimate(t):
        rejected = int(np.count_nonzero(ptilde <= t))
        return min(1.0, (1.0 - pi0_overall) * t / (max(rejected, 1) / m))

    finite = np.unique(ptilde[np.isfinite(ptilde)])
    candidates = [0.0]
    candidates.extend(finite.tolist())
    candidates.extend(((finite[:-1] + finite[1:]) / 2).tolist())
    if finite.size:
        candidates.append(float(finite.max()) * 1.5 + 1.0)
    tau = max(t for t in candidates if fdr_estimate(t) <= alpha)
    return set(np.flatnonzero(ptilde <= tau).tolist())


def off_support_study():
    """Four hypotheses on the two-sided binomial supports of the totals 5-8,
    the third with p = 0.0123456, which none of them holds.

    Returns (pvalues, supports, statistics, index of the off-support one).
    """
    supports = [binomial_null_distribution(t, Sidedness.TWO_SIDED).support
                for t in (5, 6, 7, 8)]
    pvalues = np.array([s[-1] for s in supports])
    pvalues[2] = 0.0123456
    return pvalues, supports, [5.0, 6.0, 7.0, 8.0], 2
