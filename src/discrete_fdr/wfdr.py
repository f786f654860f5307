"""The weighted FDR procedure, its BH baseline, and the step-up comparator.

The weighted procedure runs in four steps: partition the hypotheses, estimate
the proportion of true nulls within each group, convert the estimates into
multiplicative p-value weights pi/(1 - pi) (infinite when a group looks all
null), and apply a step-up rule to the weighted p-values with the overall
estimated null proportion folded into the threshold.  Only the last step
depends on the level alpha: ``weight_study`` runs the first three once and
``WeightedStudy.reject`` the step-up at each level.  A group whose estimate
is 1 gets infinite weights, so none of its hypotheses can be rejected; when
the overall estimate is 1 the procedure rejects nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cdf_metric import marginal_distance
from .errors import (
    GroupingDidNotConvergeError,
    InvalidConfigError,
    InvalidEstimateError,
    NotApplicableError,
)
from .exact_tests import MarginalVector
from .grouping import (
    GroupingConfig,
    Partition,
    group_by_statistic_quantiles,
    group_from_distances,
)
from .proportion import (
    BINOMIAL_PI0_CONFIG,
    Pi0Config,
    Pi0Estimate,
    as_pvalues,
    groupwise_pi0,
    overall_pi0,
)


@dataclass(frozen=True)
class WfdrConfig:
    """Grouping and null-proportion settings for the weighted procedure."""

    l_star: int = 3
    g_star: int = 1
    grouping: str = "quantile"  # "quantile" or "metric"
    pi0: Pi0Config = field(default_factory=lambda: BINOMIAL_PI0_CONFIG)
    max_restarts: int = 64

    def __post_init__(self):
        if self.grouping not in ("quantile", "metric"):
            raise InvalidConfigError(
                f"grouping must be 'quantile' or 'metric', got {self.grouping!r}"
            )


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of one procedure on one study.

    ``rejected`` holds sorted 0-based hypothesis indices.  ``threshold`` is
    the realised rejection threshold on the scale the procedure compares
    against (weighted p-values for the weighted procedure, raw p-values for
    BH); it is 0 when nothing is rejected.  Fields that do not apply to a
    procedure are None.
    """

    procedure: str
    rejected: np.ndarray
    threshold: float
    pi0_overall: float | None = None
    k_star: int | None = None
    k_tilde_star: int | None = None
    weights: np.ndarray | None = None
    partition: Partition | None = None
    group_pi0: tuple[Pi0Estimate, ...] | None = None

    def __post_init__(self):
        rejected = np.sort(np.asarray(self.rejected, dtype=np.intp))
        rejected.setflags(write=False)
        object.__setattr__(self, "rejected", rejected)

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.size)


def group_weights(groupwise_estimates) -> np.ndarray:
    """Per-group weights pi/(1 - pi), infinite where the estimate is 1."""
    pi = np.asarray(
        [e.value if isinstance(e, Pi0Estimate) else e for e in groupwise_estimates],
        dtype=float,
    )
    if np.any(pi < 0.0) or np.any(pi > 1.0):
        raise InvalidEstimateError(f"group estimates must lie in [0, 1], got {pi}")
    out = np.empty_like(pi)
    at_one = pi == 1.0
    out[at_one] = np.inf
    out[~at_one] = pi[~at_one] / (1.0 - pi[~at_one])
    return out


def weighted_pvalues(pvalues, partition: Partition, weights) -> np.ndarray:
    """p-values multiplied by their group's weight (infinite stays infinite)."""
    pvalues = np.asarray(pvalues, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(partition.groups):
        raise InvalidConfigError("one weight per group required")
    if partition.m != pvalues.size:
        raise InvalidConfigError("partition does not cover the study")
    return pvalues * weights[partition.group_of()]


def fdr_estimate(t: float, weighted, pi0_overall: float) -> float:
    """Estimated FDR of the rule "reject whenever the weighted p-value <= t"."""
    if t < 0:
        raise InvalidConfigError(f"t must be nonnegative, got {t}")
    weighted = np.asarray(weighted, dtype=float)
    m = weighted.size
    n_rejected = int(np.count_nonzero(weighted <= t))
    return min(1.0, (1.0 - pi0_overall) * t / (max(n_rejected, 1) / m))


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfigError(f"alpha must be in [0, 1], got {alpha}")


def _step_up_threshold(values: np.ndarray, scale: float, alpha: float) -> float:
    """v_(k) for the largest k with scale * v_(k) <= k * alpha / m, else 0.

    The largest such k always ends a run of equal values, so exactly k
    values lie at or below the returned threshold (none when it is 0).
    """
    m = values.size
    v = np.sort(values)
    ok = scale * v <= alpha * np.arange(1, m + 1) / m
    return float(v[np.flatnonzero(ok)[-1]]) if ok.any() else 0.0


def rejection_threshold(alpha: float, weighted, pi0_overall: float) -> float:
    """Largest weighted p-value the step-up rule accepts at level ``alpha``.

    Equals 0 when the overall null-proportion estimate is 1 (no rejections)
    or when no order statistic satisfies the step-up inequality.  The set
    {i : weighted p-value <= threshold} is exactly the step-up rejection set.
    """
    _check_alpha(alpha)
    if pi0_overall >= 1.0:
        return 0.0
    weighted = np.asarray(weighted, dtype=float)
    return _step_up_threshold(weighted, 1.0 - pi0_overall, alpha)


def bh_reject(pvalues, alpha: float) -> RejectionReport:
    """Benjamini-Hochberg step-up procedure.

    Rejects the k smallest p-values where k is the largest index with
    p_(k) <= k * alpha / m; rejects nothing when no index qualifies.
    Raises ``InvalidConfigError`` for a p-value outside (0, 1] or NaN.
    """
    _check_alpha(alpha)
    pvalues = as_pvalues(pvalues)
    threshold = _step_up_threshold(pvalues, 1.0, alpha)
    # p-values are positive, so threshold 0 rejects nothing
    rejected = np.flatnonzero(pvalues <= threshold)
    return RejectionReport(
        procedure="bh", rejected=rejected, threshold=threshold, k_star=rejected.size
    )


def theorem1_compare(pvalues, weighted, pi0_overall: float, alpha: float):
    """Step-up counts of both procedures and whether the weighted one wins.

    Returns (k_star, k_tilde_star, wfdr_geq_bh) where k_star counts BH
    rejections, k_tilde_star counts weighted rejections, and the flag is
    k_tilde_star >= k_star.  Undefined when the overall estimate is 1.
    ``alpha`` and ``pvalues`` are validated as in ``bh_reject``.
    """
    k_star = bh_reject(pvalues, alpha).k_star
    if pi0_overall >= 1.0:
        raise NotApplicableError(
            "comparison requires an overall null-proportion estimate below 1"
        )
    weighted = np.asarray(weighted, dtype=float)
    tau = rejection_threshold(alpha, weighted, pi0_overall)
    k_tilde_star = int(np.count_nonzero(weighted <= tau))
    return k_star, k_tilde_star, k_tilde_star >= k_star


def quantile_statistic(conditioning_stats) -> np.ndarray:
    """Scalar statistic used for quantile grouping.

    Scalars pass through.  For margins the table total is used when it
    varies across hypotheses, otherwise the first row total; when neither
    varies all hypotheses share one null distribution and a constant is
    returned (one group).
    """
    stats = list(conditioning_stats)
    if stats and isinstance(stats[0], MarginalVector):
        m_obs = np.array([s.m_obs for s in stats], dtype=float)
        n1 = np.array([s.n1 for s in stats], dtype=float)
        if np.ptp(m_obs) > 0:
            return m_obs
        if np.ptp(n1) > 0:
            return n1
        return np.zeros(len(stats))
    return np.asarray(stats, dtype=float)


def _metric_partition(conditioning_stats, cfg: WfdrConfig) -> Partition:
    stats = list(conditioning_stats)
    m = len(stats)
    dmat = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dmat[i, j] = dmat[j, i] = marginal_distance(stats[i], stats[j])
    grouping_cfg = GroupingConfig(
        l_star=cfg.l_star, g_star=cfg.g_star, max_restarts=cfg.max_restarts
    )
    try:
        return group_from_distances(dmat, grouping_cfg)
    except GroupingDidNotConvergeError:
        warnings.warn(
            "metric grouping did not converge; falling back to quantile grouping",
            RuntimeWarning,
            stacklevel=3,
        )
        return group_by_statistic_quantiles(quantile_statistic(stats), cfg.l_star)


@dataclass(frozen=True)
class WeightedStudy:
    """The alpha-independent part of the weighted procedure on one study.

    Holds the partition, the per-group estimates and weights, the overall
    estimate and the weighted p-values; ``reject`` applies the step-up rule
    at a level.  The arrays are read-only.
    """

    partition: Partition
    group_pi0: tuple[Pi0Estimate, ...]
    weights: np.ndarray
    pi0_overall: float
    weighted: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)
        self.weighted.setflags(write=False)

    def reject(self, alpha: float) -> RejectionReport:
        """Step-up rejections of the weighted procedure at level ``alpha``."""
        threshold = rejection_threshold(alpha, self.weighted, self.pi0_overall)
        # a zero-weight group (estimate 0) has weighted p-values of exactly 0,
        # which the threshold rule rejects even at threshold 0; otherwise a
        # zero threshold rejects nothing since weighted p-values are positive
        rejected = np.flatnonzero(self.weighted <= threshold)
        return RejectionReport(
            procedure="wfdr",
            rejected=rejected,
            threshold=threshold,
            pi0_overall=self.pi0_overall,
            k_tilde_star=rejected.size,
            weights=self.weights,
            partition=self.partition,
            group_pi0=self.group_pi0,
        )


def weight_study(
    pvalues, supports, conditioning_stats, cfg: WfdrConfig
) -> WeightedStudy:
    """The steps of the weighted procedure that do not depend on alpha.

    Groups the hypotheses (quantile binning of the conditioning statistics by
    default, metric-ball grouping on their pairwise distances when
    ``cfg.grouping == "metric"``), estimates the null proportion per group
    and weights the p-values.  Raises ``InvalidConfigError`` for a p-value
    outside (0, 1] or NaN, or for inputs of unequal lengths.
    """
    pvalues = as_pvalues(pvalues)
    supports = list(supports)
    stats = list(conditioning_stats)
    if not (pvalues.size == len(supports) == len(stats)):
        raise InvalidConfigError(
            "pvalues, supports and conditioning_stats must have equal lengths"
        )

    if cfg.grouping == "metric":
        partition = _metric_partition(stats, cfg)
    else:
        partition = group_by_statistic_quantiles(
            quantile_statistic(stats), cfg.l_star
        )

    estimates = tuple(groupwise_pi0(pvalues, supports, partition, cfg.pi0))
    weights = group_weights(estimates)
    return WeightedStudy(
        partition=partition,
        group_pi0=estimates,
        weights=weights,
        pi0_overall=overall_pi0(partition, estimates),
        weighted=weighted_pvalues(pvalues, partition, weights),
    )


def wfdr_reject(
    pvalues, supports, conditioning_stats, alpha: float, cfg: WfdrConfig
) -> RejectionReport:
    """Run the weighted FDR procedure end to end at level ``alpha``.

    ``weight_study`` followed by ``WeightedStudy.reject``; raises
    ``InvalidConfigError`` for a p-value outside (0, 1] or NaN.
    """
    return weight_study(pvalues, supports, conditioning_stats, cfg).reject(alpha)
