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
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .cdf_metric import marginal_distance
from .errors import (
    GroupingDidNotConvergeError,
    InvalidConfigError,
    InvalidEstimateError,
    NotApplicableError,
    check_array,
    check_scalar,
    check_sequence,
)
from .exact_tests import MarginalVector
from .grouping import (
    GroupingConfig,
    Partition,
    _checked_partition,
    _classes,
    _members,
    group_by_statistic_quantiles,
    group_from_distances,
    pairwise_distances,
)
from .proportion import (
    Pi0Config,
    Pi0Estimate,
    _checked_study,
    groupwise_pi0,
    overall_pi0,
)


@dataclass(frozen=True)
class WfdrConfig:
    """Grouping and null-proportion settings for the weighted procedure; ``pi0``
    None means the supports' own grid, ``BINOMIAL_PI0_CONFIG`` for a plain sequence."""

    l_star: int = 3
    g_star: int = 1
    grouping: str = "quantile"  # "quantile" or "metric"
    pi0: Pi0Config | None = None

    def __post_init__(self):
        if self.grouping not in ("quantile", "metric"):
            raise InvalidConfigError(
                f"grouping must be 'quantile' or 'metric', got {self.grouping!r}"
            )
        GroupingConfig(l_star=self.l_star, g_star=self.g_star)  # checks both
        if not isinstance(self.pi0, (Pi0Config, type(None))):
            raise InvalidConfigError(f"pi0 must be a Pi0Config, got {self.pi0!r}")
        if self.g_star != 1 and self.grouping != "metric":
            raise InvalidConfigError(
                f"g_star applies to metric grouping only, got g_star={self.g_star} "
                f"with grouping={self.grouping!r}"
            )


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of one procedure on one study.

    ``rejected`` holds sorted 0-based hypothesis indices.  ``threshold`` is
    the realised rejection threshold on the scale the procedure compares
    against (weighted p-values for the weighted procedure, raw p-values for
    BH); it is 0 when nothing is rejected.  The partition, weights and
    null-proportion estimates of the weighted procedure are in the
    ``WeightedStudy`` whose ``reject`` made the report.
    """

    procedure: str
    rejected: np.ndarray
    threshold: float

    def __post_init__(self):
        rejected = np.sort(np.asarray(self.rejected, dtype=np.intp))
        rejected.setflags(write=False)
        object.__setattr__(self, "rejected", rejected)

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.size)


def group_weights(groupwise_estimates) -> np.ndarray:
    """Per-group weights pi/(1 - pi), infinite where the estimate is 1."""
    if isinstance(groupwise_estimates, (list, tuple)):  # of numbers or Pi0Estimates
        groupwise_estimates = [getattr(e, "value", e) for e in groupwise_estimates]
    pi = check_array("group estimates", groupwise_estimates, "be in [0, 1]",
                     error=InvalidEstimateError)
    with np.errstate(divide="ignore"):  # 1/0 is inf
        return pi / (1.0 - pi)


def weighted_pvalues(pvalues, partition: Partition, weights) -> np.ndarray:
    """p-values multiplied by their group's weight (infinite stays infinite);
    raises ``InvalidConfigError`` for a p-value outside (0, 1] or NaN."""
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    weights = check_array("weights", weights, "be nonnegative")
    if len(weights) != len(_checked_partition(partition, pvalues.size).groups):
        raise InvalidConfigError("one weight per group required")
    return pvalues * weights[partition.group_of()]


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
    Raises ``InvalidEstimateError`` for ``pi0_overall`` outside [0, 1] or NaN
    and ``InvalidConfigError`` for a weighted p-value that is NaN or negative.
    """
    check_scalar("alpha", alpha, "be in [0, 1]")
    check_scalar("pi0_overall", pi0_overall, "be in [0, 1]", error=InvalidEstimateError)
    weighted = check_array("weighted p-values", weighted, "be nonnegative")
    if pi0_overall == 1.0:
        return 0.0
    return _step_up_threshold(weighted, 1.0 - pi0_overall, alpha)


def bh_reject(pvalues, alpha: float) -> RejectionReport:
    """Benjamini-Hochberg step-up procedure.

    Rejects the k smallest p-values where k is the largest index with
    p_(k) <= k * alpha / m; rejects nothing when no index qualifies.
    Raises ``InvalidConfigError`` for a p-value outside (0, 1] or NaN.
    """
    check_scalar("alpha", alpha, "be in [0, 1]")
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    threshold = _step_up_threshold(pvalues, 1.0, alpha)
    # p-values are positive, so threshold 0 rejects nothing
    rejected = np.flatnonzero(pvalues <= threshold)
    return RejectionReport(procedure="bh", rejected=rejected, threshold=threshold)


def theorem1_compare(pvalues, weighted, pi0_overall: float, alpha: float):
    """Step-up counts of both procedures and whether the weighted one wins.

    Returns (k_star, k_tilde_star, wfdr_geq_bh) where k_star counts BH
    rejections, k_tilde_star counts weighted rejections, and the flag is
    k_tilde_star >= k_star.  Undefined when the overall estimate is 1.
    ``alpha`` and ``pvalues`` are validated as in ``bh_reject``, the other
    two inputs as in ``rejection_threshold``; ``weighted`` must be as long
    as ``pvalues``.
    """
    k_star = bh_reject(pvalues, alpha).n_rejected
    weighted = check_array("weighted p-values", weighted)
    if weighted.size != np.size(pvalues):
        raise InvalidConfigError("pvalues and weighted must have equal lengths")
    tau = rejection_threshold(alpha, weighted, pi0_overall)
    if pi0_overall == 1.0:
        raise NotApplicableError(
            "comparison requires an overall null-proportion estimate below 1"
        )
    k_tilde_star = int(np.count_nonzero(weighted <= tau))
    return k_star, k_tilde_star, k_tilde_star >= k_star


def _metric_partition(stats: list, cfg: WfdrConfig) -> Partition:
    # margins are finite by construction; two kinds fail to compare below
    check_array("stats", [s for s in stats if isinstance(s, Real)], "be finite")
    dmat = pairwise_distances(stats, marginal_distance)
    # statistics equal as the floats that marginal_distance compares are at
    # distance 0 from each other and alike from the rest: one row each, in
    # order of first occurrence, standing for all their hypotheses
    values = check_array("stats", [s.as_tuple() if isinstance(s, MarginalVector) else s
                                   for s in stats], ndim=None)
    label, k = _classes(values)  # the row of each hypothesis
    order, bounds = _members(label, k)
    first = order[bounds[:-1]]
    # their k x k distances, gathered into the matrix's top-left corner: row
    # first[i] >= i moves up to row i, onto no row still to be read, so no
    # second matrix is made
    for i, r in enumerate(first.tolist()):
        dmat[i, :k] = dmat[r, first]
    grouping_cfg = GroupingConfig(l_star=cfg.l_star, g_star=cfg.g_star)
    try:
        part = group_from_distances(dmat[:k, :k], grouping_cfg, sizes=np.diff(bounds))
    except GroupingDidNotConvergeError:
        warnings.warn(
            "metric grouping did not converge; falling back to quantile grouping",
            RuntimeWarning,
            stacklevel=3,
        )
        return group_by_statistic_quantiles(stats, cfg.l_star)
    order, bounds = _members(part.group_of()[label], len(part.groups))  # by group
    return Partition(tuple(order[a:b] for a, b in zip(bounds[:-1], bounds[1:])),
                     radius_final=part.radius_final, iterations=part.iterations)


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
        return RejectionReport(procedure="wfdr", rejected=rejected, threshold=threshold)


def weight_study(pvalues, supports, conditioning_stats, cfg: WfdrConfig) -> WeightedStudy:
    """The steps of the weighted procedure that do not depend on alpha.

    Groups the hypotheses (quantile binning of the conditioning statistics by
    default, metric-ball grouping on their pairwise distances when
    ``cfg.grouping == "metric"``), estimates the null proportion per group
    and weights the p-values.  Raises ``InvalidConfigError`` for a p-value
    outside (0, 1] or NaN or off the support array listed with it, for
    inputs of unequal lengths, for more groups than hypotheses, or for
    statistics that are not finite numbers or all margins;
    ``NotApplicableError`` for a ``cfg.pi0`` other than a ``NullSupports``' grid.
    """
    if not isinstance(cfg, WfdrConfig):
        raise InvalidConfigError(f"cfg must be a WfdrConfig, got {cfg!r}")
    pvalues, supports = _checked_study(pvalues, supports, cfg.pi0)
    stats = check_sequence("conditioning_stats", conditioning_stats)
    if len(stats) != pvalues.size:
        raise InvalidConfigError("pvalues and conditioning_stats must have equal length")
    if cfg.l_star > pvalues.size:
        raise InvalidConfigError(f"l_star = {cfg.l_star} exceeds m = {pvalues.size}")

    if cfg.grouping == "metric":
        partition = _metric_partition(stats, cfg)
    else:
        partition = group_by_statistic_quantiles(stats, cfg.l_star)

    estimates = tuple(groupwise_pi0(pvalues, supports, partition))
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
