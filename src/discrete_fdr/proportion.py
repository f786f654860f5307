"""Estimating the proportion of true null hypotheses on discrete supports.

The estimator scans a grid of "guiding values".  For each guiding value tau
and each hypothesis it finds the largest attainable p-value lambda <= tau in
the hypothesis's null support and contributes 1{p > lambda} / (1 - lambda);
hypotheses whose support has no point below tau contribute 1.  The estimate
is the minimum of these trial averages over the grid.  Per-group estimates
combine into an overall estimate by a group-size weighted average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyStudyError,
    InvalidConfigError,
    check_array,
    check_scalar,
    check_sequence,
)
from .grouping import Partition


@dataclass(frozen=True)
class Pi0Config:
    """Guiding values 0, step, 2*step, ..., lambda_max (inclusive); at most 10^5 steps."""

    lambda_max: float
    step: float

    def __post_init__(self):
        check_scalar("lambda_max", self.lambda_max, "be in (0, 1)")
        check_scalar("step", self.step, "be positive")
        check_scalar("lambda_max / step", self.lambda_max / self.step, "be in (1, 1e5]")

    def guiding_values(self) -> np.ndarray:
        # Multiples of step from 0; the final step is shortened when
        # lambda_max is not an exact multiple, keeping both endpoints.
        n_full = int(np.floor(self.lambda_max / self.step + 1e-9))
        taus = self.step * np.arange(n_full + 1)
        if taus[-1] > self.lambda_max or self.lambda_max - taus[-1] <= 1e-12:
            taus[-1] = self.lambda_max
        else:
            taus = np.append(taus, self.lambda_max)
        return taus


# Grid settings used for each test family in the reference simulations.
BINOMIAL_PI0_CONFIG = Pi0Config(lambda_max=0.2, step=0.0005)
FET_PI0_CONFIG = Pi0Config(lambda_max=0.5, step=0.008)


@dataclass(frozen=True)
class Pi0Estimate:
    """A proportion estimate with its trial-value trace.

    ``value`` is clamped to [0, 1]; ``raw_value`` is the unclamped minimum of
    the trial estimates and ``clamped`` records whether clamping changed it.
    """

    value: float
    raw_value: float
    clamped: bool
    trial_values: tuple[tuple[float, float], ...]


class _SupportError(InvalidConfigError):
    """A null support that is not a nonempty, strictly increasing 1-d array
    in (0, 1]; ``hypothesis`` is the first hypothesis that has it."""

    def __init__(self, hypothesis: int):
        super().__init__(
            f"support of hypothesis {hypothesis} must be a nonempty, strictly "
            "increasing 1-d array in (0, 1]"
        )
        self.hypothesis = hypothesis


def _trial_grid(pvalues, supports, taus: np.ndarray) -> np.ndarray:
    """Trial estimates at every guiding value; one pass per null class.

    A null class is the hypotheses whose supports are equal: the arrays
    that ``io.score_input`` shares among a statistic's hypotheses, merged
    with any distinct arrays of equal contents.  Within a class each
    hypothesis has the same lambda at each guiding value, so the class
    contributes (number of its p-values above lambda) / (1 - lambda),
    counted by binary search in its sorted p-values.  Classes are numbered
    and summed in order of first occurrence, never by memory address.  Each
    distinct array is checked once; ``_SupportError`` names the first
    hypothesis that has it.
    """
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    # the list keeps every support alive, so no two of them share an id
    supports = check_sequence("supports", supports)
    m = pvalues.size
    if m == 0:
        raise EmptyStudyError("no hypotheses")
    if len(supports) != m:
        raise InvalidConfigError("pvalues and supports must have equal length")
    ids = np.fromiter(map(id, supports), dtype=np.uintp, count=m)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    by_contents: dict = {}  # number and support of each class, by hash of contents
    array_class = np.empty_like(first)
    for j in np.argsort(first):
        i = int(first[j])
        s = check_array("support", supports[i], "lie in (0, 1], strictly increasing",
                        error=lambda message: _SupportError(i))
        if s.size == 0:
            raise _SupportError(i)
        key = hash(s.tobytes())  # of a 1-d support, so its bytes fix its shape
        if key in by_contents and not np.array_equal(by_contents[key][1], s):
            key = (key, j)  # equal hashes of unequal contents: a class of its own
        array_class[j], _ = by_contents.setdefault(key, (len(by_contents), s))
    classes = [s for _, s in by_contents.values()]
    cls = array_class[inverse]
    order = np.lexsort((pvalues, cls))
    p_sorted = pvalues[order]
    bounds = np.searchsorted(cls[order], np.arange(len(classes) + 1))
    total = np.zeros(taus.size)
    for c, s in enumerate(classes):
        p_class = p_sorted[bounds[c]:bounds[c + 1]]
        idx = np.searchsorted(s, taus, side="right") - 1
        contrib = np.full(taus.size, float(p_class.size))
        has_point = idx >= 0
        if np.any(has_point):
            lam = s[idx[has_point]]
            if np.any(lam >= 1.0):
                raise InvalidConfigError(
                    "a guiding value reached a support point of 1"
                )
            above = p_class.size - np.searchsorted(p_class, lam, side="right")
            contrib[has_point] = above / (1.0 - lam)
        total += contrib
    return total / m


def estimate_pi0(pvalues, supports, cfg: Pi0Config) -> Pi0Estimate:
    """Null-proportion estimate: minimum trial estimate over the grid.

    The raw minimum can exceed 1 on sparse data; the returned ``value`` is
    clamped to [0, 1] with the raw value kept in the estimate.  Raises
    ``InvalidConfigError`` for a p-value outside (0, 1] or NaN, and for a
    support that is not a nonempty, strictly increasing 1-d array in (0, 1].
    """
    taus = cfg.guiding_values()
    betas = _trial_grid(pvalues, supports, taus)
    raw = float(betas.min())
    value = min(raw, 1.0)
    return Pi0Estimate(
        value=value,
        raw_value=raw,
        clamped=raw > 1.0,
        trial_values=tuple(zip(taus.tolist(), betas.tolist())),
    )


def groupwise_pi0(
    pvalues, supports, partition: Partition, cfg: Pi0Config
) -> list[Pi0Estimate]:
    """Apply ``estimate_pi0`` to each group of the partition.

    An invalid support is reported by its hypothesis's index in the study.
    """
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    supports = check_sequence("supports", supports)
    if partition.m != pvalues.size:
        raise InvalidConfigError("partition does not cover the study")
    estimates = []
    for g in partition.groups:
        try:
            estimates.append(estimate_pi0(pvalues[g], [supports[i] for i in g], cfg))
        except _SupportError as err:
            raise _SupportError(int(g[err.hypothesis])) from None
    return estimates


def overall_pi0(partition: Partition, groupwise: list[Pi0Estimate]) -> float:
    """Size-weighted average of the clamped per-group estimates."""
    if len(groupwise) != len(partition.groups):
        raise InvalidConfigError(
            "one estimate per group required: "
            f"{len(groupwise)} estimates for {len(partition.groups)} groups"
        )
    try:
        values = np.array([e.value for e in groupwise])
    except AttributeError:
        raise InvalidConfigError(
            "each group estimate needs a value, as a Pi0Estimate has"
        ) from None
    sizes = np.array(partition.sizes, dtype=float)
    return float(np.dot(sizes, values) / sizes.sum())
