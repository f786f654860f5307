"""A metric on discrete CDFs and its cheap surrogate on conditioning statistics.

The metric adds two components: the number of support points the two CDFs do
not share (counting measure of the symmetric difference) and the sup-norm gap
between the CDFs.  Metric grouping uses a cheap surrogate instead: the
max-absolute difference between the conditioning statistics (total counts
or margins), which ``marginal_distance`` computes.  The two do not order
pairs alike: over the 61-63 two-sided binomial null classes of 1,500
Pareto(7, 7) Poisson pairs, the Spearman correlation of ``delta`` with
``marginal_distance`` was 0.13-0.27 on three seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidComparisonError, InvalidConfigError, check_scalar
from .exact_tests import DiscreteCDF, MarginalVector

# Two support points count as the same attainable p-value when they agree to
# this relative tolerance.  The construction treats coincidence as exact; the
# tolerance only absorbs floating-point noise in log-space p-values.
SUPPORT_MATCH_RTOL = 1e-8


@dataclass(frozen=True)
class MetricValue:
    """The two components of the CDF metric and their sum."""

    jump_count_diff: int
    sup_norm: float

    @property
    def total(self) -> float:
        return self.jump_count_diff + self.sup_norm


def support_symmetric_difference_count(
    f: DiscreteCDF, g: DiscreteCDF, rtol: float = SUPPORT_MATCH_RTOL
) -> int:
    """Number of support points of ``f`` and ``g`` that are not shared.

    Point equality is judged at relative tolerance ``rtol``; matching walks
    both sorted supports once, so each point pairs with at most one point of
    the other support.
    """
    check_scalar("rtol", rtol, "be nonnegative")
    a = f.support
    b = g.support
    i = j = matches = 0
    while i < a.size and j < b.size:
        x, y = a[i], b[j]
        if abs(x - y) <= rtol * max(x, y):
            matches += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return int(a.size + b.size - 2 * matches)


def sup_norm_diff(f: DiscreteCDF, g: DiscreteCDF) -> float:
    """Supremum-norm distance between two step CDFs.

    Evaluated right-continuously on the union of the jump points, which is
    exact for step functions (no grid approximation).
    """
    points = np.union1d(f.support, g.support)
    return float(np.max(np.abs(f.cdf(points) - g.cdf(points))))


def delta(
    f: DiscreteCDF, g: DiscreteCDF, rtol: float = SUPPORT_MATCH_RTOL
) -> MetricValue:
    """The CDF metric: jump-count symmetric difference plus sup-norm gap."""
    return MetricValue(
        jump_count_diff=support_symmetric_difference_count(f, g, rtol=rtol),
        sup_norm=sup_norm_diff(f, g),
    )


def marginal_distance(s, t) -> float:
    """Max-absolute difference between two conditioning statistics.

    Both arguments must be of the same kind: scalar total counts (binomial
    test) or ``MarginalVector`` margins (Fisher's exact test); the result is
    a Python ``float``.  Each total or margin is converted to float before
    the subtraction, so statistics above 2**53 give the same value as
    float64 arrays of them would, and statistics of equal floats are at
    the same distance from every other.  Metric grouping calls this once per pair
    of hypotheses, so the kinds are tested cheapest first: Python float
    totals (what the scorer produces), then margins, then any other real
    scalar, numpy floats among them.  A statistic or difference beyond
    float64's range raises ``InvalidConfigError``.
    """
    if type(s) is float and type(t) is float:
        return abs(s - t)
    try:
        if isinstance(s, MarginalVector) and isinstance(t, MarginalVector):
            return max(
                abs(float(s.n1) - float(t.n1)),
                abs(float(s.n2) - float(t.n2)),
                abs(float(s.m_obs) - float(t.m_obs)),
            )
        if isinstance(s, Real) and isinstance(t, Real):
            return abs(float(s) - float(t))
    except OverflowError:
        raise InvalidConfigError(
            "conditioning statistics must lie within float64's range") from None
    raise InvalidComparisonError(
        f"cannot compare conditioning statistics of kinds "
        f"{type(s).__name__} and {type(t).__name__}"
    )
