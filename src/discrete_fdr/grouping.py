"""Partition hypotheses by the similarity of their null p-value distributions.

Two strategies are provided.  The metric grouping extracts greedy metric
balls of adaptive radius from a pairwise distance matrix until the target
number of groups with the requested minimal size is reached.  A row of the
matrix may stand for several hypotheses, such as the copies of one
conditioning statistic, which are at distance 0 and so fall in the same
balls; the balls are then counted in hypotheses.  Building an m x m matrix
takes m(m-1)/2 distance calls, and one of more than ``MAX_DISTANCE_BYTES``
is refused.  The quantile grouping bins the conditioning statistics (total
counts, or one varying margin) at equally spaced percentiles, which is the
cheap equivalent for binomial-test and Fisher's-exact-test studies.
The package's classes come from ``_classes`` and ``_members`` here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdf_metric import SUPPORT_MATCH_RTOL, delta
from .errors import (
    GroupingDidNotConvergeError,
    InvalidConfigError,
    _shown,
    check_array,
    check_count,
    check_sequence,
)
from .exact_tests import DiscreteCDF, MarginalVector


@dataclass(frozen=True)
class GroupingConfig:
    """Target number of groups, minimal size of the last group, restart cap."""

    l_star: int
    g_star: int = 1
    max_restarts: int = 64

    def __post_init__(self):
        check_count("l_star", self.l_star, 1)
        check_count("g_star", self.g_star, 1)
        check_count("max_restarts", self.max_restarts)


@dataclass(frozen=True)
class Partition:
    """Disjoint index groups covering 0..m-1, in extraction order."""

    groups: tuple[np.ndarray, ...]
    radius_final: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # 2**63 casts to a negative
            groups = tuple(
                np.sort(check_array("group", g, "be nonnegative integers").astype(np.intp))
                for g in self.groups
            )
        if not groups or any(g.size == 0 for g in groups):
            raise InvalidConfigError("every group must be nonempty")
        merged = np.concatenate(groups)
        m = merged.size
        if not (0 <= merged.min() and merged.max() < m
                and (np.bincount(merged, minlength=m) == 1).all()):
            raise InvalidConfigError("groups must form a disjoint cover of 0..m-1")
        for g in groups:
            g.setflags(write=False)
        object.__setattr__(self, "groups", groups)

    @property
    def m(self) -> int:
        return int(sum(g.size for g in self.groups))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(g.size) for g in self.groups)

    def group_of(self) -> np.ndarray:
        """Group id of every hypothesis index."""
        out = np.empty(self.m, dtype=np.intp)
        for j, g in enumerate(self.groups):
            out[g] = j
        return out


def _checked_partition(partition, m: int | None = None) -> Partition:
    """``partition``, if it is a ``Partition`` of ``m`` hypotheses (of any number if None)."""
    if not isinstance(partition, Partition):
        raise InvalidConfigError(
            f"partition must be a Partition, got {type(partition).__name__}")
    if m not in (None, partition.m):
        raise InvalidConfigError("partition does not cover the study")
    return partition


def _classes(keys) -> tuple[np.ndarray, int]:
    """Equal keys, or equal rows of a 2-d array, numbered 0..k-1 by first occurrence; and k."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.reshape(-1)], first.size


def _members(labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``, label c's indices in index order being
    ``order[bounds[c]:bounds[c + 1]]``; up to k = 2^16 the sort is a radix sort."""
    order = np.argsort(labels.astype(np.min_scalar_type(max(k - 1, 0))), kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))


# More quantile groups than this are refused when they also outnumber the
# statistics, so a huge l_star never allocates that many percentiles.
MAX_QUANTILE_GROUPS = 1 << 16

# The largest distance matrix metric grouping builds: m x m float64 entries,
# so m <= 11,585.  A larger study is refused before anything is allocated.
MAX_DISTANCE_BYTES = 1 << 30

def pairwise_distances(items, distance) -> np.ndarray:
    """Symmetric matrix of ``distance(a, b)`` over all pairs of ``items``.

    Calls ``distance`` once per unordered pair, m(m-1)/2 times, and fills
    one row of the upper triangle per item and copies it to the mirror
    column, so no list of all the pairs is ever held.  The diagonal is 0.
    A matrix of more than ``MAX_DISTANCE_BYTES`` is refused with
    ``InvalidConfigError`` before ``distance`` is called.
    """
    items = list(items)
    m = len(items)
    needed = 8 * m * m
    if needed > MAX_DISTANCE_BYTES:
        raise InvalidConfigError(
            f"metric grouping of m = {m} hypotheses needs a {m} x {m} distance "
            f"matrix of {needed} bytes, more than MAX_DISTANCE_BYTES = "
            f"{MAX_DISTANCE_BYTES}"
        )
    out = np.zeros((m, m))
    for i in range(m - 1):
        a = items[i]
        out[i, i + 1:] = [distance(a, b) for b in items[i + 1:]]
        out[i + 1:, i] = out[i, i + 1:]
    return out


def pairwise_delta_matrix(
    cdfs, rtol: float = SUPPORT_MATCH_RTOL
) -> np.ndarray:
    """Symmetric matrix of CDF-metric totals for a sequence of CDFs."""
    cdfs = check_sequence("cdfs", cdfs)
    bad = next((i for i, c in enumerate(cdfs) if not isinstance(c, DiscreteCDF)), None)
    if bad is not None:
        raise InvalidConfigError(f"cdfs must be DiscreteCDF objects, got "
                                 f"{type(cdfs[bad]).__name__} at index {bad}")
    return pairwise_distances(cdfs, lambda f, g: delta(f, g, rtol=rtol).total)


def _attempt(within: np.ndarray, sizes: np.ndarray, l_star: int, g_star: int):
    """One pass of greedy ball extraction on the ball matrix ``within`` of a
    fixed radius, whose row i stands for ``sizes[i]`` hypotheses.

    A row's count is the number of hypotheses in no ball yet within the
    radius of it; the ball of the first row with the largest count is taken,
    so ties go to the lowest index.  Returns ("done", groups of row indices)
    on success, or ("halve" | "grow", None) when the radius must be adapted
    and the pass restarted from scratch.
    """
    alive = sizes.copy()  # the hypotheses of each row in no ball yet
    left = int(sizes.sum())
    groups: list[np.ndarray] = []
    for stage in range(1, l_star + 1):
        counts = np.einsum("ij,j->i", within, alive)
        counts[alive == 0.0] = -1.0  # a row in a ball is no centre
        center = int(np.argmax(counts))
        ball = np.flatnonzero(within[center] & (alive > 0.0))
        groups.append(ball)
        alive[ball] = 0.0
        left -= int(counts[center])
        if stage <= l_star - 1:
            if stage == l_star - 1 and left == g_star:
                # the leftover is exactly the minimal last group: take it
                groups.append(np.flatnonzero(alive))
                return "done", groups
            if left <= g_star:
                # too few left to form the remaining groups: shrink the balls
                return "halve", None
            # enough left: extract the next ball
        else:
            if left <= g_star:
                # fold the small leftover into the final ball
                if left:
                    groups[-1] = np.concatenate([groups[-1], np.flatnonzero(alive)])
                return "done", groups
            # leftover too large after the last ball: grow the balls
            return "grow", None
    raise AssertionError("unreachable")


def group_from_distances(dmat: np.ndarray, cfg: GroupingConfig, *,
                         sizes=None) -> Partition:
    """Greedy metric-ball grouping from a precomputed distance matrix.

    The initial radius is max distance / (2 * l_star).  The radius is halved
    whenever the remainder becomes too small before the last stage and grown
    by 1.5 when the final remainder is too large; each adaptation restarts
    the extraction.  If all pairwise distances vanish a single group is
    formed immediately.

    Row i stands for ``sizes[i]`` hypotheses, one each by default: copies
    of one conditioning statistic, at distance 0 from each other and alike
    from every other, so that each ball holds all of them or none.  Balls
    are counted, and the group sizes checked, in hypotheses; the partition
    is of the rows.  ``sizes`` must hold one positive integer per row.
    """
    dmat = check_array("distance matrix", dmat, ndim=2)
    delta_star = float(dmat.max(initial=0.0))
    if not (dmat.min(initial=0.0) >= 0.0 and delta_star < np.inf):
        # name the first bad entry; NaN fails both reductions above
        check_array("distance matrix", dmat, "be finite and nonnegative", ndim=2)
    m = dmat.shape[0]
    if dmat.shape != (m, m):
        raise InvalidConfigError("distance matrix must be square")
    sizes = np.ones(m) if sizes is None else check_array("sizes", sizes, "be positive integers")
    if sizes.size != m:
        raise InvalidConfigError(f"sizes must hold one count per row, got {sizes.size} "
                                 f"for {m} rows")
    if cfg.l_star * cfg.g_star > sizes.sum():
        raise InvalidConfigError(
            f"l_star * g_star = {cfg.l_star * cfg.g_star} exceeds m = {int(sizes.sum())}"
        )
    if cfg.l_star == 1 or delta_star == 0.0:
        return Partition((np.arange(m),), radius_final=0.0, iterations=0)

    sigma = delta_star / (2.0 * cfg.l_star)
    restarts = 0
    trace: list[tuple[float, str]] = []
    while True:
        outcome, groups = _attempt(dmat <= sigma, sizes, cfg.l_star, cfg.g_star)
        if outcome == "done":
            return Partition(tuple(groups), radius_final=sigma, iterations=restarts)
        trace.append((sigma, outcome))
        restarts += 1
        if restarts > cfg.max_restarts:
            raise GroupingDidNotConvergeError(
                f"no partition into {cfg.l_star} groups of size >= {cfg.g_star} "
                f"after {cfg.max_restarts} radius restarts",
                trace=trace,
            )
        sigma = sigma / 2.0 if outcome == "halve" else sigma * 1.5


def group_by_metric(cdfs, cfg: GroupingConfig) -> Partition:
    """Metric-ball grouping of p-value CDFs (greedy, adaptive radius)."""
    return group_from_distances(pairwise_delta_matrix(cdfs), cfg)


def group_by_statistic_quantiles(stats, l_star: int) -> Partition:
    """Bin finite conditioning statistics at equally spaced percentiles.

    ``stats`` are scalars (total counts) or ``MarginalVector`` margins, as
    ``score_input`` returns them.  Margins are binned on the first of
    ``m_obs``, ``n1`` and ``n2`` that varies across hypotheses; when none
    varies all hypotheses share one null distribution and form one group.
    Group j collects statistics in [q_{j-1}, q_j) with the last interval
    closed on the right; empty bins (coinciding quantiles) are dropped, which
    merges them into their nearest nonempty neighbour.
    """
    first = stats[0] if isinstance(stats, (list, tuple)) and stats else None
    try:
        if isinstance(first, MarginalVector):
            n1, n2, m_obs = np.array([s.as_tuple() for s in stats], dtype=float).T
            stats = next((c for c in (m_obs, n1, n2) if np.ptp(c) > 0), n1)
        stats = np.asarray(stats, dtype=float)
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise InvalidConfigError(
            "stats must be all real scalars or all MarginalVector margins, "
            "within float64's range"
        ) from None
    if check_array("stats", stats, "be finite").size == 0:
        raise InvalidConfigError("stats must be a nonempty 1-d sequence")
    check_count("l_star", l_star, 1)
    if l_star > max(stats.size, MAX_QUANTILE_GROUPS):
        raise InvalidConfigError("l_star must be at most max(m, {}), got {}".format(
            MAX_QUANTILE_GROUPS, _shown(l_star)))
    inner = np.percentile(stats, 100.0 * np.arange(1, l_star) / l_star)
    # the bin of a statistic is the number of inner percentiles at or below
    # it; an empty bin adds no bound of its own
    order, bounds = _members(np.searchsorted(inner, stats, side="right"), l_star)
    return Partition(tuple(np.split(order, np.unique(bounds)[1:-1])))
