"""Estimating the proportion of true null hypotheses on discrete supports.

The estimator scans a grid of "guiding values".  For each guiding value tau
and each hypothesis it finds the largest attainable p-value lambda <= tau in
the hypothesis's null support and contributes 1{p > lambda} / (1 - lambda);
hypotheses whose support has no point below tau contribute 1.  The estimate
is the minimum of these trial averages over the grid.  Per-group estimates
combine into an overall estimate by a group-size weighted average.

The estimator works per null class, the hypotheses whose supports are
equal.  ``NullSupports`` carries the classes of a study on one grid: a
class id per hypothesis and the k x |tau| matrix of the classes' lambdas,
found once per study from each label's members, which it gathers itself;
a group of the partition reads a view.  ``io.score_input`` returns one,
and ``estimate_pi0`` checks a study once and then reads its classes.  The
functions here read the grid from it; they convert a plain sequence on the
grid given them, or on ``BINOMIAL_PI0_CONFIG``, telling its arrays apart
by ``grouping._classes``.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyStudyError,
    InvalidConfigError,
    NotApplicableError,
    check_array,
    check_scalar,
    check_sequence,
)
from .grouping import Partition, _checked_partition, _classes, _members


@dataclass(frozen=True)
class Pi0Config:
    """Guiding values 0, step, 2*step, ..., lambda_max (inclusive); at most 10^5 steps."""

    lambda_max: float
    step: float

    def __post_init__(self):
        check_scalar("lambda_max", self.lambda_max, "be in (0, 1)")
        check_scalar("step", self.step, "be in (0, 1)")
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
# the default grid of each exact test, keyed by the test's name
_PI0_CONFIGS = {"binomial": BINOMIAL_PI0_CONFIG, "fet": FET_PI0_CONFIG}


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


def _checked_support(array, hypothesis: int) -> np.ndarray:
    """``array`` as a support: a nonempty, strictly increasing 1-d float
    array in (0, 1]; otherwise an error names ``hypothesis``."""
    name = f"support of hypothesis {hypothesis}"
    support = check_array(name, array, "lie in (0, 1], strictly increasing")
    if support.size == 0:
        raise InvalidConfigError(f"{name} must be nonempty")
    return support


class NullSupports:
    """The null supports of a study, kept as its null classes' lambda rows.

    A null class is the hypotheses whose supports have equal contents, and
    ``ids`` holds the class of each hypothesis, numbered in order of first
    occurrence.  The estimator reads only lambda, each class's largest
    support point at or below each guiding value, so a study keeps one
    k x |tau| matrix of them on the grid of its ``Pi0Config`` and no support.
    ``ids``, ``len``, ``take`` and the estimator on that grid work; another
    grid raises ``NotApplicableError`` naming the kept config.

    ``io.score_input`` returns one, and a plain sequence of arrays becomes
    one at the boundary of each function that takes supports.  Arrays of
    equal contents, told apart by a SHA-256 digest of their bytes, form one
    class.
    """

    def __init__(self, ids, pi0: Pi0Config, support_of):
        """The supports of hypotheses whose arrays, or statistics, are
        labelled ``ids``, numbered 0..k-1: each label's members, in index
        order, are gathered here and read once as ``support_of(members)``,
        and each class of equal supports keeps its lambda row on the grid of
        ``pi0``.  Built by ``score_input`` and ``_listed``."""
        if not isinstance(pi0, Pi0Config):
            raise InvalidConfigError(f"pi0 must be a Pi0Config, got {pi0!r}")
        taus = pi0.guiding_values()
        order, bounds = _members(ids, ids.max(initial=-1) + 1)
        number = np.empty(bounds.size - 1, dtype=np.intp)  # each label's class
        rows = np.empty((number.size, taus.size))  # a row per label; the classes take the first
        digests = {}  # the classes by the digest of their bytes
        for a in range(number.size):
            s = support_of(order[bounds[a]:bounds[a + 1]])
            # of a 1-d float support, so its bytes fix its shape and contents
            key = hashlib.sha256(np.ascontiguousarray(s)).digest()
            c = digests.get(key)
            if c is None:
                c = digests[key] = len(digests)
                # lambda: the largest point at or below each guiding value,
                # or 0 where there is none, so that every p-value counts 1
                idx = np.searchsorted(s, taus, side="right") - 1
                rows[c] = np.where(idx >= 0, s[idx], 0.0)
            number[a] = c
        self.ids, self._pi0, self._rows = number[ids], pi0, rows[:len(digests)]
        self.ids.setflags(write=False)

    @classmethod
    def _listed(cls, supports: list, pvalues: np.ndarray, pi0: Pi0Config) -> NullSupports:
        """The supports of a plain sequence as long as ``pvalues``: its
        distinct arrays, taken by identity, each checked once together with
        the p-values of its hypotheses, which must be points of it."""
        # the list keeps every support alive, so no two of them share an id
        ids = _classes(np.fromiter(map(id, supports), dtype=np.uintp, count=len(supports)))[0]

        def support_of(hypotheses):
            s, p = _checked_support(supports[hypotheses[0]], hypotheses[0]), pvalues[hypotheses]
            off = np.flatnonzero(s[np.minimum(np.searchsorted(s, p), s.size - 1)] != p)
            if off.size:
                raise InvalidConfigError(
                    f"p-value of hypothesis {hypotheses[off[0]]} is not a point of its support")
            return s

        return cls(ids, pi0, support_of)

    def take(self, indices) -> NullSupports:
        """The supports of the hypotheses ``indices``, in that order, sharing
        this study's classes and lambda rows."""
        view = copy.copy(self)
        view.ids = self.ids[indices]
        view.ids.setflags(write=False)
        return view

    def __len__(self) -> int:
        return self.ids.size


def _checked_study(pvalues, supports, pi0: Pi0Config | None = None) -> tuple[np.ndarray, NullSupports]:
    """``pvalues`` checked to lie in (0, 1], and ``supports`` as a
    ``NullSupports`` on its own grid, which ``pi0``, if given, must be; their
    lengths must agree.  A plain sequence of arrays is converted on ``pi0``
    or ``BINOMIAL_PI0_CONFIG``, and the p-values of its hypotheses must be
    points of their supports."""
    if not isinstance(pi0, (Pi0Config, type(None))):
        raise InvalidConfigError(f"pi0 must be a Pi0Config, got {pi0!r}")
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    if not isinstance(supports, NullSupports):
        supports = check_sequence("supports", supports)
        if len(supports) == pvalues.size:
            supports = NullSupports._listed(supports, pvalues, pi0 or BINOMIAL_PI0_CONFIG)
    elif pi0 not in (None, supports._pi0):
        raise NotApplicableError(
            f"these null supports keep only their lambda rows on the grid of {supports._pi0}")
    if len(supports) != pvalues.size:
        raise InvalidConfigError("pvalues and supports must have equal length")
    return pvalues, supports


def estimate_pi0(pvalues, supports, cfg: Pi0Config | None = None) -> Pi0Estimate:
    """Null-proportion estimate: minimum trial estimate over the grid.

    The grid is the one a ``NullSupports`` carries; a plain sequence's is
    ``cfg`` or ``BINOMIAL_PI0_CONFIG``.  Within a null class each hypothesis
    has the same lambda at each guiding value, so the class contributes
    (number of its p-values above lambda) / (1 - lambda), counted by binary
    search in its sorted p-values; the classes present are summed in order
    of their first hypothesis and divided by m.  The raw minimum can exceed
    1 on sparse data; the returned ``value`` is clamped to [0, 1] with the
    raw value kept in the estimate.  Raises ``EmptyStudyError`` for no
    hypotheses; ``InvalidConfigError`` for a ``cfg`` that is not a
    ``Pi0Config``, a p-value outside (0, 1] or NaN, a support that is not a
    nonempty, strictly increasing 1-d array in (0, 1], and a p-value that is
    not a point of the support listed with it; ``NotApplicableError`` for a
    ``cfg`` other than a ``NullSupports``' grid.
    """
    pvalues, supports = _checked_study(pvalues, supports, cfg)
    if pvalues.size == 0:
        raise EmptyStudyError("no hypotheses")
    lams, ids = supports._rows, supports.ids
    order, bounds = _members(ids, len(lams))
    starts = bounds[:-1][np.diff(bounds) > 0]  # of the classes present
    total = np.zeros(lams.shape[1])
    for c in ids[np.sort(order[starts])].tolist():
        lam, p_class = lams[c], np.sort(pvalues[order[bounds[c]:bounds[c + 1]]])
        total += (p_class.size - np.searchsorted(p_class, lam, "right")) / (1.0 - lam)
    betas = total / pvalues.size
    raw = float(betas.min())
    return Pi0Estimate(value=min(raw, 1.0), raw_value=raw, clamped=raw > 1.0,
                       trial_values=tuple(zip(supports._pi0.guiding_values().tolist(),
                                              betas.tolist())))


def groupwise_pi0(pvalues, supports, partition: Partition,
                  cfg: Pi0Config | None = None) -> list[Pi0Estimate]:
    """Apply ``estimate_pi0`` to each group of the partition.

    The supports are checked once for the study, and an invalid one is
    reported by its first hypothesis's index in the study.
    """
    pvalues, supports = _checked_study(pvalues, supports, cfg)
    _checked_partition(partition, pvalues.size)
    return [estimate_pi0(pvalues[g], supports.take(g)) for g in partition.groups]


def overall_pi0(partition: Partition, groupwise: list[Pi0Estimate]) -> float:
    """Size-weighted average of the clamped per-group estimates."""
    if len(groupwise) != len(_checked_partition(partition).groups):
        raise InvalidConfigError(f"one estimate per group required: {len(groupwise)} "
                                 f"estimates for {len(partition.groups)} groups")
    try:
        values = np.array([e.value for e in groupwise])
    except AttributeError:
        raise InvalidConfigError(
            "each group estimate needs a value, as a Pi0Estimate has"
        ) from None
    sizes = np.array(partition.sizes, dtype=float)
    return float(np.dot(sizes, values) / sizes.sum())
