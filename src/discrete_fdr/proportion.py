"""Estimating the proportion of true null hypotheses on discrete supports.

The estimator scans a grid of "guiding values".  For each guiding value tau
and each hypothesis it finds the largest attainable p-value lambda <= tau in
the hypothesis's null support and contributes 1{p > lambda} / (1 - lambda);
hypotheses whose support has no point below tau contribute 1.  The estimate
is the minimum of these trial averages over the grid.  Per-group estimates
combine into an overall estimate by a group-size weighted average.

The estimator works per null class, the hypotheses whose supports are
equal.  ``NullSupports`` carries the classes of a study: one checked array
per class and a class id per hypothesis.  ``io.score_input`` returns one;
a plain sequence of arrays becomes one at the boundary of each function
here.  The lambdas of all classes are found once per study and guiding
grid, one k x |tau| matrix kept on it, and a group of the partition reads
a view of it.
"""

from __future__ import annotations

import copy
import hashlib
from collections.abc import Sequence
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
from .grouping import Partition


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
    message = (f"support of hypothesis {hypothesis} must be a nonempty, strictly "
               "increasing 1-d array in (0, 1]")
    support = check_array("support", array, "lie in (0, 1], strictly increasing",
                          error=lambda _: InvalidConfigError(message))
    if support.size == 0:
        raise InvalidConfigError(message)
    return support


def _lambda_row(support: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """A class's lambda at each guiding value: its largest point at or below
    the value, or 0 where it has none, so that every p-value counts 1."""
    idx = np.searchsorted(support, taus, side="right") - 1
    return np.where(idx >= 0, support[idx], 0.0)


class NullSupports(Sequence):
    """The null supports of a study, one shared array per null class.

    A null class is the hypotheses whose supports have equal contents.
    ``classes`` holds one checked support per class, in order of first
    occurrence, and ``ids`` the class of each hypothesis, so ``supports[i]``
    is the array that hypothesis i shares with its class.

    ``NullSupports(arrays, ids)`` gives hypothesis i the support
    ``arrays[ids[i]]``.  Each array that a hypothesis has is checked once, and
    an invalid one is refused naming its first hypothesis; arrays of equal
    contents, told apart by a SHA-256 digest of their bytes, become one
    class.  The arrays must not change afterwards.

    ``io.score_input(..., pi0=cfg)`` returns the grid form, which keeps only
    the k x |tau| lambda matrix on the grid of ``cfg``.  It serves ``ids``,
    ``len``, ``take`` and the estimator on that grid; the supports (an item,
    iteration, ``classes``) and other grids raise ``NotApplicableError``.
    """

    def __init__(self, arrays, ids):
        arrays = check_sequence("support arrays", arrays)
        with np.errstate(invalid="ignore"):  # 2**63 casts to a negative
            ids = check_array("class ids", ids, "be nonnegative integers").astype(np.intp)
        if ids.size and not 0 <= ids.min() <= ids.max() < len(arrays):
            raise InvalidConfigError(
                f"class ids must be below the {len(arrays)} support arrays")
        _, first = np.unique(ids, return_index=True)  # each array's first hypothesis
        first = np.sort(first)
        self._classify(ids, first, (arrays[a] for a in ids[first].tolist()), None)

    @classmethod
    def _scored(cls, ids, arrays, pi0: Pi0Config | None) -> NullSupports:
        """The supports of statistics ``ids``, numbered in order of first
        occurrence, whose arrays the iterable ``arrays`` yields in that order;
        with a ``pi0`` config, the grid form on its guiding values."""
        supports = cls.__new__(cls)
        supports._classify(ids, np.unique(ids, return_index=True)[1], arrays, pi0)
        return supports

    def _classify(self, ids, first, arrays, pi0: Pi0Config | None) -> None:
        """Number the classes of ``arrays``, the arrays that the hypotheses
        ``first`` meet first, in that order, and keep each new class's
        support, or with a ``pi0`` config only its lambda row."""
        number = np.empty(ids.max(initial=-1) + 1, dtype=np.intp)  # each array's class
        classes, digests = [], {}  # the classes by the digest of their bytes
        if pi0 is not None:  # a row per array; the classes take the first rows
            taus = pi0.guiding_values()
            rows = np.empty((first.size, taus.size))
        for i, array in zip(first.tolist(), arrays):
            s = _checked_support(array, i)
            # of a 1-d float support, so its bytes fix its shape and contents
            key = hashlib.sha256(np.ascontiguousarray(s)).digest()
            c = digests.get(key)
            if c is None:
                c = digests[key] = len(digests)
                if pi0 is None:
                    classes.append(s)
                else:
                    rows[c] = _lambda_row(s, taus)
            number[ids[i]] = c
        self.ids, self._pi0 = number[ids], pi0
        self.ids.setflags(write=False)
        self._classes = tuple(classes) if pi0 is None else None
        self._rows = {} if pi0 is None else {taus.tobytes(): rows[:len(digests)]}

    @property
    def classes(self) -> tuple:
        if self._classes is None:
            raise NotApplicableError(
                f"these null supports keep only their lambda rows on the grid of {self._pi0}")
        return self._classes

    @classmethod
    def of(cls, supports) -> NullSupports:
        """``supports`` itself if it is a ``NullSupports``.  Otherwise its
        distinct arrays, taken by identity in order of first occurrence, each
        checked once, with equal contents merged into one class."""
        if isinstance(supports, NullSupports):
            return supports
        # the list keeps every support alive, so no two of them share an id
        supports = check_sequence("supports", supports)
        ids = np.fromiter(map(id, supports), dtype=np.uintp, count=len(supports))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        return cls([supports[i] for i in first], inverse)

    def take(self, indices) -> NullSupports:
        """The supports of the hypotheses ``indices``, in that order, sharing
        this study's classes and lambda rows."""
        view = copy.copy(self)
        view.ids = self.ids[indices]
        view.ids.setflags(write=False)
        return view

    def _lambda_rows(self, taus: np.ndarray) -> np.ndarray:
        """The k x |taus| matrix of ``_lambda_row`` of every class, built on
        the first call with these guiding values and kept for the study; the
        grid form has the rows of its own grid only."""
        key = taus.tobytes()
        if key not in self._rows:
            classes = self.classes
            self._rows.clear()  # a study keeps the rows of one grid
            rows = self._rows[key] = np.empty((len(classes), taus.size))
            for row, s in zip(rows, classes):
                row[:] = _lambda_row(s, taus)
        return self._rows[key]

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return self.classes[self.ids[i]]

    def __iter__(self):
        return map(self.classes.__getitem__, self.ids.tolist())


def _checked_study(pvalues, supports) -> tuple[np.ndarray, NullSupports]:
    """``pvalues`` checked to lie in (0, 1], and ``supports`` as a
    ``NullSupports``; their lengths must agree."""
    pvalues = check_array("p-values", pvalues, "lie in (0, 1]")
    supports = NullSupports.of(supports)
    if len(supports) != pvalues.size:
        raise InvalidConfigError("pvalues and supports must have equal length")
    return pvalues, supports


def _trial_grid(pvalues, supports, taus: np.ndarray) -> np.ndarray:
    """Trial estimates at the ascending guiding values; one pass per class.

    Within a null class each hypothesis has the same lambda at each guiding
    value, so the class contributes (number of its p-values above lambda) /
    (1 - lambda), counted by binary search in its sorted p-values: its size
    where no point lies below the guiding value and lambda is 0.  The
    classes present are summed in order of their first hypothesis here.
    """
    pvalues, supports = _checked_study(pvalues, supports)
    m = pvalues.size
    if m == 0:
        raise EmptyStudyError("no hypotheses")
    lams, ids = supports._lambda_rows(taus), supports.ids
    k = len(lams)
    # the hypotheses of each class together, in index order; numpy's stable
    # sort of 8- and 16-bit integers is a radix sort
    order = np.argsort(ids.astype(np.min_scalar_type(k - 1)), kind="stable")
    sizes = np.bincount(ids, minlength=k)
    ends = np.cumsum(sizes)
    present = np.flatnonzero(sizes)
    present = present[np.argsort(order[(ends - sizes)[present]])]
    if np.any(lams[present, -1] >= 1.0):  # the largest lambda of each class
        raise InvalidConfigError("a guiding value reached a support point of 1")
    total = np.zeros(taus.size)
    for c in present.tolist():
        lam, size = lams[c], sizes[c]
        p_class = np.sort(pvalues[order[ends[c] - size:ends[c]]])
        total += (size - np.searchsorted(p_class, lam, "right")) / (1.0 - lam)
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

    The supports are checked once for the study, and an invalid one is
    reported by its first hypothesis's index in the study.
    """
    pvalues, supports = _checked_study(pvalues, supports)
    if partition.m != pvalues.size:
        raise InvalidConfigError("partition does not cover the study")
    return [estimate_pi0(pvalues[g], supports.take(g), cfg) for g in partition.groups]


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
