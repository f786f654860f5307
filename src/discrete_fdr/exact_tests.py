"""Exact conditional tests for discrete count data.

Two tests are provided: the binomial test for a pair of Poisson counts
(conditioning on their total) and Fisher's exact test for a 2x2 table
(conditioning on the joint margins).  Each test exposes both the observed
p-value and the full null distribution of the p-value as a step CDF, i.e.
the attainable p-values together with their probabilities under the null.

Log weights are sums of log-factorials, exponentiated relative to the
mode's, and divided by the sum of the positive weights, so the masses sum to
one to rounding; binomial totals up to 1e7 and Fisher margins of 1e6 cases
among 1e7 events have been checked.  Beyond about 1e9 the difference of
log-factorials cancels, and errors grow: a one-sided p-value of the margins
(N, N, 4) is off by 2e-6 relative at N = 1e9 and by 4e-3 at 1e12.  A total
or margin at or above 2^53, which float64 cannot hold exactly, is refused
with a ``DegenerateDataError`` before it is converted.

A log-factorial is ``gammaln(x + 1.0)``, read from one shared table for x
below ``LOG_FACTORIAL_CAP`` (at most 1 MiB, built on first use and grown by
doubling) and evaluated per window above it.
Only the outcomes whose probability double precision can represent are
enumerated: bisection on the concave log weight, in scalars with
``math.lgamma``, finds the window within ``WINDOW_LOG_MARGIN`` of the mode's,
and everything outside it would underflow to a weight of 0.0.  For
drug-safety margins that is a small fraction of the full range, and the
results are bit-identical to enumerating all of it the same way.  An
observed outcome outside the window, a signal too strong to be represented,
takes the p-value of the nearest kept outcome: a support point, never below
the exact p-value by more than the underflowed mass, 2.5e-324 per outcome
at most.  A window of more than ``MAX_WINDOW_OUTCOMES`` outcomes (a binomial
total beyond about 10^10) is refused with a ``DegenerateDataError`` before
anything is allocated for it.

A table keeps three arrays: its support, its masses and the canonical
p-value of each kept outcome, built with few temporaries.  One buffer
holds the log weights, then the weights, then the PMF.  The p-values come
out in ascending order with the outcome of each: one-sided they are sorted
already.  Two-sided, the rule sorts the PMF and searches only for the
outcomes tied with their successor; a table with two equal p-values is then
lexsorted a second time, so each run of them is in outcome order.  The
aggregation takes them as they are, walks only the chains of close
p-values that span more than the tolerance, and sums and repeats atoms only
when one holds more than one value: rare in drug-safety Fisher tables,
while each pair k, total - k of a two-sided binomial table is one atom.
That is 16-17 bytes per kept outcome in binomial tables, and up to 24 when
every outcome is an atom of its own.  While a table builds, its arrays peak
at no more than 80 bytes per kept outcome (tracemalloc; the bound the tests
check at a binomial total of 10^8).

Both tests memoise their tables in one memo, as simulations repeat totals
from study to study; no result depends on it.  The memo is bounded by the
bytes its tables' arrays hold, ``MEMO_BYTES``: once they hold more, the
oldest tables are dropped, but the newest always stays, so a table larger
than the budget is still built only once for the hypotheses that share it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (
    DegenerateDataError,
    InvalidConfigError,
    InvalidTableError,
    _shown,
    check_array,
    check_count,
)

# Outcomes whose null probability is within this relative tolerance of the
# observed outcome's probability count as "equally likely" in the two-sided
# rule.  Needed because log-space PMFs perturb exact rational ties.
PROB_TIE_RTOL = 1e-12

# P-values within this relative tolerance collapse into a single support atom.
AGGREGATION_RTOL = 1e-10

# Outcomes whose log weight lies further than this below the mode's have a
# PMF of exactly 0.0: their weight relative to the mode's underflows, since
# exp does below -745.13, and the normalising sum of the weights is at least
# the mode's weight of 1.  The slack beyond 745 absorbs the rounding of the
# scalar log weights that place the window: ``math.lgamma`` rounds
# differently from ``gammaln``, by far less than 55.
WINDOW_LOG_MARGIN = 800.0

# A window of more outcomes than this is refused before it is evaluated.  At
# most 80 bytes per window outcome while a table builds, the limit caps that
# peak near 0.34 GB; binomial totals up to 10^9 (1.26 million outcomes) and
# Fisher margins of 10^6 cases among 10^7 events (22,762) stay well inside it.
MAX_WINDOW_OUTCOMES = 1 << 22

MEMO_BYTES = 1 << 20  # bytes of null tables memoised, the newest always kept

# The shared table of log-factorials holds at most this many entries (1 MiB);
# larger arguments are evaluated with ``gammaln`` for each window.  Each entry
# depends on its index alone, so sharing the table changes no result.
LOG_FACTORIAL_CAP = 1 << 17
_LOG_FACTORIALS = np.empty(0)


class Sidedness(enum.Enum):
    """Alternative hypothesis orientation of a conditional test."""

    ONE_SIDED = "one"
    TWO_SIDED = "two"

    # members are singletons, so identity hashing agrees with equality and
    # spares the memo the hash of the name on every lookup
    __hash__ = object.__hash__


def _sidedness(sided) -> Sidedness:
    """``sided``, or the ``Sidedness`` whose value, "one" or "two", it is."""
    try:
        return sided if isinstance(sided, Sidedness) else Sidedness(sided)
    except ValueError:
        raise InvalidConfigError(
            f"sided must be a Sidedness, 'one' or 'two', got {sided!r}") from None


@dataclass(frozen=True)
class PoissonPair:
    """Observed counts from two independent Poisson distributions."""

    c1: int
    c2: int

    def __post_init__(self):
        c1, c2 = self.c1, self.c2
        if not (type(c1) is int and c1 >= 0 and type(c2) is int and c2 >= 0):
            check_count("c1", c1)
            check_count("c2", c2)

    @property
    def total(self) -> int:
        return int(self.c1) + int(self.c2)


@dataclass(frozen=True)
class MarginalVector:
    """Joint margins (n1, n2, m_obs) of a 2x2 table with fixed row totals.

    ``n1`` and ``n2`` are the two row totals and ``m_obs`` the first column
    total; these determine the null (central hypergeometric) distribution of
    the upper-left cell.
    """

    n1: int
    n2: int
    m_obs: int

    def __post_init__(self):
        check_count("n1", self.n1)
        check_count("n2", self.n2)
        check_count("m_obs", self.m_obs)
        if self.m_obs > self.n1 + self.n2:
            raise InvalidConfigError("m_obs={} exceeds n1+n2={}".format(
                *map(_shown, (self.m_obs, self.n1 + self.n2))))

    def as_tuple(self) -> tuple[int, int, int]:
        return (int(self.n1), int(self.n2), int(self.m_obs))


@dataclass(frozen=True, eq=False)
class DiscreteCDF:
    """A step CDF: strictly increasing support points in (0, 1] with masses.

    Evaluation is right-continuous: ``cdf()`` adds up the masses on each
    call.  Masses must be positive and sum to one within 1e-10.  Instances
    are immutable; the underlying arrays are marked read-only.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = check_array("support points", self.support,
                              "lie in (0, 1], strictly increasing")
        mass = check_array("masses", self.mass, "be positive")
        if mass.shape != support.shape:
            raise InvalidConfigError("support and mass must have matching shapes")
        total = mass.sum()
        if not abs(total - 1.0) <= 1e-10:
            raise InvalidConfigError(
                f"masses must sum to 1 within 1e-10, got {total!r}"
            )
        support.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    def cdf(self, t) -> np.ndarray | float:
        """Right-continuous evaluation P(X <= t); accepts scalars or arrays.

        ``t = -inf`` gives 0.0 and ``+inf`` 1.0.  NaN (and ``None``) has no
        such probability and raises ``InvalidConfigError``, which names its
        index in an array.
        """
        t = check_array("t", t, "not be NaN", ndim=None)
        idx = np.searchsorted(self.support, t, side="right")
        out = np.where(idx > 0, np.cumsum(self.mass)[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def __len__(self) -> int:
        return int(self.support.size)


def _outcome_pvalues(pmf: np.ndarray, sided: Sidedness) -> tuple[np.ndarray, np.ndarray]:
    """P-values of the outcomes of a discrete test with PMF ``pmf`` in
    ascending order, and the outcome of each: the stable order that
    ``np.argsort`` of the p-values by outcome gives.

    One-sided: lower-tail probability of the outcome.  Two-sided: total
    probability of outcomes that are equally likely to or less likely than
    the observed one, with ties judged at ``PROB_TIE_RTOL``.
    """
    if sided is Sidedness.ONE_SIDED:
        p = np.cumsum(pmf)  # non-decreasing, as no mass is negative
        return np.minimum(p, 1.0, out=p), np.arange(p.size)
    order = np.argsort(pmf, kind="stable")
    p = pmf[order]
    # In this order an outcome's p-value is the cumulative sum up to the last
    # outcome at most as likely: the outcome itself, unless the next one is
    # within the tie tolerance.  Only those few are searched for.
    bound = p * (1.0 + PROB_TIE_RTOL)
    tied = np.flatnonzero(p[1:] <= bound[:-1])
    last = np.searchsorted(p, bound[tied], side="right") - 1
    del bound
    np.cumsum(p, out=p)
    p[tied] = p[last]
    np.minimum(p, 1.0, out=p)
    if (p[1:] == p[:-1]).any():  # p is non-decreasing: order each run by outcome
        order = order[np.lexsort((order, p))]
    return p, order


def _atom_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first value of every atom of the sorted ``values``.

    A value joins the current atom when it is within ``AGGREGATION_RTOL`` of
    the atom's first value.  A wider gap to the previous value therefore
    always starts an atom; only a chain of close neighbours that spans more
    than the tolerance is walked from atom to atom.
    """
    scaled = values * (1.0 + AGGREGATION_RTOL)
    # the first value of every chain of close neighbours
    chain_starts = np.flatnonzero(np.concatenate(([True], values[1:] > scaled[:-1])))
    if chain_starts.size == values.size:  # every value is an atom of its own
        return chain_starts
    ends = np.concatenate((chain_starts[1:], [values.size]))
    wide = values[ends - 1] > scaled[chain_starts]
    starts = [chain_starts]
    for i, end in zip(chain_starts[wide], ends[wide]):
        while True:
            i = int(np.searchsorted(values, scaled[i], side="right"))
            if i >= end:
                break
            starts.append([i])
    return np.sort(np.concatenate(starts))


def _run_sums(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each run of ``sizes[i]`` values from ``x[starts[i]]``, added
    left to right.

    ``np.add.reduceat`` sums long runs pairwise, which changes the last
    bits; ``cumsum`` along the rows of equal-length runs does not.
    """
    sums = x[starts]
    for size in np.unique(sizes[sizes > 1]):
        runs = np.flatnonzero(sizes == size)
        members = x[starts[runs, None] + np.arange(size)]
        sums[runs] = np.cumsum(members, axis=1)[:, -1]
    return sums


def _aggregate_pvalues(support: np.ndarray, order: np.ndarray, pmf: np.ndarray):
    """Collapse numerically identical p-values into support atoms, given the
    ascending p-values and the outcome of each, as ``_outcome_pvalues``
    returns them.

    Returns the sorted support, the per-atom masses, and the canonical
    p-value of each outcome (its atom's value).  Values within
    ``AGGREGATION_RTOL`` relative of an atom's first value merge; an atom
    within that tolerance of 1 is snapped to exactly 1.0, since the modal
    outcome's p-value is 1 in exact arithmetic.

    Outcomes whose probability underflows double precision (float PMF of
    exactly 0) carry no representable mass; they are left out of the support
    and their canonical p-value is NaN.
    Their presence does not perturb the other outcomes' p-values, which are
    sums that such terms enter as +0.0.
    """
    mass = pmf[order]
    representable = mass > 0.0
    if not representable.all():
        support, order, mass = (support[representable], order[representable],
                                mass[representable])
    starts = _atom_starts(support)
    merged = starts.size < support.size  # some atom holds more than one value
    if merged:
        sizes = np.diff(starts, append=support.size)
        support = support[starts]
        mass = _run_sums(mass, starts, sizes)
        del starts
    if abs(support[-1] - 1.0) <= AGGREGATION_RTOL:
        support[-1] = 1.0
    canonical = np.full(pmf.size, np.nan)
    canonical[order] = np.repeat(support, sizes) if merged else support
    canonical.setflags(write=False)
    return support, mass, canonical


def _log_factorials(a: int, b: int) -> np.ndarray:
    """``gammaln(x + 1.0)`` for x = a..b: a read-only view of the shared
    table when ``b`` lies below ``LOG_FACTORIAL_CAP``, else a new array.
    The table is built on first use and grows by doubling."""
    global _LOG_FACTORIALS
    if b >= LOG_FACTORIAL_CAP:
        x = np.arange(a, b + 1, dtype=float)
        x += 1.0
        return gammaln(x, out=x)
    if b >= _LOG_FACTORIALS.size:
        table = np.arange(max(1024, 1 << int(b).bit_length()), dtype=float)
        table += 1.0
        gammaln(table, out=table)
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return _LOG_FACTORIALS[a:b + 1]


def _log_choose(n: int, a: int, b: int) -> np.ndarray:
    """``log C(n, k)`` for k = a..b, a new array."""
    out = gammaln(n + 1.0) - _log_factorials(a, b)
    out -= _log_factorials(n - b, n - a)[::-1]
    return out


def _lgamma_choose(n: float):
    """``k -> log C(n, k)`` of one outcome, to place the window edges."""
    log_n = math.lgamma(n + 1.0)
    return lambda k: log_n - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def _window_edge(log_weight, mode: int, bound: int, floor: float) -> int:
    """The outcome farthest from ``mode`` towards ``bound`` whose log weight
    is at least ``floor``, by bisection: the log weight is concave with its
    maximum at ``mode``, so it is monotone in between."""
    if log_weight(float(bound)) >= floor:
        return bound
    inside, outside = mode, bound
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if log_weight(float(mid)) >= floor:
            inside = mid
        else:
            outside = mid
    return inside


def _float_exact(statistic: str, *values: int) -> str:
    """The format string ``statistic`` filled with its totals or margins
    ``values``, if float64 holds each of them exactly: all lie below 2^53.
    Otherwise their log weights would be rounded beyond use, or not computed
    at all; the refusal names a value too long to print by its bit length."""
    if max(values) >= 2**53:
        raise DegenerateDataError(
            f"an exact test refuses {statistic.format(*map(_shown, values))}: every"
            " total and margin must lie below 2^53, where float64 holds integers exactly"
        )
    return statistic.format(*values)


def _window(log_weight, lo: int, hi: int, mode: int, statistic: str):
    """The first and last of the outcomes ``lo..hi`` within
    ``WINDOW_LOG_MARGIN`` of the mode's log weight.

    ``log_weight(k)`` is the unnormalised log probability of outcome ``k``,
    concave with its maximum at ``mode``.  A window wider than
    ``MAX_WINDOW_OUTCOMES`` is refused, naming ``statistic``.
    """
    floor = log_weight(float(mode)) - WINDOW_LOG_MARGIN
    first = _window_edge(log_weight, mode, lo, floor)
    last = _window_edge(log_weight, mode, hi, floor)
    if last - first + 1 > MAX_WINDOW_OUTCOMES:
        raise DegenerateDataError(
            f"the null distribution of {statistic} needs {last - first + 1}"
            f" outcomes, more than the {MAX_WINDOW_OUTCOMES} an exact test"
            " enumerates"
        )
    return first, last


def _null_table(pmf: np.ndarray, first: int, sided: Sidedness):
    """Null p-value distribution of a test from the log weights ``pmf`` of
    its window of outcomes from ``first`` on.

    The weights relative to the mode's are normalised by their own sum, and
    only the outcomes with a nonzero PMF are kept.  Returns the distribution,
    the first kept outcome, and the canonical p-value of every kept outcome.
    """
    # one buffer holds the log weights, then the weights, then the PMF
    pmf -= pmf.max()
    np.exp(pmf, out=pmf)
    pmf /= pmf[pmf > 0.0].sum()
    # kept where the PMF is positive: a subnormal weight can divide to 0
    kept = pmf > 0.0
    start, stop = int(kept.argmax()), kept.size - int(kept[::-1].argmax())
    del kept
    pmf = pmf[start:stop]
    support, mass, canonical = _aggregate_pvalues(*_outcome_pvalues(pmf, sided), pmf)
    return DiscreteCDF(support, mass), first + start, canonical


def _canonical_pvalue(table, outcome: int) -> float:
    """The p-value of ``outcome`` in a ``_null_table``; an outcome outside
    the kept span takes the nearest kept outcome's."""
    _, first, canonical = table
    i = outcome - first
    p = canonical.item(i if 0 <= i < canonical.size else 0 if i < 0 else -1)
    if p != p:  # NaN: a zero PMF inside the span, which concavity rules out
        raise DegenerateDataError(
            f"null probability of the outcome {outcome} underflows double precision"
        )
    return p


def _fet_range(n1: int, n2: int, m_obs: int) -> tuple[int, int]:
    """Outcome range of the upper-left cell given the margins."""
    return max(0, m_obs - n2), min(n1, m_obs)


def _table_bytes(table) -> int:
    """Bytes held by the arrays of a ``_null_table``."""
    cdf, _, canonical = table
    return cdf.support.nbytes + cdf.mass.nbytes + canonical.nbytes


class _TableMemo:
    """The null tables of both tests, oldest first, keyed by test and
    arguments.  Once they hold more than ``MEMO_BYTES`` the oldest are
    dropped, but never the newest.  A hit does not reorder the memo."""

    def __init__(self):
        self.tables: dict = {}
        self.nbytes = 0

    def __call__(self, test):
        name, tables = test.__name__, self.tables  # bound once, for the hits
        @functools.wraps(test)
        def memoised(*args):
            key = (name, *args)
            table = tables.get(key)
            if table is None:
                table = tables[key] = test(*args)
                self.nbytes += _table_bytes(table)
                while self.nbytes > MEMO_BYTES and len(tables) > 1:
                    oldest = next(iter(tables))
                    self.nbytes -= _table_bytes(tables.pop(oldest))
            return table

        return memoised

    def clear(self) -> None:
        self.tables.clear()
        self.nbytes = 0


_MEMO = _TableMemo()


@_MEMO
def _binomial_test(total: int, sided: Sidedness):
    if total < 1:
        raise DegenerateDataError(
            f"binomial test needs a positive total count, got {_shown(total)}"
        )
    statistic = _float_exact("the binomial total {}", total)
    # log C(total, k); the 0.5^total factor is constant and cancels in the
    # normalisation.
    first, last = _window(_lgamma_choose(float(total)), 0, total, total // 2,
                          statistic)
    return _null_table(_log_choose(total, first, last), first, sided)


@_MEMO
def _fet_test(n1: int, n2: int, m_obs: int, sided: Sidedness):
    statistic = _float_exact(
        "the margins (n1, n2, m_obs) = ({}, {}, {})", n1, n2, m_obs)
    row1, row2, col = _lgamma_choose(float(n1)), _lgamma_choose(float(n2)), float(m_obs)
    lo, hi = _fet_range(n1, n2, m_obs)
    mode = (n1 + 1) * (m_obs + 1) // (n1 + n2 + 2)  # of the hypergeometric
    first, last = _window(lambda k: row1(k) + row2(col - k), lo, hi, mode, statistic)
    log_weights = _log_choose(n1, first, last)
    log_weights += _log_choose(n2, m_obs - last, m_obs - first)[::-1]
    return _null_table(log_weights, first, sided)


def binomial_null_distribution(total: int, sided: Sidedness) -> DiscreteCDF:
    """Null distribution of the binomial-test p-value given the total count.

    Conditional on ``total``, the first count is Binomial(0.5, total) under
    the null of equal Poisson means.  Every outcome is mapped to its p-value
    and duplicate p-values are aggregated into one support atom.

    Parameters
    ----------
    total : int
        Total of the two observed counts; must be >= 1.
    sided : Sidedness or {"one", "two"}
        One- or two-sided p-value convention.

    Returns
    -------
    DiscreteCDF
        The p-value distribution under the null hypothesis.
    """
    return _binomial_test(int(check_count("total", total, None)), _sidedness(sided))[0]


def binomial_pvalue(pair: PoissonPair, sided: Sidedness) -> float:
    """Binomial-test p-value for a pair of Poisson counts.

    The one-sided p-value is P(T <= c1) for T ~ Binomial(0.5, total); the
    two-sided p-value sums the null probabilities of all outcomes that are
    equally likely to or less likely than the observed one.  The returned
    value is always an element of ``binomial_null_distribution``'s support;
    a ``c1`` whose null probability underflows takes the nearest kept one's.
    """
    return _canonical_pvalue(_binomial_test(pair.total, _sidedness(sided)), pair.c1)


def fet_null_distribution(margins: MarginalVector, sided: Sidedness) -> DiscreteCDF:
    """Null distribution of the Fisher's-exact-test p-value given the margins.

    Conditional on the margins the table count is central hypergeometric on
    [max(0, m_obs - n2), min(n1, m_obs)].  Probabilities are computed in log
    space, each outcome is mapped to its p-value, and duplicates aggregate.
    """
    n1, n2, m_obs = margins.as_tuple()
    return _fet_test(n1, n2, m_obs, _sidedness(sided))[0]


def fet_pvalue(c1: int, margins: MarginalVector, sided: Sidedness) -> float:
    """Fisher's-exact-test p-value of the observed count ``c1``.

    Uses the same probability-ordering rule as ``binomial_pvalue`` applied
    to the central hypergeometric PMF, and the same clamp of an outcome
    whose null probability underflows; the result lies in the support of
    ``fet_null_distribution``.
    """
    c1 = int(check_count("c1", c1, None))
    n1, n2, m_obs = margins.as_tuple()
    lo, hi = _fet_range(n1, n2, m_obs)
    if not lo <= c1 <= hi:
        raise InvalidTableError(
            "count {} outside hypergeometric range [{}, {}] for margins ({}, {}, {})"
            .format(*map(_shown, (c1, lo, hi, n1, n2, m_obs))))
    return _canonical_pvalue(_fet_test(n1, n2, m_obs, _sidedness(sided)), c1)
