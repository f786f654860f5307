"""Tests for the exact conditional tests and their null p-value distributions."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from discrete_fdr import (
    DegenerateDataError,
    DiscreteCDF,
    DiscreteFdrError,
    InvalidConfigError,
    InvalidTableError,
    MarginalVector,
    Partition,
    Pi0Config,
    PoissonPair,
    Sidedness,
    StudyInput,
    binomial_null_distribution,
    binomial_pvalue,
    fet_null_distribution,
    fet_pvalue,
    group_by_statistic_quantiles,
    marginal_distance,
)
from discrete_fdr import exact_tests
from discrete_fdr.errors import check_count
from discrete_fdr.exact_tests import (
    _MEMO,
    AGGREGATION_RTOL,
    MAX_WINDOW_OUTCOMES,
    PROB_TIE_RTOL,
    _aggregate_pvalues,
    _atom_starts,
    _binomial_test,
    _canonical_pvalue,
    _fet_test,
    _outcome_pvalues,
    _table_bytes,
)
from rational_oracles import (
    binomial_pmf_exact,
    hypergeom_pmf_exact,
    null_distribution_exact,
    pvalues_exact,
)

ONE = Sidedness.ONE_SIDED
TWO = Sidedness.TWO_SIDED


@pytest.mark.parametrize("construct", [
    lambda: PoissonPair(-1, 2),
    lambda: PoissonPair(1.5, 2),
    lambda: MarginalVector(1, 1, 5),
    lambda: MarginalVector(-1, 1, 0),
    lambda: DiscreteCDF(np.array([0.5, 0.25]), np.array([0.5, 0.5])),
    lambda: DiscreteCDF(np.array([0.5, 1.0]), np.array([0.5, 0.4])),
    lambda: Partition((np.array([0, 1]), np.array([1, 2]))),
    lambda: Partition(()),
    lambda: StudyInput("x", ("a",), np.array([1]), np.array([2])),
    lambda: StudyInput("fet", ("a",), np.array([1]), np.array([2])),
], ids=["pair-negative", "pair-float", "margins-m-obs", "margins-negative",
        "cdf-order", "cdf-mass", "partition-overlap", "partition-empty",
        "study-family", "study-fet-totals"])
def test_invalid_value_raises_package_error(construct):
    # a library caller catching the package's base error sees these too
    with pytest.raises(DiscreteFdrError):
        construct()


class TestDiscreteCDF:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteCDF(np.array([0.5, 0.25]), np.array([0.5, 0.5]))  # not increasing
        with pytest.raises(ValueError):
            DiscreteCDF(np.array([0.0, 1.0]), np.array([0.5, 0.5]))  # 0 not allowed
        with pytest.raises(ValueError):
            DiscreteCDF(np.array([0.5, 1.0]), np.array([0.5, 0.4]))  # sum != 1
        with pytest.raises(ValueError):
            DiscreteCDF(np.array([]), np.array([]))

    @pytest.mark.parametrize("support,mass,message", [
        ([np.nan], [1.0], "support points must lie in (0, 1]"),
        ([0.5], [np.nan], "masses must be positive"),
        ([0.2, np.nan, 0.9], [0.3, 0.3, 0.4], "support points must lie in (0, 1]"),
        ([0.2, 0.5], [np.nan, 1.0], "masses must be positive"),
    ], ids=["nan-support", "nan-mass", "nan-inner-support", "nan-first-mass"])
    def test_nan_rejected(self, support, mass, message):
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            DiscreteCDF(support, mass)

    def test_cdf_evaluation_right_continuous(self):
        d = DiscreteCDF(np.array([0.25, 1.0]), np.array([0.25, 0.75]))
        assert d.cdf(0.1) == 0.0
        assert d.cdf(0.25) == 0.25
        assert d.cdf(0.5) == 0.25
        assert d.cdf(1.0) == 1.0
        assert_allclose(d.cdf(np.array([0.2, 0.25, 0.9, 1.0])), [0, 0.25, 0.25, 1.0])

    @pytest.mark.parametrize("t", [float("nan"), np.nan, None], ids=["float", "numpy", "none"])
    def test_nan_scalar_rejected(self, t):
        # P(X <= NaN) has no value; NaN sorts after every support point
        with pytest.raises(InvalidConfigError, match="t must not be NaN"):
            binomial_null_distribution(5, "two").cdf(t)

    def test_nan_in_array_named_by_index(self):
        d = binomial_null_distribution(5, "two")
        with pytest.raises(InvalidConfigError, match="not be NaN; got .* at index 2$"):
            d.cdf([0.1, 0.5, np.nan, 1.0])
        with pytest.raises(InvalidConfigError, match=re.escape("at index (1, 0)")):
            d.cdf([[0.1], [None]])

    def test_infinite_argument(self):
        d = binomial_null_distribution(5, "two")
        assert d.cdf(-np.inf) == 0.0
        assert d.cdf(np.inf) == 1.0
        assert d.cdf([-np.inf, np.inf]).tolist() == [0.0, 1.0]


class TestBinomialNullDistribution:
    def test_total_two_two_sided(self):
        d = binomial_null_distribution(2, TWO)
        assert_allclose(d.support, [0.5, 1.0])
        assert_allclose(d.mass, [0.5, 0.5])

    def test_total_three_two_sided(self):
        d = binomial_null_distribution(3, TWO)
        assert_allclose(d.support, [0.25, 1.0])
        assert_allclose(d.mass, [0.25, 0.75])

    def test_total_one_one_sided(self):
        d = binomial_null_distribution(1, ONE)
        assert_allclose(d.support, [0.5, 1.0])
        assert_allclose(d.mass, [0.5, 0.5])

    def test_total_zero_raises(self):
        with pytest.raises(DegenerateDataError):
            binomial_null_distribution(0, TWO)

    def test_mass_sums_to_one_large_total(self):
        for total in (37, 250, 999):
            for sided in (ONE, TWO):
                d = binomial_null_distribution(total, sided)
                assert abs(d.mass.sum() - 1.0) < 1e-10


class TestBinomialPvalue:
    def test_two_sided_examples(self):
        assert binomial_pvalue(PoissonPair(0, 2), TWO) == pytest.approx(0.5, abs=1e-12)
        assert binomial_pvalue(PoissonPair(1, 1), TWO) == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_example(self):
        assert binomial_pvalue(PoissonPair(0, 2), ONE) == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateDataError):
            binomial_pvalue(PoissonPair(0, 0), TWO)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            PoissonPair(-1, 2)

    def test_pvalue_in_support(self):
        for total in range(1, 30):
            for sided in (ONE, TWO):
                support = binomial_null_distribution(total, sided).support
                for c1 in range(total + 1):
                    p = binomial_pvalue(PoissonPair(c1, total - c1), sided)
                    assert p in support  # canonical aggregation key

    def test_one_sided_monotone_in_c1(self):
        for total in (5, 12, 31):
            ps = [
                binomial_pvalue(PoissonPair(c1, total - c1), ONE)
                for c1 in range(total + 1)
            ]
            assert all(a <= b for a, b in zip(ps, ps[1:]))


class TestSidednessByValue:
    """``sided`` may be a ``Sidedness`` or its value; anything else is an
    error, never a silent two-sided test."""

    CALLS = {
        "binomial_pvalue": lambda sided: binomial_pvalue(PoissonPair(1, 9), sided),
        "binomial_null_distribution":
            lambda sided: binomial_null_distribution(10, sided).support.tolist(),
        "fet_pvalue": lambda sided: fet_pvalue(1, MarginalVector(5, 5, 6), sided),
        "fet_null_distribution":
            lambda sided: fet_null_distribution(MarginalVector(5, 5, 6),
                                                sided).support.tolist(),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_value_gives_the_member(self, name):
        call = self.CALLS[name]
        assert call("one") == call(ONE) != call(TWO) == call("two")

    def test_one_sided_binomial_value(self):
        assert binomial_pvalue(PoissonPair(1, 9), "one") == 0.010742187500000005
        assert binomial_pvalue(PoissonPair(1, 9), "two") == 0.021484375000000007

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("sided", ["both", "ONE", "", None, 1, ["one"]])
    def test_other_values_rejected(self, name, sided):
        with pytest.raises(InvalidConfigError, match="sided must be"):
            self.CALLS[name](sided)

    def test_memo_is_keyed_by_the_member(self):
        _MEMO.clear()
        binomial_null_distribution(13, "one")
        binomial_null_distribution(13, ONE)
        assert list(_MEMO.tables) == [("_binomial_test", 13, ONE)]
        _MEMO.clear()


class TestMemoHit:
    """A p-value read from the memo is the same whichever spelling of
    ``sided`` built or reads the table."""

    SPELLINGS = [(TWO, "two"), ("two", TWO), (ONE, "one"), ("one", ONE)]

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        _MEMO.clear()
        yield
        _MEMO.clear()

    @pytest.mark.parametrize("sided", [TWO, ONE])
    def test_equal_pvalues_for_member_and_value(self, sided):
        for c1 in range(14):
            assert (binomial_pvalue(PoissonPair(c1, 13 - c1), sided)
                    == binomial_pvalue(PoissonPair(c1, 13 - c1), sided.value))
        margins = MarginalVector(9, 12, 8)
        for c1 in range(9):
            assert fet_pvalue(c1, margins, sided) == fet_pvalue(c1, margins, sided.value)

    @pytest.mark.parametrize("built,read", SPELLINGS)
    def test_table_built_under_one_spelling_is_a_hit_for_the_other(
            self, built, read, monkeypatch):
        calls = []
        original = exact_tests._outcome_pvalues
        monkeypatch.setattr(exact_tests, "_outcome_pvalues",
                            lambda pmf, sided: calls.append(sided) or original(pmf, sided))
        first = [binomial_pvalue(PoissonPair(3, 10), built),
                 fet_pvalue(2, MarginalVector(9, 12, 8), built)]
        assert len(calls) == 2
        assert [binomial_pvalue(PoissonPair(3, 10), read),
                fet_pvalue(2, MarginalVector(9, 12, 8), read)] == first
        assert len(calls) == 2  # both tables came from the memo
        assert len(_MEMO.tables) == 2

    def test_nan_canonical_pvalue_raises(self):
        cdf, first, canonical = _binomial_test(6, TWO)
        holed = canonical.copy()
        holed[3 - first] = np.nan  # a zero PMF inside the kept span
        with pytest.raises(DegenerateDataError, match="outcome 3 underflows"):
            _canonical_pvalue((cdf, first, holed), 3)
        assert _canonical_pvalue((cdf, first, holed), 2) == canonical[2 - first]


class TestNoTruncation:
    """A total or a count that is not an integer is rejected, not rounded."""

    @pytest.mark.parametrize("total", [2.5, 2.0, np.float64(3.0), "2", None])
    def test_binomial_total(self, total):
        with pytest.raises(InvalidConfigError, match="total must be an integer"):
            binomial_null_distribution(total, TWO)

    @pytest.mark.parametrize("c1", [2.7, 2.0, "2", None])
    def test_fet_count(self, c1):
        with pytest.raises(InvalidConfigError, match="c1 must be an integer"):
            fet_pvalue(c1, MarginalVector(5, 5, 4), TWO)

    def test_numpy_integers_accepted(self):
        assert binomial_null_distribution(np.int64(2), TWO).support.tolist() == (
            binomial_null_distribution(2, TWO).support.tolist())
        margins = MarginalVector(5, 5, 4)
        assert fet_pvalue(np.int32(2), margins, TWO) == fet_pvalue(2, margins, TWO)

    def test_negative_values_keep_their_errors(self):
        with pytest.raises(DegenerateDataError):
            binomial_null_distribution(-3, TWO)
        with pytest.raises(InvalidTableError):
            fet_pvalue(-1, MarginalVector(5, 5, 4), TWO)


class TestFetNullDistribution:
    def test_small_margins(self):
        d = fet_null_distribution(MarginalVector(2, 2, 2), TWO)
        assert_allclose(d.support, [1 / 3, 1.0])
        assert_allclose(d.mass, [1 / 3, 2 / 3])

    def test_outcome_range_size(self):
        # 20 hypergeometric atoms before p-value aggregation
        lo = max(0, 35090 - 75146)
        hi = min(19, 35090)
        assert hi - lo + 1 == 20
        d = fet_null_distribution(MarginalVector(19, 75146, 35090), TWO)
        assert len(d) <= 20

    def test_single_outcome_table(self):
        d = fet_null_distribution(MarginalVector(1, 1, 2), TWO)
        assert_allclose(d.support, [1.0])
        assert_allclose(d.mass, [1.0])

    def test_invalid_margins(self):
        with pytest.raises(ValueError):
            MarginalVector(1, 1, 3)

    def test_log_space_mass_stability(self):
        # drug-safety scale margins
        for margins in (
            MarginalVector(19, 75146, 35090),
            MarginalVector(5, 75160, 35090),
            MarginalVector(2466, 684445, 2051),
        ):
            for sided in (ONE, TWO):
                d = fet_null_distribution(margins, sided)
                assert abs(d.mass.sum() - 1.0) < 1e-8


class TestFetPvalue:
    def test_two_sided_examples(self):
        margins = MarginalVector(2, 2, 2)
        assert fet_pvalue(0, margins, TWO) == pytest.approx(1 / 3, abs=1e-12)
        assert fet_pvalue(1, margins, TWO) == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_example(self):
        assert fet_pvalue(0, MarginalVector(2, 2, 2), ONE) == pytest.approx(
            1 / 6, abs=1e-12
        )

    def test_count_outside_range(self):
        with pytest.raises(InvalidTableError):
            fet_pvalue(3, MarginalVector(2, 2, 2), TWO)

    def test_pvalue_in_support(self):
        margins = MarginalVector(8, 11, 9)
        for sided in (ONE, TWO):
            support = fet_null_distribution(margins, sided).support
            for c1 in range(0, 9):
                assert fet_pvalue(c1, margins, sided) in support

    def test_one_sided_monotone_in_c1(self):
        margins = MarginalVector(10, 14, 12)
        ps = [fet_pvalue(c1, margins, ONE) for c1 in range(0, 11)]
        assert all(a <= b for a, b in zip(ps, ps[1:]))


class TestPvalueSupport:
    def test_examples(self):
        assert_allclose(binomial_null_distribution(2, TWO).support, [0.5, 1.0])
        assert_allclose(
            fet_null_distribution(MarginalVector(2, 2, 2), TWO).support,
            [1 / 3, 1.0],
        )


class TestAgainstRationalOracle:
    """Small-scale equivalence with the exact enumeration oracle."""

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_binomial_pvalues(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for total in range(1, 13):
            exact = pvalues_exact(binomial_pmf_exact(total), sided)
            for c1, pe in enumerate(exact):
                p = binomial_pvalue(PoissonPair(c1, total - c1), sided_enum)
                assert abs(p - float(pe)) < 1e-12

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_binomial_null_distribution(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for total in range(1, 13):
            support, mass = null_distribution_exact(binomial_pmf_exact(total), sided)
            d = binomial_null_distribution(total, sided_enum)
            assert len(d) == len(support)
            assert_allclose(d.support, [float(s) for s in support], atol=1e-12)
            assert_allclose(d.mass, [float(w) for w in mass], atol=1e-12)

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_fet_small_margins(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for n1 in range(0, 7):
            for n2 in range(0, 7):
                for m_obs in range(0, n1 + n2 + 1):
                    lo, pmf = hypergeom_pmf_exact(n1, n2, m_obs)
                    exact = pvalues_exact(pmf, sided)
                    margins = MarginalVector(n1, n2, m_obs)
                    for offset, pe in enumerate(exact):
                        p = fet_pvalue(lo + offset, margins, sided_enum)
                        assert abs(p - float(pe)) < 1e-12

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_fet_null_distribution(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for n1 in range(0, 7):
            for n2 in range(0, 7):
                for m_obs in range(0, n1 + n2 + 1):
                    _, pmf = hypergeom_pmf_exact(n1, n2, m_obs)
                    support, mass = null_distribution_exact(pmf, sided)
                    d = fet_null_distribution(MarginalVector(n1, n2, m_obs), sided_enum)
                    assert len(d) == len(support)
                    assert_allclose(d.support, [float(s) for s in support], atol=1e-12)
                    assert_allclose(d.mass, [float(w) for w in mass], atol=1e-12)

    def test_validity_at_support_matches_oracle(self):
        # at every attainable p-value s, P(p <= s) equals s for these
        # constructions; check ours and the oracle agree on that
        for total in range(1, 13):
            for sided, sided_enum in (("one", ONE), ("two", TWO)):
                support, mass = null_distribution_exact(
                    binomial_pmf_exact(total), sided
                )
                cum = 0
                for s, w in zip(support, mass):
                    cum += w
                    assert cum == s  # exact rational identity
                d = binomial_null_distribution(total, sided_enum)
                assert_allclose(d.cdf(d.support), d.support, atol=1e-12)


# The full-range enumeration and per-outcome aggregation loop that the
# windowed enumeration replaced, kept as the reference it must match bit for
# bit.


def aggregate(pvals, pmf):
    """``_aggregate_pvalues`` of the p-values ``pvals`` by outcome, given
    them in the stable ascending order it takes."""
    order = np.argsort(pvals, kind="stable")
    return _aggregate_pvalues(pvals[order], order, pmf)


def outcome_pvalues(pmf, sided):
    """The p-value of every outcome, in outcome order, rebuilt from the
    ascending p-values and their outcomes that ``_outcome_pvalues`` returns."""
    ascending, order = _outcome_pvalues(pmf, sided)
    pvals = np.empty_like(ascending)
    pvals[order] = ascending
    return pvals


def reference_aggregate(pvals, pmf):
    representable = pmf > 0.0
    order = np.argsort(pvals, kind="stable")
    reps: list[float] = []
    mass: list[float] = []
    canonical = np.full(pvals.size, np.nan)
    atom_of: dict[int, int] = {}
    for pos in order:
        if not representable[pos]:
            continue
        v = float(pvals[pos])
        if reps and v <= reps[-1] * (1.0 + AGGREGATION_RTOL):
            mass[-1] += float(pmf[pos])
        else:
            reps.append(v)
            mass.append(float(pmf[pos]))
        atom_of[pos] = len(reps) - 1
    if abs(reps[-1] - 1.0) <= AGGREGATION_RTOL:
        reps[-1] = 1.0
    support = np.array(reps)
    for pos, atom in atom_of.items():
        canonical[pos] = support[atom]
    return support, np.array(mass), canonical


def _reference_log_binom_coeff(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _reference_pmf(log_weights):
    """Weights relative to the largest, divided by the sum of the positive
    ones.  Works in place on ``log_weights``, so that a range of 1e7
    outcomes needs a single array."""
    log_weights -= log_weights.max()
    weights = np.exp(log_weights, out=log_weights)
    weights /= weights[weights > 0.0].sum()
    return weights


def _reference_table(log_weights, sided):
    pmf = _reference_pmf(log_weights)
    return reference_aggregate(outcome_pvalues(pmf, sided), pmf)


def _binomial_log_weight(total):
    return lambda k: _reference_log_binom_coeff(float(total), k)


def _fet_log_weight(n1, n2, m_obs):
    return lambda k: _reference_log_binom_coeff(float(n1), k) + _reference_log_binom_coeff(
        float(n2), float(m_obs) - k
    )


def reference_binomial(total, sided):
    """(lo, support, mass, canonical p-value of every outcome lo..hi)."""
    k = np.arange(total + 1, dtype=float)
    return (0, *_reference_table(_binomial_log_weight(total)(k), sided))


def reference_fet(n1, n2, m_obs, sided):
    lo, hi = max(0, m_obs - n2), min(n1, m_obs)
    k = np.arange(lo, hi + 1, dtype=float)
    return (lo, *_reference_table(_fet_log_weight(n1, n2, m_obs)(k), sided))


def assert_bit_identical(table, reference):
    """Same support, masses and canonical p-value of every outcome."""
    dist, first, canonical = table
    lo, support, mass, ref_canonical = reference
    assert dist.support.tobytes() == support.tobytes()
    assert dist.mass.tobytes() == mass.tobytes()
    full = np.full(ref_canonical.size, np.nan)
    full[first - lo:first - lo + canonical.size] = canonical
    assert full.tobytes() == ref_canonical.tobytes()


def assert_pvalue_matches(pvalue, reference, outcome):
    """The public p-value of ``outcome`` against the reference's canonical;
    an outcome that underflows there takes the nearest kept outcome's."""
    lo, _, _, canonical = reference
    kept = np.flatnonzero(~np.isnan(canonical))
    nearest = kept[np.argmin(np.abs(kept - (outcome - lo)))]
    assert pvalue(outcome) == canonical[nearest]


def check_binomial(total, sided):
    reference = reference_binomial(total, sided)
    assert_bit_identical(_binomial_test(total, sided), reference)
    kept = np.flatnonzero(~np.isnan(reference[3]))

    def pvalue(c1):
        return binomial_pvalue(PoissonPair(c1, total - c1), sided)

    for c1 in {0, total, kept[0] - 1, kept[0], kept[-1], kept[-1] + 1, total // 2}:
        if 0 <= c1 <= total:
            assert_pvalue_matches(pvalue, reference, c1)


def check_fet(n1, n2, m_obs, sided):
    reference = reference_fet(n1, n2, m_obs, sided)
    assert_bit_identical(_fet_test(n1, n2, m_obs, sided), reference)
    margins = MarginalVector(n1, n2, m_obs)
    lo, hi = reference[0], reference[0] + reference[3].size - 1
    kept = lo + np.flatnonzero(~np.isnan(reference[3]))

    def pvalue(c1):
        return fet_pvalue(c1, margins, sided)

    for c1 in {lo, hi, kept[0] - 1, kept[0], kept[-1], kept[-1] + 1}:
        if lo <= c1 <= hi:
            assert_pvalue_matches(pvalue, reference, c1)
    for c1 in (lo - 1, hi + 1):
        if c1 >= 0:
            with pytest.raises(InvalidTableError, match=re.escape(f"[{lo}, {hi}]")):
                pvalue(c1)


def safety_margins(rng, size):
    """Margins in the drug-safety range: one row against study-wide totals."""
    cases, events = 20_000, 2_000_000
    out = []
    for _ in range(size):
        n1 = int(rng.integers(1_000, 150_000))
        m_obs = int(rng.integers(1, cases + 1))
        out.append((n1, events - n1, m_obs))
        n = int(rng.integers(1_000, 60_000))
        out.append((n, n, int(rng.integers(1, 2 * n))))  # n1 = n2: tied PMFs
    return out


class TestWindowedEnumerationMatchesReference:
    """Bit-identical results to the full-range enumeration."""

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_small_totals(self, sided):
        for total in range(1, 401):
            check_binomial(total, sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_large_totals(self, sided):
        # at 1200, 2904 and 4478 a sum of the weights over the full range,
        # zeros included, differs in the last bit from the sum of the positive
        # weights alone; at 1200 a sum over the window does too
        rng = np.random.default_rng(5)
        totals = [1_200, 2_904, 4_478, 250_000] + rng.integers(401, 60_000, 12).tolist()
        for total in totals:
            check_binomial(total, sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_fet_safety_scale(self, sided):
        for n1, n2, m_obs in safety_margins(np.random.default_rng(11), 12):
            check_fet(n1, n2, m_obs, sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_fet_small_margins(self, sided):
        for n1 in range(0, 9):
            for n2 in range(0, 9):
                for m_obs in range(0, n1 + n2 + 1):
                    check_fet(n1, n2, m_obs, sided)

    @given(
        total=st.one_of(st.integers(1, 400), st.integers(401, 40_000)),
        sided=st.sampled_from([ONE, TWO]),
    )
    @settings(max_examples=60, deadline=None)
    def test_binomial_generated(self, total, sided):
        check_binomial(total, sided)

    @given(
        n1=st.integers(0, 40_000),
        n2=st.one_of(st.none(), st.integers(0, 400_000)),
        share=st.floats(0.0, 1.0),
        sided=st.sampled_from([ONE, TWO]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fet_generated(self, n1, n2, share, sided):
        n2 = n1 if n2 is None else n2  # None draws the tied case n1 = n2
        check_fet(n1, n2, int(share * min(n1 + n2, 60_000)), sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_windows_across_the_log_factorial_cap(self, sided):
        for total in (2**18 - 1, 2**18, 2**18 + 1):
            check_binomial(total, sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_fet_rows_at_the_log_factorial_cap(self, sided):
        for n1 in (2**17 - 1, 2**17, 2**17 + 1):
            check_fet(n1, 2_000_000 - n1, 20_000, sided)


class TestSharedLogFactorials:
    """The log-factorial table that every table build reads."""

    @staticmethod
    def small_tables():
        _MEMO.clear()
        tables = [_binomial_test(50, TWO), _fet_test(40, 60, 30, ONE)]
        return [(t[0].support.tobytes(), t[0].mass.tobytes(), t[1], t[2].tobytes())
                for t in tables]

    def test_grows_to_the_cap_and_no_further(self, monkeypatch):
        monkeypatch.setattr(exact_tests, "_LOG_FACTORIALS", np.empty(0))
        before = self.small_tables()
        assert exact_tests._LOG_FACTORIALS.size == 1024
        _binomial_test(200_000, TWO)  # a window below the cap
        assert exact_tests._LOG_FACTORIALS.size == exact_tests.LOG_FACTORIAL_CAP
        for total in (10**8, 2**18):
            _binomial_test(total, ONE)
            assert exact_tests._LOG_FACTORIALS.size <= exact_tests.LOG_FACTORIAL_CAP
        cap = exact_tests.LOG_FACTORIAL_CAP
        edge = exact_tests._log_factorials(cap - 2, cap)  # evaluated past the table
        assert edge.tobytes() == gammaln(np.arange(cap - 2, cap + 1) + 1.0).tobytes()
        assert exact_tests._LOG_FACTORIALS.size == cap
        table = exact_tests._LOG_FACTORIALS
        assert not table.flags.writeable
        assert table.tobytes() == gammaln(np.arange(table.size) + 1.0).tobytes()
        assert self.small_tables() == before


def _chunked_log_weights(log_weight, lo, hi, chunk=1_000_000):
    """``log_weight`` of the outcomes lo..hi, evaluated a chunk at a time so
    that a range of 1e7 outcomes needs no temporaries of its size."""
    out = np.empty(hi - lo + 1)
    for a in range(lo, hi + 1, chunk):
        b = min(a + chunk, hi + 1)
        out[a - lo:b - lo] = log_weight(np.arange(a, b, dtype=float))
    return out


def check_large(table, pvalue, log_weight, lo, hi, sided):
    """Masses that sum to 1, and the table and some p-values against the
    full-range reference restricted to its positive-mass outcomes."""
    assert table[0].mass.sum() == pytest.approx(1.0, abs=1e-12)
    pmf = _reference_pmf(_chunked_log_weights(log_weight, lo, hi))
    kept = np.flatnonzero(pmf)
    first, last = lo + int(kept[0]), lo + int(kept[-1])
    pmf = pmf[kept[0]:kept[-1] + 1]
    reference = reference_aggregate(outcome_pvalues(pmf, sided), pmf)
    assert_bit_identical(table, (first, *reference))
    mode = first + int(np.argmax(pmf))
    for c1 in (first, first + pmf.size // 4, mode, last - 7, last):
        assert pvalue(c1) == reference[2][c1 - first]
    # just outside the outcomes kept, the nearest kept outcome's p-value
    for c1, nearest in ((first - 1, 0), (last + 1, -1)):
        if lo <= c1 <= hi:
            assert pvalue(c1) == reference[2][nearest]


class TestLargeMargins:
    """Margins of 1e6-1e7, beyond the drug-safety range.  Normalising in log
    space was accurate only to an ulp of the mode's log weight, which at
    these margins put the masses outside the 1e-10 sum check."""

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_totals_build(self, sided):
        rng = np.random.default_rng(13)
        totals = [3_000_000, 10_000_000] + rng.integers(3_000_000, 10_000_001, 8).tolist()
        for total in totals:
            mass = binomial_null_distribution(total, sided).mass
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_matches_reference(self, sided):
        total = 10_000_000

        def pvalue(c1):
            return binomial_pvalue(PoissonPair(c1, total - c1), sided)

        check_large(_binomial_test(total, sided), pvalue,
                    _binomial_log_weight(total), 0, total, sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_fet_matches_reference(self, sided):
        # 1e6 cases among 1e7 events, a row of 1e6
        n1, n2, m_obs = 1_000_000, 9_000_000, 1_000_000
        margins = MarginalVector(n1, n2, m_obs)
        assert fet_null_distribution(margins, sided) is _fet_test(n1, n2, m_obs, sided)[0]

        def pvalue(c1):
            return fet_pvalue(c1, margins, sided)

        check_large(_fet_test(n1, n2, m_obs, sided), pvalue,
                    _fet_log_weight(n1, n2, m_obs), 0, m_obs, sided)


class TestAggregationRule:
    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            atoms = rng.choice([0.05, 0.3, 0.3 * (1 + 3e-11), 0.7, 1 - 4e-11], n)
            pvals = np.where(rng.random(n) < 0.6, atoms, rng.uniform(0.01, 1.0, n))
            pmf = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(1e-300, 1.0, n))
            pmf[0] = 0.5  # at least one representable outcome
            got = aggregate(pvals, pmf)
            expected = reference_aggregate(pvals, pmf)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()

    def test_chain_splits_at_first_value(self):
        # neighbours 0.6e-10 apart in relative terms, spanning 2.4e-10: an
        # atom holds what lies within tolerance of its first value
        pvals = 0.5 * (1 + 0.6e-10) ** np.arange(5)
        support, mass, canonical = aggregate(pvals, np.full(5, 0.2))
        assert support.tolist() == [pvals[0], pvals[2], pvals[4]]
        assert mass.tolist() == [0.2 + 0.2, 0.2 + 0.2, 0.2]
        assert canonical.tolist() == [pvals[0]] * 2 + [pvals[2]] * 2 + [pvals[4]]

    def test_large_atom_summed_left_to_right(self):
        # 1.0 + 1e-16 rounds back to 1.0 each time; a pairwise sum adds the
        # eight small masses first and lands one ulp above 1.0
        pmf = np.array([1.0] + [1e-16] * 8)
        support, mass, _ = aggregate(np.full(9, 0.25), pmf)
        assert support.tolist() == [0.25]
        assert mass.tolist() == [1.0]

    def test_atom_near_one_snaps(self):
        support, _, canonical = aggregate(
            np.array([0.5, 1 - 5e-11, 1.0]), np.array([0.5, 0.25, 0.25])
        )
        assert support.tolist() == [0.5, 1.0]
        assert canonical.tolist() == [0.5, 1.0, 1.0]
        support, _, _ = aggregate(
            np.array([0.5, 1 - 2e-10]), np.array([0.5, 0.5])
        )
        assert support.tolist() == [0.5, 1 - 2e-10]

    def test_underflowed_outcomes_left_out(self):
        support, mass, canonical = aggregate(
            np.array([0.5, 0.25, 1.0]), np.array([0.5, 0.0, 0.5])
        )
        assert support.tolist() == [0.5, 1.0]
        assert mass.tolist() == [0.5, 0.5]
        assert np.isnan(canonical[1])


class TestSingletonAndTiePaths:
    """The paths whose cost falls when atoms are singletons and PMF ties are
    few, against the general computations they shortcut."""

    @staticmethod
    def reference_two_sided(pmf):
        """Every outcome's count of outcomes at most as likely, searched."""
        sorted_pmf = pmf[np.argsort(pmf, kind="stable")]
        at_most = np.searchsorted(sorted_pmf, pmf * (1.0 + PROB_TIE_RTOL), side="right")
        return np.minimum(np.cumsum(sorted_pmf)[at_most - 1], 1.0)

    @staticmethod
    def tied_pmfs():
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pmf = rng.uniform(0.0, 1.0, n)
            # exact ties, and chains of neighbours within the tie tolerance
            pmf[rng.integers(0, n, n // 3)] = pmf[0]
            chain = rng.integers(0, n, n // 4)
            pmf[chain] = pmf[-1] * (1.0 + 0.4 * PROB_TIE_RTOL * np.arange(chain.size))
            pmf[rng.random(n) < 0.1] = 0.0
            pmf /= max(pmf.sum(), 1e-300)
            yield pmf

    def test_two_sided_ties_and_near_ties(self):
        for pmf in self.tied_pmfs():
            got = outcome_pvalues(pmf, TWO)
            assert got.tobytes() == self.reference_two_sided(pmf).tobytes()

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_order_is_the_stable_sort_of_the_pvalues(self, sided):
        for pmf in self.tied_pmfs():
            ascending, order = _outcome_pvalues(pmf, sided)
            pvals = (self.reference_two_sided(pmf) if sided is TWO
                     else np.minimum(np.cumsum(pmf), 1.0))
            assert order.tolist() == np.argsort(pvals, kind="stable").tolist()
            assert ascending.tobytes() == pvals[order].tobytes()

    def test_singleton_atoms(self):
        values = np.geomspace(1e-6, 1.0, 40)
        assert _atom_starts(values).tolist() == list(range(40))
        rng = np.random.default_rng(29)
        pvals = rng.permutation(values)
        pmf = rng.uniform(0.01, 1.0, 40)
        for got, expected in zip(aggregate(pvals, pmf),
                                 reference_aggregate(pvals, pmf)):
            assert got.tobytes() == expected.tobytes()

    def test_runs_clamped_at_one_in_outcome_order(self):
        # masses summing above 1: in PMF order the p-values of outcomes 4, 2
        # and 0 exceed 1 and clamp to one run, which must read 0, 2, 4
        pmf = np.array([0.9, 0.2, 0.8, 0.3, 0.7])
        ascending, order = _outcome_pvalues(pmf, TWO)
        assert ascending.tolist() == [0.2, 0.5, 1.0, 1.0, 1.0]
        assert order.tolist() == [1, 3, 0, 2, 4]

    @staticmethod
    def greedy_atom_starts(values):
        """Each value starts an atom when it lies beyond the tolerance of the
        current atom's first value."""
        starts = [0]
        for i in range(1, values.size):
            if values[i] > values[starts[-1]] * (1.0 + AGGREGATION_RTOL):
                starts.append(i)
        return starts

    @staticmethod
    def chains(segments):
        """Ascending values: each segment a first value, then steps of the
        given multiples of the tolerance."""
        values = []
        for first, steps in segments:
            values.append(first)
            for step in steps:
                values.append(values[-1] * (1.0 + step * AGGREGATION_RTOL))
        return np.sort(np.array(values))

    @given(st.lists(st.tuples(
        st.floats(1e-6, 1.0),
        st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.5]), max_size=12)),
        min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    # several wide chains, the last of them ending at the last value
    @example([(0.1, [0.6] * 5), (0.2, [0.3, 0.9, 0.0, 0.9]), (0.4, [0.0]),
              (0.7, [0.9] * 8)])
    def test_atom_starts_match_the_greedy_walk(self, segments):
        values = self.chains(segments)
        assert _atom_starts(values).tolist() == self.greedy_atom_starts(values)

    def test_close_pairs_without_a_wide_chain(self):
        # two atoms of two values each; no chain spans more than the tolerance
        values = np.array([0.1, 0.1 * (1 + 0.5 * AGGREGATION_RTOL), 0.2, 0.3,
                           0.3 * (1 + 0.9 * AGGREGATION_RTOL)])
        assert _atom_starts(values).tolist() == [0, 2, 3]
        pmf = np.full(5, 0.2)
        support, mass, canonical = aggregate(values, pmf)
        assert support.tolist() == [0.1, 0.2, 0.3]
        assert mass.tolist() == [0.4, 0.2, 0.4]
        assert canonical.tolist() == [0.1, 0.1, 0.2, 0.3, 0.3]


class TestTransientPeak:
    """The memory a table build holds at its peak, read with tracemalloc, is
    at most 80 bytes per kept outcome."""

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial_total_1e8(self, sided):
        _MEMO.clear()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            table = _binomial_test(10**8, sided)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = table[2].size
        assert kept > 380_000
        # the support, the masses and the canonical p-values, nothing more
        assert _table_bytes(table) == 8 * (2 * table[0].support.size + kept)
        assert peak - before <= 80 * kept


class TestOutsideSpanClamp:
    """An outcome whose null probability underflows takes the p-value of the
    nearest kept outcome, a support point; on these ranges it is at least
    the exact p-value."""

    @staticmethod
    def check_outside(table, lo, pmf, sided, pvalue):
        dist, first, canonical = table
        last = first + canonical.size - 1
        outside = [*range(lo, first), *range(last + 1, lo + len(pmf))]
        assert outside  # the range is wider than the outcomes kept
        exact = pvalues_exact(pmf, sided)
        support = set(dist.support.tolist())
        for k in outside:
            p = pvalue(k)
            assert p in support
            assert p == canonical[0 if k < first else -1]
            assert Fraction(p) >= exact[k - lo]

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_binomial_against_oracle(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for total in (1_100, 1_210, 1_530, 2_200, 3_000):
            self.check_outside(
                _binomial_test(total, sided_enum), 0, binomial_pmf_exact(total), sided,
                lambda c1: binomial_pvalue(PoissonPair(c1, total - c1), sided_enum),
            )

    @pytest.mark.parametrize("sided", ["one", "two"])
    def test_fet_against_oracle(self, sided):
        sided_enum = ONE if sided == "one" else TWO
        for n1, n2, m_obs in ((800, 800, 800), (760, 840, 800), (800, 900, 820)):
            margins = MarginalVector(n1, n2, m_obs)
            lo, pmf = hypergeom_pmf_exact(n1, n2, m_obs)
            self.check_outside(
                _fet_test(n1, n2, m_obs, sided_enum), lo, pmf, sided,
                lambda c1: fet_pvalue(c1, margins, sided_enum),
            )

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_strong_signals_score(self, sided):
        # strong signals whose null probability underflows
        for c1, c2 in ((0, 1_100), (10, 1_200), (30, 1_500)):
            p = binomial_pvalue(PoissonPair(c1, c2), sided)
            assert p > 0.0
            assert p in binomial_null_distribution(c1 + c2, sided).support
        margins = MarginalVector(50_000, 1_950_000, 20_000)
        p = fet_pvalue(2_000, margins, sided)
        assert p > 0.0
        assert p in fet_null_distribution(margins, sided).support

    def test_binomial_far_tail(self):
        canonical = _binomial_test(3000, TWO)[2]
        assert binomial_pvalue(PoissonPair(0, 3000), TWO) == canonical[0] > 0.0

    def test_fet_far_tails(self):
        margins = MarginalVector(100_000, 1_900_000, 20_000)
        first = _fet_test(*margins.as_tuple(), ONE)[1]
        # far below and just below the outcomes kept, then far above them
        for c1 in (0, first - 1):
            assert fet_pvalue(c1, margins, ONE) == fet_pvalue(first, margins, ONE) > 0.0
        assert fet_pvalue(20_000, margins, ONE) == 1.0


class TestEnumerationErrors:
    @pytest.mark.parametrize(
        "c1,margins,bounds",
        [(20_001, (50_000, 1_950_000, 20_000), "[0, 20000]"),
         (69, (100, 50, 120), "[70, 100]"),
         (101, (100, 50, 120), "[70, 100]")],
        ids=["range-wider-than-window", "below-lo", "above-hi"],
    )
    def test_invalid_table_names_full_range(self, c1, margins, bounds):
        with pytest.raises(
            InvalidTableError,
            match=re.escape(f"count {c1} outside hypergeometric range {bounds}"
                            f" for margins {margins}"),
        ):
            fet_pvalue(c1, MarginalVector(*margins), TWO)


class TestWindowLimit:
    """A window of more than ``MAX_WINDOW_OUTCOMES`` outcomes is refused with
    a typed error that names the statistic and the outcomes it needs."""

    @staticmethod
    def outcomes(excinfo):
        return int(re.search(r"needs (\d+) outcomes", str(excinfo.value)).group(1))

    @pytest.mark.parametrize("total", [10**12, 2**62], ids=["1e12", "2^62"])
    def test_binomial_total_refused(self, total):
        # a total float64 holds exactly is refused for its window, one at or
        # above 2^53 for the total itself
        refusal = (f"the binomial total {total} needs" if total < 2**53
                   else f"refuses the binomial total {total}: .* below 2\\^53")
        with pytest.raises(DegenerateDataError, match=refusal) as excinfo:
            binomial_null_distribution(total, TWO)
        if total < 2**53:
            assert self.outcomes(excinfo) > MAX_WINDOW_OUTCOMES
        with pytest.raises(DegenerateDataError, match=refusal):
            binomial_pvalue(PoissonPair(total // 2, total - total // 2), ONE)

    def test_fet_margins_refused(self):
        margins = MarginalVector(10**13, 10**13, 10**13)
        with pytest.raises(
            DegenerateDataError,
            match=re.escape(f"the margins (n1, n2, m_obs) = {margins.as_tuple()} needs"),
        ) as excinfo:
            fet_null_distribution(margins, TWO)
        assert self.outcomes(excinfo) > MAX_WINDOW_OUTCOMES

    def test_checked_scales_build(self):
        # 126,489 and 22,762 outcomes in the window
        assert _binomial_test(10**7, TWO)[2].size <= MAX_WINDOW_OUTCOMES
        assert _fet_test(10**6, 9 * 10**6, 10**6, TWO)[2].size <= MAX_WINDOW_OUTCOMES


class TestFloatExactLimit:
    """A total or margin at or above 2^53, which float64 cannot hold
    exactly, is refused with a typed error that names the statistic, before
    it is converted to a float."""

    REFUSAL = ": every total and margin must lie below 2\\^53"

    @pytest.mark.parametrize("total", [2**53, 10**400], ids=["2^53", "1e400"])
    def test_binomial_total_refused(self, total):
        # float(10**400) overflows
        match = f"the binomial total {total}{self.REFUSAL}"
        with pytest.raises(DegenerateDataError, match=match):
            binomial_null_distribution(total, TWO)
        with pytest.raises(DegenerateDataError, match=match):
            binomial_pvalue(PoissonPair(total - 3, 3), ONE)

    @pytest.mark.parametrize(
        "margins",
        [(10**400, 10**400, 3), (5, 2**53 + 1, 4), (2**53, 3, 2), (3, 2**53, 2),
         (2**52, 2**52, 2**53)],
        ids=["1e400", "n2-rounded", "n1", "n2", "m_obs"],
    )
    def test_fet_margins_refused(self, margins):
        # float64 rounds n2 = 2^53 + 1 to 2^53
        match = re.escape(f"the margins (n1, n2, m_obs) = {margins}") + self.REFUSAL
        for sided in (ONE, TWO):
            with pytest.raises(DegenerateDataError, match=match):
                fet_null_distribution(MarginalVector(*margins), sided)
            with pytest.raises(DegenerateDataError, match=match):
                fet_pvalue(max(0, margins[2] - margins[1]), MarginalVector(*margins), sided)

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_below_2_53_accepted(self, sided):
        for margins in ((5, 2**53 - 1, 4), (2**53 - 1, 2**53 - 1, 3)):
            table = fet_null_distribution(MarginalVector(*margins), sided)
            assert table.mass.sum() == pytest.approx(1.0, abs=1e-10)
        # the total 2^53 - 1 is refused for its window only
        with pytest.raises(DegenerateDataError, match=f"the binomial total {2**53 - 1} needs"):
            binomial_null_distribution(2**53 - 1, sided)


# An integer of more than 4,300 digits is more than Python prints; 10**5000
# has 16,610 bits.
HUGE = 10**5000
HUGE_CALLS = {
    "binomial_null_distribution": (
        lambda: binomial_null_distribution(HUGE, "two"), DegenerateDataError),
    "fet_null_distribution": (
        lambda: fet_null_distribution(MarginalVector(HUGE, HUGE, 3), "two"),
        DegenerateDataError),
    "binomial_pvalue": (
        lambda: binomial_pvalue(PoissonPair(HUGE, 1), "two"), DegenerateDataError),
    "fet_pvalue": (
        lambda: fet_pvalue(2, MarginalVector(HUGE, 5, 3), "two"), DegenerateDataError),
    "fet_pvalue-out-of-range": (
        lambda: fet_pvalue(10, MarginalVector(HUGE, 5, 3), "two"), InvalidTableError),
    "marginal_distance": (
        lambda: marginal_distance(MarginalVector(HUGE, 1, 1), MarginalVector(1, 1, 1)),
        InvalidConfigError),
    "group_by_statistic_quantiles": (
        lambda: group_by_statistic_quantiles(
            [MarginalVector(HUGE, 1, 1), MarginalVector(1, 1, 1)], 2),
        InvalidConfigError),
    "group_by_statistic_quantiles-l_star": (
        lambda: group_by_statistic_quantiles([1.0, 2.0, 3.0], HUGE), InvalidConfigError),
    "MarginalVector": (lambda: MarginalVector(1, 1, HUGE), InvalidConfigError),
    "PoissonPair": (lambda: PoissonPair(-HUGE, 1), InvalidConfigError),
    "Pi0Config": (lambda: Pi0Config(0.2, HUGE), InvalidConfigError),
}


@pytest.mark.parametrize("name", sorted(HUGE_CALLS))
def test_integer_too_large_to_format_or_convert_raises_typed_error(name):
    call, error = HUGE_CALLS[name]
    with pytest.raises(error) as info:
        call()
    # the message names the integer by its bit length, or the float64
    # range that it exceeds
    assert "16610 bits" in str(info.value) or "float64's range" in str(info.value)


# Counts of every kind the count checks see: plain ints take PoissonPair's
# inline test, every other value the shared checker.
COUNTS = [0, 3, 12, True, False, np.int64(4), np.uint64(5), np.int32(2), 2.0, 1.5,
          -1, np.int64(-2), None, "3", HUGE, -HUGE]


def outcome(call):
    """The error class and message ``call`` raises, or the value it returns."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestCountFastPath:
    """``PoissonPair`` accepts and refuses exactly what ``check_count``
    does, with its error class and message."""

    def test_poisson_pair(self):
        for c1 in COUNTS:
            for c2 in COUNTS:
                expected = outcome(lambda: (check_count("c1", c1), check_count("c2", c2)))
                got = outcome(lambda: PoissonPair(c1, c2))
                if isinstance(got, PoissonPair):
                    assert (got.c1, got.c2) == expected
                    assert type(got.c1) is type(c1) and type(got.c2) is type(c2)
                else:
                    assert got == expected


def bits(p) -> bytes:
    assert type(p) is float
    return np.float64(p).tobytes()


def with_numpy_ints(pairs):
    """``pairs``, then each again as numpy integers."""
    return [*pairs, *((np.int64(c1), np.uint64(c2)) for c1, c2 in pairs)]


def span_pvalue(table, k: int) -> float:
    """The p-value of outcome ``k`` read from a table by the clamp that the
    memo-hit path replaced."""
    _, first, canonical = table
    return float(canonical[min(max(k - first, 0), canonical.size - 1)])


class TestMemoHitMatchesColdCall:
    """A p-value read from the memo is bit for bit the one a call on a cold
    memo returns, inside the kept span and clamped outside it."""

    # (c1, c2) pairs: CI's strong.csv rows, whose far tails are clamped, and
    # outcomes across a small and a mid-sized total
    PAIRS = ([(0, 1_100), (10, 1_200), (30, 1_500), (40, 45), (12, 30)]
             + [(c1, 13 - c1) for c1 in range(14)]
             + [(c1, 3_000 - c1) for c1 in range(0, 3_001, 75)])

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_binomial(self, sided):
        clamped = 0
        for c1, c2 in with_numpy_ints(self.PAIRS):
            _MEMO.clear()
            cold = binomial_pvalue(PoissonPair(c1, c2), sided)
            hit = binomial_pvalue(PoissonPair(c1, c2), sided)
            table = _binomial_test.__wrapped__(int(c1) + int(c2), sided)
            assert bits(hit) == bits(cold) == bits(span_pvalue(table, int(c1)))
            _, first, canonical = table
            clamped += not 0 <= c1 - first < canonical.size
        assert clamped >= 4  # the strong rows lie outside the kept span

    @pytest.mark.parametrize("sided", [ONE, TWO], ids=["one", "two"])
    def test_fet(self, sided):
        clamped = 0
        # CI's strong-fet.csv rows with its study totals, and tables whose
        # range is wider than the outcomes kept
        cases = [(c1, MarginalVector(n1, 2_000_000 - n1, 20_000))
                 for c1, n1 in ((2_000, 50_000), (120, 10_000), (90, 9_000))]
        for n1, n2, m_obs in ((800, 800, 800), (9, 12, 8)):
            cases += [(c1, MarginalVector(n1, n2, m_obs))
                      for c1 in range(max(0, m_obs - n2), min(n1, m_obs) + 1, 7)]
        cases.append((np.int64(2), MarginalVector(np.int64(9), 12, np.uint64(8))))
        for c1, margins in cases:
            _MEMO.clear()
            cold = fet_pvalue(c1, margins, sided)
            hit = fet_pvalue(c1, margins, sided)
            table = _fet_test.__wrapped__(*margins.as_tuple(), sided)
            assert bits(hit) == bits(cold) == bits(span_pvalue(table, int(c1)))
            _, first, canonical = table
            clamped += not 0 <= c1 - first < canonical.size
        assert clamped >= 2
