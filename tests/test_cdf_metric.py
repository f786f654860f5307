"""Tests for the CDF metric and its conditioning-statistic surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_fdr import (
    DiscreteCDF,
    InvalidComparisonError,
    MarginalVector,
    Sidedness,
    binomial_null_distribution,
    delta,
    fet_null_distribution,
    marginal_distance,
    sup_norm_diff,
    support_symmetric_difference_count,
)
from instances import MARGIN_VALUES

TWO = Sidedness.TWO_SIDED


def random_cdf(rng, grid=32, max_atoms=8):
    """A random step CDF with support on an exact grid, so coincidence of
    support points across CDFs is exact in floating point."""
    k = int(rng.integers(1, max_atoms + 1))
    points = np.sort(rng.choice(np.arange(1, grid + 1), size=k, replace=False)) / grid
    w = rng.random(k) + 0.1
    return DiscreteCDF(points, w / w.sum())


def float_margin_reference(s, t) -> float:
    """Max-abs difference of two margins as float64 arrays."""
    a = np.asarray(s.as_tuple(), dtype=float)
    b = np.asarray(t.as_tuple(), dtype=float)
    return float(np.max(np.abs(a - b)))


class TestSymmetricDifferenceCount:
    def test_identical(self):
        d = binomial_null_distribution(5, TWO)
        assert support_symmetric_difference_count(d, d) == 0

    def test_binomial_totals_2_vs_3(self):
        f = binomial_null_distribution(2, TWO)
        g = binomial_null_distribution(3, TWO)
        # supports {0.5, 1} vs {0.25, 1}: only the atom at 1 is shared
        assert support_symmetric_difference_count(f, g) == 2

    def test_disjoint_supports(self):
        f = DiscreteCDF(np.array([0.1, 0.4]), np.array([0.5, 0.5]))
        g = DiscreteCDF(np.array([0.2, 0.3, 0.9]), np.array([0.3, 0.3, 0.4]))
        assert support_symmetric_difference_count(f, g) == 5

    def test_tolerance_is_relative(self):
        f = DiscreteCDF(np.array([0.5]), np.array([1.0]))
        g = DiscreteCDF(np.array([0.5 * (1 + 1e-9)]), np.array([1.0]))
        assert support_symmetric_difference_count(f, g) == 0
        assert support_symmetric_difference_count(f, g, rtol=1e-12) == 2


class TestSupNorm:
    def test_identical(self):
        d = binomial_null_distribution(7, TWO)
        assert sup_norm_diff(d, d) == 0.0

    def test_binomial_totals_2_vs_3(self):
        f = binomial_null_distribution(2, TWO)
        g = binomial_null_distribution(3, TWO)
        assert sup_norm_diff(f, g) == pytest.approx(0.25, abs=1e-12)

    def test_hand_built(self):
        f = DiscreteCDF(np.array([0.2, 1.0]), np.array([0.6, 0.4]))
        g = DiscreteCDF(np.array([0.5, 1.0]), np.array([0.3, 0.7]))
        # F jumps to 0.6 at 0.2 while G is 0; gap 0.6 on [0.2, 0.5)
        assert sup_norm_diff(f, g) == pytest.approx(0.6, abs=1e-12)


class TestDelta:
    def test_identical(self):
        d = binomial_null_distribution(3, TWO)
        v = delta(d, d)
        assert v.jump_count_diff == 0 and v.sup_norm == 0.0 and v.total == 0.0

    def test_binomial_totals_2_vs_3(self):
        v = delta(binomial_null_distribution(2, TWO), binomial_null_distribution(3, TWO))
        assert v.jump_count_diff == 2
        assert v.sup_norm == pytest.approx(0.25, abs=1e-12)
        assert v.total == pytest.approx(2.25, abs=1e-12)

    def test_binomial_zero_iff_equal_totals(self):
        dists = {t: binomial_null_distribution(t, TWO) for t in range(1, 41)}
        for ti, fi in dists.items():
            for tj, fj in dists.items():
                total = delta(fi, fj).total
                if ti == tj:
                    assert total == 0.0
                else:
                    assert total > 0.0, (ti, tj)

    def test_jump_count_invariant_under_increasing_relabeling(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = random_cdf(rng)
            g = random_cdf(rng)
            before = delta(f, g)
            # strictly increasing map of (0,1] onto itself preserving
            # which support points coincide
            f2 = DiscreteCDF(f.support**2, f.mass)
            g2 = DiscreteCDF(g.support**2, g.mass)
            after = delta(f2, g2)
            assert after.jump_count_diff == before.jump_count_diff
            assert after.sup_norm == pytest.approx(before.sup_norm, abs=1e-12)


@pytest.fixture(scope="module")
def pair():
    fi = fet_null_distribution(MarginalVector(19, 75146, 35090), TWO)
    fj = fet_null_distribution(MarginalVector(5, 75160, 35090), TWO)
    return fi, fj


class TestReferenceMarginPair:
    """The drug-safety-scale margin pair used as the worked example."""

    def test_support_sizes(self, pair):
        fi, fj = pair
        assert (len(fi), len(fj)) == (20, 6)

    def test_sup_norm(self, pair):
        fi, fj = pair
        assert sup_norm_diff(fi, fj) == pytest.approx(0.270, abs=1e-3)

    def test_symmetric_difference_at_recorded_tolerance(self, pair):
        # At the default tolerance only the atom at 1 coincides (24 = 20+6-2).
        # The reference count of 14 equals the difference of the support
        # sizes; under the symmetric-difference formula it is reproduced at
        # a relative tolerance of 0.11, where each of the smaller support's
        # atoms pairs with its nearest neighbour (largest gap 10.5%).
        fi, fj = pair
        assert support_symmetric_difference_count(fi, fj) == 24
        assert support_symmetric_difference_count(fi, fj, rtol=0.11) == 14

    def test_delta_total_at_recorded_tolerance(self, pair):
        fi, fj = pair
        assert delta(fi, fj, rtol=0.11).total == pytest.approx(14.270, abs=1e-3)


class TestMetricAxioms:
    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        n_triples = 10_000
        for _ in range(n_triples):
            f, g, h = (random_cdf(rng) for _ in range(3))
            dfg, dgf = delta(f, g), delta(g, f)
            assert dfg.total >= 0.0
            assert dfg.jump_count_diff == dgf.jump_count_diff
            assert dfg.sup_norm == dgf.sup_norm  # symmetric evaluation
            # triangle inequality on the combined metric
            assert delta(f, h).total <= dfg.total + delta(g, h).total + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            f = random_cdf(rng)
            g = random_cdf(rng)
            same_copy = DiscreteCDF(f.support.copy(), f.mass.copy())
            assert delta(f, same_copy).total == 0.0
            if delta(f, g).total == 0.0:
                assert np.array_equal(f.support, g.support)
                np.testing.assert_allclose(f.mass, g.mass, atol=1e-12)


class TestMarginalDistance:
    def test_reference_margin_pair(self):
        d = marginal_distance(
            MarginalVector(19, 75146, 35090), MarginalVector(5, 75160, 35090)
        )
        assert d == 14.0

    def test_identical(self):
        m = MarginalVector(7, 9, 3)
        assert marginal_distance(m, m) == 0.0
        assert marginal_distance(10, 10) == 0.0

    def test_scalar_totals(self):
        assert marginal_distance(7, 10) == 3.0

    def test_kind_mismatch(self):
        with pytest.raises(InvalidComparisonError):
            marginal_distance(7, MarginalVector(1, 1, 1))

    @pytest.mark.parametrize("total", [7.0, np.float64(7.0)])
    def test_kind_mismatch_float_total_and_margins(self, total):
        margins = MarginalVector(1, 1, 1)
        with pytest.raises(InvalidComparisonError):
            marginal_distance(total, margins)
        with pytest.raises(InvalidComparisonError):
            marginal_distance(margins, total)

    @pytest.mark.parametrize("s, t", [
        (7, 10),
        (np.int64(7), np.int64(10)),
        (7.0, 10.0),
        (np.float64(7.0), np.float64(10.0)),
        (7, 10.0),
        (MarginalVector(7, 1, 0), MarginalVector(10, 1, 0)),
        (MarginalVector(np.int64(7), 1, 0), MarginalVector(10, np.int64(1), 0)),
    ])
    def test_returns_python_float(self, s, t):
        d = marginal_distance(s, t)
        assert type(d) is float
        assert d == 3.0

    def test_margins_above_2_53_convert_before_subtracting(self):
        # 2**53 + 1 is not a float64: both margins round to 2**53, so the
        # distance is 0, as it is for float64 arrays of the margins
        big = 2**53
        s = MarginalVector(big + 1, 0, 0)
        t = MarginalVector(big, 0, 0)
        assert marginal_distance(s, t) == 0.0 == float_margin_reference(s, t)
        u = MarginalVector(np.int64(big + 3), 5, 2)
        v = MarginalVector(0, 5, 2)
        assert marginal_distance(u, v) == float(big + 4) == float_margin_reference(u, v)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MARGIN_VALUES, min_size=6, max_size=6))
    def test_margins_match_float64_reference(self, values):
        n1, n2, x, k1, k2, y = values
        s = MarginalVector(n1, n2, min(x, n1 + n2))
        t = MarginalVector(k1, k2, min(y, k1 + k2))
        assert marginal_distance(s, t) == float_margin_reference(s, t)
        assert marginal_distance(t, s) == float_margin_reference(s, t)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e18),
           st.floats(min_value=0.0, max_value=1e18))
    def test_float_totals_match_float64_reference(self, a, b):
        assert marginal_distance(a, b) == float(np.abs(np.float64(a) - np.float64(b)))

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            s, t, u = (
                MarginalVector(*(int(v) for v in rng.integers(0, 50, 2)), 0)
                for _ in range(3)
            )
            assert marginal_distance(s, t) == marginal_distance(t, s) >= 0.0
            assert marginal_distance(s, u) <= (
                marginal_distance(s, t) + marginal_distance(t, u) + 1e-12
            )
            assert marginal_distance(s, s) == 0.0
