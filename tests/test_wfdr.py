"""Tests for the weighted FDR procedure, BH baseline and step-up comparator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_fdr import (
    InvalidConfigError,
    InvalidEstimateError,
    NotApplicableError,
    Partition,
    Pi0Config,
    Sidedness,
    WfdrConfig,
    bh_reject,
    binomial_null_distribution,
    binomial_pvalue,
    fdr_estimate,
    group_weights,
    rejection_threshold,
    theorem1_compare,
    weighted_pvalues,
    wfdr_reject,
)
from discrete_fdr.exact_tests import PoissonPair
from instances import (
    INVALID_PVALUES,
    grid_sup_rejections,
    random_weighted_instance,
    step_up_rejections,
)


class TestGroupWeights:
    def test_half(self):
        assert group_weights([0.5]).tolist() == [1.0]

    def test_point_eight(self):
        assert group_weights([0.8])[0] == pytest.approx(4.0)

    def test_one_is_infinite(self):
        assert np.isinf(group_weights([1.0])[0])

    def test_invalid_estimate(self):
        with pytest.raises(InvalidEstimateError):
            group_weights([1.2])
        with pytest.raises(InvalidEstimateError):
            group_weights([-0.1])


class TestWeightedPvalues:
    def test_identity_weights(self):
        part = Partition((np.arange(4),))
        p = np.array([0.1, 0.2, 0.5, 1.0])
        assert weighted_pvalues(p, part, [1.0]).tolist() == p.tolist()

    def test_scaling(self):
        part = Partition((np.array([0, 1]), np.array([2])))
        out = weighted_pvalues([0.02, 0.5, 0.1], part, [4.0, 0.5])
        np.testing.assert_allclose(out, [0.08, 2.0, 0.05])

    def test_infinite_weight_never_rejectable(self):
        part = Partition((np.array([0]), np.array([1]),))
        out = weighted_pvalues([0.001, 0.5], part, [np.inf, 1.0])
        assert np.isinf(out[0]) and out[1] == 0.5


class TestFdrEstimate:
    def test_worked_value(self):
        ptilde = [0.05, 0.08, 0.09, 0.1, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert fdr_estimate(0.1, ptilde, 0.5) == pytest.approx(0.125)

    def test_zero_threshold(self):
        assert fdr_estimate(0.0, [0.5, 1.0], 0.7) == 0.0

    def test_floor_engages_without_rejections(self):
        assert fdr_estimate(0.2, [0.5] * 10, 0.0) == 1.0

    def test_capped_at_one(self):
        assert fdr_estimate(100.0, [0.5], 0.0) == 1.0


class TestRejectionThreshold:
    def test_worked_example(self):
        ptilde = np.array([0.01, 0.05, 0.6, 0.9])
        tau = rejection_threshold(0.2, ptilde, 0.5)
        assert tau == pytest.approx(0.05)
        assert set(np.flatnonzero(ptilde <= tau)) == {0, 1}

    def test_pi0_one_rejects_nothing(self):
        assert rejection_threshold(0.2, [0.001, 0.002], 1.0) == 0.0

    def test_zero_weight_group_always_rejected(self):
        # a group estimated fully non-null has weight 0: its weighted
        # p-values are 0 and fall at or below any threshold, even 0
        part = Partition((np.array([0, 1]), np.array([2, 3])))
        ptilde = weighted_pvalues([0.4, 0.9, 0.3, 0.6], part, [0.0, 2.0])
        pi0 = 0.5
        for alpha in (0.0, 0.01, 0.2):
            rejected = set(
                np.flatnonzero(
                    ptilde <= rejection_threshold(alpha, ptilde, pi0)
                ).tolist()
            )
            assert rejected >= {0, 1}
            assert rejected == grid_sup_rejections(ptilde, pi0, alpha)

    def test_alpha_zero(self):
        assert rejection_threshold(0.0, [0.01, 0.5], 0.5) == 0.0

    def test_step_up_equals_grid_sup(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            p, ptilde, pi0 = random_weighted_instance(rng, max_m=80)
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.5]))
            assert step_up_rejections(ptilde, pi0, alpha) == grid_sup_rejections(
                ptilde, pi0, alpha
            )


class TestBhReject:
    def test_worked_example(self):
        report = bh_reject([0.01, 0.02, 0.5, 1.0], 0.1)
        assert report.k_star == 2
        assert report.rejected.tolist() == [0, 1]
        assert report.threshold == 0.02

    def test_all_ones(self):
        report = bh_reject([1.0] * 5, 0.5)
        assert report.n_rejected == 0 and report.k_star == 0

    def test_all_below_alpha_over_m(self):
        report = bh_reject([0.01, 0.02, 0.024], 0.1)
        assert report.n_rejected == 3

    def test_ties_rejected_together(self):
        report = bh_reject([0.02, 0.02, 0.02, 0.9], 0.05)
        assert report.n_rejected in (0, 3)
        assert report.n_rejected == report.k_star

    def test_fdr_control_on_uniform_nulls(self):
        # all hypotheses null: FDP is 1 whenever anything is rejected
        rng = np.random.default_rng(41)
        alpha, m, reps = 0.1, 100, 400
        fdp = np.array(
            [
                float(bh_reject(rng.uniform(size=m), alpha).n_rejected > 0)
                for _ in range(reps)
            ]
        )
        mc_se = fdp.std(ddof=1) / np.sqrt(reps)
        assert fdp.mean() <= alpha + 3 * mc_se


class TestTheorem1Compare:
    def test_reduces_to_bh_with_unit_weights(self):
        p = np.array([0.01, 0.04, 0.3, 0.7])
        k_star, k_tilde, geq = theorem1_compare(p, p, 0.0, 0.1)
        assert k_star == k_tilde and geq

    def test_worked_instance(self):
        p = np.array([0.04, 0.2, 0.6, 0.9])  # BH rejects exactly one at 0.2
        ptilde = np.array([0.01, 0.05, 0.6, 0.9])
        assert theorem1_compare(p, ptilde, 0.5, 0.2) == (1, 2, True)

    def test_alpha_validation(self):
        for alpha in (-0.1, 2.0, np.nan):
            with pytest.raises(InvalidConfigError, match="alpha"):
                theorem1_compare([0.01, 0.5], [0.01, 0.5], 0.5, alpha)

    def test_not_applicable_at_pi0_one(self):
        with pytest.raises(NotApplicableError):
            theorem1_compare([0.5], [0.5], 1.0, 0.1)

    def test_flag_matches_rejection_counts(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            p, ptilde, pi0 = random_weighted_instance(rng, max_m=60)
            alpha = float(rng.choice([0.05, 0.1, 0.2]))
            k_star, k_tilde, geq = theorem1_compare(p, ptilde, pi0, alpha)
            n_bh = bh_reject(p, alpha).n_rejected
            n_wfdr = len(step_up_rejections(ptilde, pi0, alpha))
            assert n_bh == k_star
            assert n_wfdr == k_tilde
            assert geq == (n_wfdr >= n_bh)


class TestMonotonicityAndInvariance:
    def test_rejections_nested_in_alpha(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p, ptilde, pi0 = random_weighted_instance(rng, max_m=60)
            previous = set()
            for alpha in (0.01, 0.05, 0.1, 0.2, 0.5, 0.8):
                current = step_up_rejections(ptilde, pi0, alpha)
                assert previous <= current
                previous = current
            previous = set()
            for alpha in (0.01, 0.05, 0.1, 0.2, 0.5, 0.8):
                current = set(bh_reject(p, alpha).rejected.tolist())
                assert previous <= current
                previous = current

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_permutes_rejections(self, seed):
        rng = np.random.default_rng(seed)
        p, ptilde, pi0 = random_weighted_instance(rng, max_m=40)
        alpha = 0.2
        rejected = step_up_rejections(ptilde, pi0, alpha)
        perm = rng.permutation(p.size)
        rejected_perm = step_up_rejections(ptilde[perm], pi0, alpha)
        assert rejected_perm == {int(np.flatnonzero(perm == i)[0]) for i in rejected}


@pytest.mark.parametrize("bad", INVALID_PVALUES)
class TestPValueValidation:
    def test_bh_reject(self, bad):
        with pytest.raises(InvalidConfigError, match=r"\(0, 1\]"):
            bh_reject([bad, 0.001, 0.002], 0.05)

    def test_theorem1_compare(self, bad):
        with pytest.raises(InvalidConfigError, match=r"\(0, 1\]"):
            theorem1_compare([bad, 0.001, 0.002], [0.001] * 3, 0.5, 0.2)

    def test_wfdr_reject(self, bad):
        supports = [np.array([0.001, 0.002, 1.0])] * 3
        with pytest.raises(InvalidConfigError, match=r"\(0, 1\]"):
            wfdr_reject([0.001, bad, 0.002], supports, [3.0] * 3, 0.05,
                        WfdrConfig(l_star=1, pi0=Pi0Config(0.2, 0.1)))


class TestWfdrReject:
    def test_pure_p_one_study_rejects_nothing(self):
        supports = [np.array([1.0])] * 6
        report = wfdr_reject(
            [1.0] * 6,
            supports,
            [3.0] * 6,
            0.2,
            WfdrConfig(l_star=2, pi0=Pi0Config(0.2, 0.1)),
        )
        assert report.pi0_overall == 1.0
        assert report.n_rejected == 0
        assert report.threshold == 0.0

    def test_single_group_composition(self):
        # one group: the weighted rejection must match applying the
        # threshold rule directly with that group's weight
        rng = np.random.default_rng(53)
        totals = rng.integers(5, 40, size=30)
        p = np.empty(30)
        supports = []
        for i, t in enumerate(totals):
            c1 = int(rng.integers(0, int(t) + 1))
            p[i] = binomial_pvalue(PoissonPair(c1, int(t) - c1), Sidedness.TWO_SIDED)
            supports.append(
                binomial_null_distribution(int(t), Sidedness.TWO_SIDED).support
            )
        cfg = WfdrConfig(l_star=1, pi0=Pi0Config(0.2, 0.01))
        report = wfdr_reject(p, supports, totals.astype(float), 0.1, cfg)
        assert len(report.partition.groups) == 1
        w = report.weights[0]
        if report.pi0_overall < 1.0:
            tau = rejection_threshold(0.1, p * w, report.pi0_overall)
            assert set(report.rejected.tolist()) == set(
                np.flatnonzero(p * w <= tau).tolist()
            )

    def test_metric_grouping_mode(self):
        rng = np.random.default_rng(59)
        totals = np.concatenate([rng.integers(4, 8, 15), rng.integers(60, 70, 15)])
        p = np.empty(30)
        supports = []
        for i, t in enumerate(totals):
            c1 = int(rng.integers(0, int(t) + 1))
            p[i] = binomial_pvalue(PoissonPair(c1, int(t) - c1), Sidedness.TWO_SIDED)
            supports.append(
                binomial_null_distribution(int(t), Sidedness.TWO_SIDED).support
            )
        cfg = WfdrConfig(
            l_star=2, g_star=2, grouping="metric", pi0=Pi0Config(0.2, 0.01)
        )
        report = wfdr_reject(p, supports, totals.astype(float), 0.1, cfg)
        assert len(report.partition.groups) == 2
        # the two total-count clusters are far apart: groups must not mix them
        for g in report.partition.groups:
            values = totals[g]
            assert values.max() - values.min() < 50

    def test_alpha_validation(self):
        with pytest.raises(InvalidConfigError):
            wfdr_reject([0.5], [np.array([1.0])], [1.0], 1.5, WfdrConfig())

    def test_grouping_name_validation(self):
        with pytest.raises(InvalidConfigError):
            WfdrConfig(grouping="kmeans")
