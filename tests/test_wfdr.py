"""Tests for the weighted FDR procedure, BH baseline and step-up comparator."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discrete_fdr import (
    GroupingConfig,
    GroupingDidNotConvergeError,
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
    group_by_statistic_quantiles,
    group_from_distances,
    group_weights,
    marginal_distance,
    rejection_threshold,
    theorem1_compare,
    weight_study,
    weighted_pvalues,
    wfdr_reject,
)
from discrete_fdr import wfdr
from discrete_fdr.exact_tests import MarginalVector, PoissonPair
from discrete_fdr.grouping import pairwise_distances
from instances import (
    INVALID_PVALUES,
    MARGIN_VALUES,
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1/0 divides to inf without a warning
            assert group_weights([1.0, 0.0, 0.5]).tolist() == [np.inf, 0.0, 1.0]

    def test_invalid_estimate(self):
        with pytest.raises(InvalidEstimateError):
            group_weights([1.2])
        with pytest.raises(InvalidEstimateError):
            group_weights([-0.1])
        with pytest.raises(InvalidEstimateError):
            group_weights([0.5, np.nan])


class TestWeightedPvalues:
    def test_identity_weights(self):
        part = Partition((np.arange(4),))
        p = np.array([0.1, 0.2, 0.5, 1.0])
        assert weighted_pvalues(p, part, [1.0]).tolist() == p.tolist()

    def test_scaling(self):
        part = Partition((np.array([0, 1]), np.array([2])))
        out = weighted_pvalues([0.02, 0.5, 0.1], part, [4.0, 0.5])
        np.testing.assert_allclose(out, [0.08, 2.0, 0.05])

    @pytest.mark.parametrize("partition, named", [
        ([np.arange(4)], "list"), (None, "NoneType"),
    ], ids=["list", "none"])
    def test_partition_must_be_a_partition(self, partition, named):
        with pytest.raises(InvalidConfigError,
                           match=f"partition must be a Partition, got {named}"):
            weighted_pvalues(np.full(4, 0.5), partition, [1.0])

    def test_partition_must_cover_the_study(self):
        with pytest.raises(InvalidConfigError, match="partition does not cover the study"):
            weighted_pvalues(np.full(4, 0.5), Partition((np.arange(3),)), [1.0])

    def test_infinite_weight_never_rejectable(self):
        part = Partition((np.array([0]), np.array([1]),))
        out = weighted_pvalues([0.001, 0.5], part, [np.inf, 1.0])
        assert np.isinf(out[0]) and out[1] == 0.5

    @pytest.mark.parametrize("pvalues,match", [
        ([[0.1, 0.2]], "1-d array, got 2"),
        ([0.1, np.nan], "at index 1"),
        ([0.1, 1.5], "at index 1"),
        ([0.0, 0.5], "at index 0"),
    ], ids=["2-d", "nan", "above-one", "zero"])
    def test_invalid_pvalues(self, pvalues, match):
        part = Partition((np.array([0, 1]),))
        with pytest.raises(InvalidConfigError, match=match):
            weighted_pvalues(pvalues, part, [1.0])


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
        assert report.n_rejected == 2
        assert report.rejected.tolist() == [0, 1]
        assert report.threshold == 0.02

    def test_all_ones(self):
        report = bh_reject([1.0] * 5, 0.5)
        assert report.n_rejected == 0

    def test_all_below_alpha_over_m(self):
        report = bh_reject([0.01, 0.02, 0.024], 0.1)
        assert report.n_rejected == 3

    def test_ties_rejected_together(self):
        report = bh_reject([0.02, 0.02, 0.02, 0.9], 0.05)
        assert report.rejected.tolist() in ([], [0, 1, 2])

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

    def test_unequal_lengths(self):
        # the two counts would come from different studies
        with pytest.raises(InvalidConfigError, match="equal lengths"):
            theorem1_compare([0.01, 0.02, 0.5], [0.01], 0.5, 0.1)

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


class TestPValueDimensions:
    """Arrays of any shape but 1-d are rejected before numpy sees them."""

    def test_bh_reject(self):
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            bh_reject([[0.01, 0.5], [0.2, 0.3]], 0.05)

    def test_rejection_threshold(self):
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            rejection_threshold(0.05, [[0.01, 0.5]], 0.5)

    def test_theorem1_compare(self):
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            theorem1_compare([[0.01, 0.5]], [0.01, 0.5], 0.5, 0.05)
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            theorem1_compare([0.01, 0.5], [[0.01, 0.5]], 0.5, 0.05)

    def test_wfdr_reject(self):
        supports = [np.array([0.001, 0.002, 1.0])] * 2
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            wfdr_reject([[0.001, 0.002]], supports, [3.0] * 2, 0.05,
                        WfdrConfig(l_star=1, pi0=Pi0Config(0.2, 0.1)))

    def test_scalar(self):
        with pytest.raises(InvalidConfigError, match="1-d array, got 0"):
            bh_reject(0.01, 0.05)


class TestWeightedScaleValidation:
    """The step-up functions check the inputs they take on the weighted scale."""

    @pytest.mark.parametrize("pi0", [np.nan, -1.0, -0.01, 1.01, 2.0])
    def test_pi0_outside_unit_interval(self, pi0):
        for call in (
            lambda: rejection_threshold(0.1, [0.001, 0.002], pi0),
            lambda: theorem1_compare([0.001, 0.002], [0.001, 0.002], pi0, 0.1),
        ):
            with pytest.raises(InvalidEstimateError, match="pi0_overall"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, -0.5, -np.inf])
    def test_weighted_nan_or_negative(self, bad):
        with pytest.raises(InvalidConfigError, match="at index 1"):
            rejection_threshold(0.1, [0.001, bad], 0.5)
        with pytest.raises(InvalidConfigError, match="at index 1"):
            theorem1_compare([0.001, 0.002], [0.001, bad], 0.5, 0.1)

    def test_infinite_and_zero_weighted_valid(self):
        # weight inf (all-null group) and weight 0 (all-non-null group)
        assert rejection_threshold(0.1, [0.0, 0.001, np.inf], 0.5) == 0.001
        assert theorem1_compare([0.5, 0.001, 0.9], [0.0, 0.001, np.inf], 0.5, 0.1) == (
            1, 2, True
        )

    def test_pi0_bounds_valid(self):
        assert rejection_threshold(0.1, [0.001, 0.002], 1.0) == 0.0
        assert rejection_threshold(0.1, [0.001, 0.002], 0.0) == 0.002


class TestWfdrReject:
    def test_pure_p_one_study_rejects_nothing(self):
        supports = [np.array([1.0])] * 6
        weighted = weight_study(
            [1.0] * 6,
            supports,
            [3.0] * 6,
            WfdrConfig(l_star=2, pi0=Pi0Config(0.2, 0.1)),
        )
        assert weighted.pi0_overall == 1.0
        report = weighted.reject(0.2)
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
        weighted = weight_study(p, supports, totals.astype(float), cfg)
        report = weighted.reject(0.1)
        assert len(weighted.partition.groups) == 1
        w = weighted.weights[0]
        if weighted.pi0_overall < 1.0:
            tau = rejection_threshold(0.1, p * w, weighted.pi0_overall)
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
        partition = weight_study(p, supports, totals.astype(float), cfg).partition
        assert len(partition.groups) == 2
        # the two total-count clusters are far apart: groups must not mix them
        for g in partition.groups:
            values = totals[g]
            assert values.max() - values.min() < 50

    def test_alpha_validation(self):
        # one group, and p = 0.5 a point of its support, so the
        # one-hypothesis study fails on alpha alone
        with pytest.raises(InvalidConfigError, match="alpha"):
            wfdr_reject([0.5], [np.array([0.5, 1.0])], [1.0], 1.5, WfdrConfig(l_star=1))

    @pytest.mark.parametrize("grouping", ["quantile", "metric"])
    def test_group_count_up_to_m(self, grouping):
        supports = [np.array([0.01, 1.0])] * 4
        args = ([0.01, 1.0, 0.01, 1.0], supports, [1.0, 2.0, 5.0, 9.0])
        cfg = WfdrConfig(l_star=4, grouping=grouping, pi0=Pi0Config(0.2, 0.1))
        assert weight_study(*args, cfg).partition.sizes == (1, 1, 1, 1)
        with pytest.raises(InvalidConfigError, match="l_star = 5 exceeds m = 4"):
            weight_study(*args, WfdrConfig(l_star=5, grouping=grouping))

    def test_grouping_name_validation(self):
        with pytest.raises(InvalidConfigError):
            WfdrConfig(grouping="kmeans")

    @pytest.mark.parametrize("fields", [
        dict(l_star=0), dict(g_star=0), dict(l_star=2.5), dict(g_star=1.5),
        dict(l_star=-3, grouping="metric"),
    ])
    def test_group_count_validation(self, fields):
        with pytest.raises(InvalidConfigError, match="must be an integer >= 1"):
            WfdrConfig(**fields)

    def test_g_star_needs_metric_grouping(self):
        with pytest.raises(InvalidConfigError, match="g_star applies to metric"):
            WfdrConfig(l_star=2, g_star=3)
        assert WfdrConfig(l_star=2, g_star=3, grouping="metric").g_star == 3
        assert WfdrConfig(l_star=2, g_star=np.int64(1)).g_star == 1

    @pytest.mark.parametrize("pi0", [0.2, "0.2", (0.2, 0.0005)])
    def test_pi0_must_be_a_grid(self, pi0):
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"pi0 must be a Pi0Config, got {pi0!r}")):
            WfdrConfig(pi0=pi0)
        assert WfdrConfig(pi0=None).pi0 is None
        assert WfdrConfig(pi0=Pi0Config(0.2, 0.1)).pi0 == Pi0Config(0.2, 0.1)

    def test_invalid_support_names_study_hypothesis(self):
        # the bad support sits in the second quantile group, at study index 2
        supports = [np.array([0.01, 1.0])] * 4
        supports[2] = np.array([0.5, 0.01, 1.0])
        with pytest.raises(InvalidConfigError, match="support of hypothesis 2 "):
            weight_study([0.01, 1.0, 0.5, 1.0], supports, [1.0, 1.0, 5.0, 5.0],
                         WfdrConfig(l_star=2, pi0=Pi0Config(0.2, 0.1)))

    @pytest.mark.parametrize("cfg", [None, 3, GroupingConfig(l_star=3)],
                             ids=["none", "int", "grouping-config"])
    def test_cfg_must_be_a_wfdr_config(self, cfg):
        supports = [np.array([0.01, 1.0])] * 4
        for call in (lambda: weight_study([0.01, 1.0, 0.01, 1.0], supports, [1.0] * 4, cfg),
                     lambda: wfdr_reject([0.01, 1.0, 0.01, 1.0], supports, [1.0] * 4, 0.05, cfg)):
            with pytest.raises(InvalidConfigError,
                               match=re.escape(f"cfg must be a WfdrConfig, got {cfg!r}")):
                call()

    def test_numpy_integer_group_count(self):
        supports = [np.array([0.01, 1.0])] * 4
        weighted = weight_study(
            [0.01, 1.0, 0.01, 1.0], supports, [1.0, 1.0, 5.0, 5.0],
            WfdrConfig(l_star=np.int64(2), pi0=Pi0Config(0.2, 0.1)),
        )
        assert weighted.partition.sizes == (2, 2)


def metric_partition_dmat(monkeypatch, stats) -> np.ndarray:
    """The distance matrix that ``_metric_partition``'s distance calls fill."""
    seen = []

    def record(items, distance):
        seen.append(real(items, distance))
        return seen[-1].copy()

    real = wfdr.pairwise_distances
    monkeypatch.setattr(wfdr, "pairwise_distances", record)
    wfdr._metric_partition(stats, WfdrConfig(l_star=1, grouping="metric"))
    assert len(seen) == 1
    return seen[0]


def margins_reference_dmat(margins) -> np.ndarray:
    arr = np.array([s.as_tuple() for s in margins], dtype=float)
    return np.abs(arr[:, None, :] - arr[None, :, :]).max(axis=-1)


def random_margins(rng, k, high):
    out = []
    for _ in range(k):
        n1, n2 = (int(v) for v in rng.integers(0, high, 2, dtype=np.int64))
        out.append(MarginalVector(n1, n2, int(rng.integers(0, n1 + n2, endpoint=True))))
    return out


class TestMetricPartitionDistances:
    """Exact differential check of the pairwise distance matrix."""

    def test_float_totals_seeded(self, monkeypatch):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            totals = rng.poisson(rng.pareto(7.0, 200) * 7.0 * 50).astype(float)
            dmat = metric_partition_dmat(monkeypatch, list(totals))
            assert np.array_equal(dmat, np.abs(totals[:, None] - totals[None, :]))

    def test_margins_seeded(self, monkeypatch):
        for seed, high in ((0, 50), (1, 10**6), (2, 2**62)):
            margins = random_margins(np.random.default_rng(seed), 60, high)
            dmat = metric_partition_dmat(monkeypatch, margins)
            assert np.array_equal(dmat, margins_reference_dmat(margins))

    def test_margins_above_2_53(self, monkeypatch):
        big = 2**53
        margins = [MarginalVector(big + d, 3, 1) for d in (0, 1, 2, 3, 5)]
        margins.append(MarginalVector(np.int64(big + 7), np.int64(big - 1), 4))
        dmat = metric_partition_dmat(monkeypatch, margins)
        assert np.array_equal(dmat, margins_reference_dmat(margins))
        assert dmat[0, 1] == 0.0  # 2**53 + 1 rounds to 2**53 before subtracting

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e18), min_size=1, max_size=25))
    def test_float_totals_hypothesis(self, totals):
        with pytest.MonkeyPatch.context() as monkeypatch:
            dmat = metric_partition_dmat(monkeypatch, totals)
        a = np.asarray(totals, dtype=float)
        assert np.array_equal(dmat, np.abs(a[:, None] - a[None, :]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(MARGIN_VALUES, MARGIN_VALUES, MARGIN_VALUES),
        min_size=1, max_size=15,
    ))
    def test_margins_hypothesis(self, rows):
        margins = [MarginalVector(n1, n2, min(x, n1 + n2)) for n1, n2, x in rows]
        with pytest.MonkeyPatch.context() as monkeypatch:
            dmat = metric_partition_dmat(monkeypatch, margins)
        assert np.array_equal(dmat, margins_reference_dmat(margins))


def assert_metric_partition_matches_dense(stats, l_star, g_star=1) -> str:
    """``_metric_partition`` against the extraction over every hypothesis's
    row of the full matrix, and its fallback to quantile grouping; returns
    how the dense path ended."""
    cfg = WfdrConfig(l_star=l_star, g_star=g_star, grouping="metric")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part = wfdr._metric_partition(stats, cfg)
    try:
        expected = group_from_distances(pairwise_distances(stats, marginal_distance),
                                        GroupingConfig(l_star, g_star))
        ended = "restarted" if expected.iterations else "first pass"
    except GroupingDidNotConvergeError:
        expected, ended = group_by_statistic_quantiles(stats, l_star), "fallback"
    assert [g.tolist() for g in part.groups] == [g.tolist() for g in expected.groups]
    assert part.radius_final == expected.radius_final
    assert part.iterations == expected.iterations
    assert [str(w.message) for w in caught] == (
        ["metric grouping did not converge; falling back to quantile grouping"]
        if ended == "fallback" else [])
    return ended


class TestMetricPartitionAgainstDense:
    """Grouping the distinct statistics, each standing for its copies, gives
    the partition of the extraction over every hypothesis."""

    def test_repeated_totals_seeded(self):
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng([29, seed])
            m = int(rng.integers(2, 60))
            totals = rng.integers(0, int(rng.integers(1, 30)), m).astype(float)
            l_star, g_star = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            if l_star * g_star <= m:
                seen.add(assert_metric_partition_matches_dense(list(totals), l_star, g_star))
        assert seen == {"fallback", "restarted", "first pass"}

    def test_repeated_margins_seeded(self):
        seen = set()
        for seed in range(100):
            rng = np.random.default_rng([31, seed])
            distinct = random_margins(rng, int(rng.integers(1, 8)), 12)
            margins = [distinct[i] for i in rng.integers(0, len(distinct), 40)]
            l_star, g_star = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            seen.add(assert_metric_partition_matches_dense(margins, l_star, g_star))
        assert seen == {"fallback", "restarted", "first pass"}

    def test_statistics_above_2_53_whose_floats_merge(self):
        big = 2**53
        # 2**53 and 2**53 + 1 are one float64, so one statistic
        margins = [MarginalVector(big + d, 3, 1) for d in (0, 1, 2, 3, 5, 0, 1, 64, 65)]
        margins += [MarginalVector(np.int64(big + 7), np.int64(big - 1), 4), margins[2]]
        totals = [big + d for d in (0, 1, 2, 3, 5, 0, 1, 64, 65)] + [np.int64(big + 7), 7]
        for stats in (margins, totals):
            for l_star in (1, 2, 3):
                assert assert_metric_partition_matches_dense(stats, l_star) != "fallback"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=2, max_size=30),
           st.lists(st.floats(min_value=0.0, max_value=1e18), min_size=1, max_size=7),
           st.integers(1, 4), st.integers(1, 3))
    def test_repeated_totals_hypothesis(self, picks, distinct, l_star, g_star):
        totals = [distinct[i % len(distinct)] for i in picks]
        assume(l_star * g_star <= len(totals))
        assert_metric_partition_matches_dense(totals, l_star, g_star)


def test_metric_partition_refuses_large_matrix_before_any_distance(monkeypatch):
    from discrete_fdr import grouping

    def no_distance(*args):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(grouping, "MAX_DISTANCE_BYTES", 8 * 3 * 3)
    monkeypatch.setattr(wfdr, "marginal_distance", no_distance)
    cfg = WfdrConfig(l_star=2, grouping="metric", pi0=Pi0Config(0.2, 0.1))
    supports = [np.array([0.5, 1.0])] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback to quantile grouping
        with pytest.raises(InvalidConfigError, match=r"m = 4 .* 128 bytes"):
            weight_study([0.5, 1.0, 0.5, 1.0], supports, [1.0, 2.0, 5.0, 9.0], cfg)


class TestConditioningStatisticValidation:
    SUPPORTS = [np.array([0.5, 1.0])] * 3

    def test_non_numeric_statistics_rejected(self):
        with pytest.raises(InvalidConfigError, match="all real scalars or all"):
            weight_study([0.5, 1.0], self.SUPPORTS[:2], ["a", "b"],
                         WfdrConfig(l_star=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_rejected_before_metric_grouping(
        self, bad, monkeypatch
    ):
        def no_grouping(*args):
            raise AssertionError("metric grouping started")

        monkeypatch.setattr(wfdr, "group_from_distances", no_grouping)
        cfg = WfdrConfig(l_star=2, grouping="metric")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="stats must be finite"):
                weight_study([0.5, 0.5, 1.0], self.SUPPORTS, [1.0, bad, 3.0], cfg)
