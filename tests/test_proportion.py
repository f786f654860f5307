"""Tests for the null-proportion estimator on discrete supports."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_fdr import (
    BINOMIAL_PI0_CONFIG,
    EmptyStudyError,
    FET_PI0_CONFIG,
    Family,
    InvalidConfigError,
    Partition,
    Pi0Config,
    ScenarioConfig,
    Sidedness,
    estimate_pi0,
    generate_poisson_scenario,
    groupwise_pi0,
    overall_pi0,
)
from discrete_fdr import proportion
from discrete_fdr.proportion import _checked_study
from discrete_fdr.simulate import score_study
from instances import INVALID_PVALUES
from rational_oracles import binomial_pmf_exact, null_distribution_exact

TWO_POINT = np.array([0.5, 1.0])


def trial_grid(pvalues, supports, cfg=None):
    """The trial estimates that ``estimate_pi0`` minimises, one per guiding value."""
    return np.array([beta for _, beta in estimate_pi0(pvalues, supports, cfg).trial_values])


def reference_trial_grid(pvalues, supports, taus):
    """The per-hypothesis loop that the null-class form replaced."""
    pvalues = np.asarray(pvalues, dtype=float)
    m = pvalues.size
    if m == 0:
        raise EmptyStudyError("no hypotheses")
    if len(supports) != m:
        raise InvalidConfigError("pvalues and supports must have equal length")
    total = np.zeros(taus.size)
    one = np.ones(taus.size)
    for p_i, support in zip(pvalues, supports):
        s = np.asarray(support, dtype=float)
        idx = np.searchsorted(s, taus, side="right") - 1
        contrib = one.copy()
        has_point = idx >= 0
        if np.any(has_point):
            lam = s[idx[has_point]]
            if np.any(lam >= 1.0):
                raise InvalidConfigError(
                    "a guiding value reached a support point of 1"
                )
            contrib[has_point] = (p_i > lam) / (1.0 - lam)
        total += contrib
    return total / m


def random_class_instance(rng, max_m=300):
    """p-values and supports drawn from a few shared support objects.

    Supports include the single atom {1}, a support with no point below
    0.3, and equal-but-distinct copies of shared arrays; p-values are points
    of their own support, so ties with lambda occur.
    """
    base = [np.array([1.0]), np.array([0.3, 0.6, 1.0])]
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, 8))
        points = rng.choice(np.arange(1, 40) / 40.0, size, replace=False)
        base.append(np.append(np.sort(points), 1.0))
    m = int(rng.integers(1, max_m + 1))
    pick = rng.integers(0, len(base), size=m)
    copy = rng.random(m) < 0.2
    supports = [base[k].copy() if c else base[k] for k, c in zip(pick, copy)]
    pvalues = np.array([rng.choice(s) for s in supports])
    return pvalues, supports


def trial_estimate(pvalues, supports, tau):
    """The trial estimate at the guiding value ``tau``, the last of its grid."""
    return float(trial_grid(pvalues, supports, Pi0Config(tau, tau / 2))[-1])


class TestTrialEstimate:
    def test_both_above_lambda(self):
        # both supports reach 0.5 <= tau; both p > 0.5 -> 1/(1-0.5) each
        assert trial_estimate([1.0, 1.0], [TWO_POINT, TWO_POINT], 0.6) == pytest.approx(2.0)

    def test_tau_below_support(self):
        assert trial_estimate([1.0, 1.0], [TWO_POINT, TWO_POINT], 0.3) == pytest.approx(1.0)

    def test_indicator_respects_p(self):
        # p=0.5 is not > lambda=0.5, so only the second term contributes
        assert trial_estimate([0.5, 1.0], [TWO_POINT, TWO_POINT], 0.6) == pytest.approx(1.0)

    def test_support_point_at_one_never_selected(self):
        # tau < 1 cannot select a support point of 1 (no division by zero);
        # the hypothesis counts as having no usable support point
        assert trial_estimate([1.0], [np.array([1.0])], 1.0 - 1e-12) == 1.0


class TestTrialGridAgainstReference:
    CFG = Pi0Config(0.5, 0.01)
    TAUS = CFG.guiding_values()

    def assert_matches_reference(self, pvalues, supports):
        expected = reference_trial_grid(pvalues, supports, self.TAUS)
        got = trial_grid(pvalues, supports, self.CFG)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_seeded_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            self.assert_matches_reference(*random_class_instance(rng))

    def test_supports_share_a_class_iff_contents_equal(self):
        # classes are told apart by a digest of each support's bytes: a copy
        # and a strided view of equal points share one, and a support one ulp
        # apart at any single point keeps its own
        base = np.array([0.1, 0.25, 0.5, 1.0])
        view = np.array([0.1, 0.9, 0.25, 0.9, 0.5, 0.9, 1.0])[::2]
        assert not view.flags.c_contiguous and np.array_equal(view, base)
        apart = []
        for j in range(base.size):
            apart.append(base.copy())
            apart[-1][j] = np.nextafter(base[j], 0.0)
        supports = [base, base.copy(), view, *apart, view.copy(), base]
        pvalues = np.array([support[1] for support in supports])
        assert _checked_study(pvalues, supports, self.CFG)[1].ids.tolist() == [
            0, 0, 0, 1, 2, 3, 4, 0, 0]
        self.assert_matches_reference(pvalues, supports)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_generated_instances(self, seed):
        self.assert_matches_reference(
            *random_class_instance(np.random.default_rng(seed), max_m=60)
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(st.floats(min_value=1e-6, max_value=1.0),
                          st.sampled_from([0.05, 0.2, 0.5, 0.6, 1.0])),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_generated_pvalues_off_support(self, rows):
        # arbitrary p-values on shared objects: unless each is a point of its
        # own support, the study is refused naming the first off-support
        # hypothesis of the first array, in order of first occurrence, that
        # has one; the p-values moved to their supports match the reference
        shared = [np.array([1.0]), TWO_POINT, np.array([0.05, 0.2, 1.0]),
                  np.array([0.6, 1.0])]
        supports = [shared[k] for k, _ in rows]
        pvalues = [p for _, p in rows]
        off = [i for i, (k, p) in enumerate(rows) if p not in shared[k]]
        if off:
            first = next(i for k in dict.fromkeys(k for k, _ in rows)
                         for i in off if rows[i][0] == k)
            with pytest.raises(InvalidConfigError,
                               match=f"p-value of hypothesis {first} is not a point"):
                trial_grid(pvalues, supports, self.CFG)
        on = [s[min(np.searchsorted(s, p), s.size - 1)] for s, p in zip(supports, pvalues)]
        self.assert_matches_reference(on, supports)

    def test_equal_but_distinct_arrays(self):
        p = np.array([0.2, 1.0, 0.05, 0.2, 1.0, 0.05])
        one = np.array([0.05, 0.2, 1.0])
        shared = [one] * 6
        distinct = [one.copy() for _ in range(6)]
        self.assert_matches_reference(p, shared)
        self.assert_matches_reference(p, distinct)

    def test_no_support_point_below_tau_counts_class_size(self):
        support = np.array([0.6, 1.0])
        got = trial_grid([0.6, 1.0, 1.0], [support] * 3, self.CFG)
        # every guiding value is below 0.6, so each hypothesis counts 1
        assert got.tolist() == [1.0] * self.TAUS.size
        self.assert_matches_reference([0.6, 1.0, 1.0], [support] * 3)

    def test_single_atom_support(self):
        self.assert_matches_reference([1.0] * 5, [np.array([1.0])] * 5)
        assert trial_grid([1.0], [np.array([1.0])], self.CFG).tolist() == (
            [1.0] * self.TAUS.size
        )

    def test_length_and_empty_errors(self):
        with pytest.raises(InvalidConfigError, match="equal length"):
            trial_grid([0.5, 1.0], [TWO_POINT], self.CFG)
        with pytest.raises(EmptyStudyError):
            trial_grid([], [], self.CFG)

    def test_exact_rational_binomial_supports(self):
        # dyadic supports of small totals are exact in double precision, so
        # only the division and summation are rounded
        cfg = Pi0Config(0.45, 0.015)
        taus = cfg.guiding_values()
        rng = np.random.default_rng(31)
        exact = {t: null_distribution_exact(binomial_pmf_exact(t), "two")[0]
                 for t in range(1, 9)}
        floats = {t: np.array([float(x) for x in s]) for t, s in exact.items()}
        totals = rng.integers(1, 9, size=60)
        picks = [int(rng.integers(0, len(exact[t]))) for t in totals]
        p_exact = [exact[t][j] for t, j in zip(totals, picks)]
        got = trial_grid([float(x) for x in p_exact],
                         [floats[t] for t in totals], cfg)
        for tau, beta in zip(taus, got):
            total = Fraction(0)
            for t, p in zip(totals, p_exact):
                below = [x for x in exact[t] if x <= Fraction(tau)]
                total += 1 if not below else (p > below[-1]) / (1 - below[-1])
            assert beta == pytest.approx(float(total / len(totals)), rel=1e-12)

    def test_independent_of_support_addresses(self):
        # classes first occur in the order 0, 1, ..., 5; their support
        # objects lie in memory once in that order and once in reverse
        rng = np.random.default_rng(37)
        values = [np.append(np.sort(rng.choice(np.arange(1, 50) / 100.0, 8,
                                               replace=False)), 1.0)
                  for _ in range(6)]

        def supports_by_address(descending):
            objs = sorted((np.empty(9) for _ in values), key=id, reverse=descending)
            for obj, v in zip(objs, values):
                obj[:] = v
            return objs

        cls = rng.integers(0, 6, size=300)
        cls[:6] = np.arange(6)
        p = np.array([rng.choice(values[c]) for c in cls])  # points of their supports
        cfg = Pi0Config(0.5, 0.01)
        traces = []
        for descending in (False, True):
            objs = supports_by_address(descending)
            ids = [id(o) for o in objs]
            assert ids == sorted(ids, reverse=descending)
            traces.append(estimate_pi0(p, [objs[k] for k in cls], cfg).trial_values)
        assert traces[0] == traces[1]


@pytest.mark.parametrize("scored", [False, True], ids=["listed", "scored"])
def test_study_checked_once_per_estimate(monkeypatch, scored):
    # estimate_pi0 checks its study once, and groupwise_pi0 the whole study
    # once and then each group through estimate_pi0
    pvalues, supports = random_class_instance(np.random.default_rng(41))
    cfg = Pi0Config(0.5, 0.01)
    if scored:
        supports = _checked_study(pvalues, supports, cfg)[1]
    checked = []
    original = proportion._checked_study
    monkeypatch.setattr(proportion, "_checked_study",
                        lambda *args: checked.append(len(args[0])) or original(*args))
    estimate_pi0(pvalues, supports, cfg)
    assert checked == [pvalues.size]
    checked.clear()
    partition = Partition((np.arange(0, pvalues.size, 2), np.arange(1, pvalues.size, 2)))
    groupwise_pi0(pvalues, supports, partition, cfg)
    assert checked == [pvalues.size, *partition.sizes]


@pytest.mark.parametrize("bad", INVALID_PVALUES)
class TestPValueValidation:
    def test_estimate_pi0(self, bad):
        with pytest.raises(InvalidConfigError, match=r"\(0, 1\]"):
            estimate_pi0([bad, 1.0], [TWO_POINT, TWO_POINT], Pi0Config(0.6, 0.3))

    def test_groupwise_pi0(self, bad):
        part = Partition((np.array([0, 1]), np.array([2, 3])))
        with pytest.raises(InvalidConfigError, match=r"\(0, 1\]"):
            groupwise_pi0([0.5, 1.0, 1.0, bad], [TWO_POINT] * 4, part,
                          Pi0Config(0.6, 0.3))


class TestPValueDimensions:
    def test_estimate_pi0(self):
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            estimate_pi0([[0.5, 1.0]], [TWO_POINT, TWO_POINT], Pi0Config(0.6, 0.3))

    def test_groupwise_pi0(self):
        part = Partition((np.array([0, 1]),))
        with pytest.raises(InvalidConfigError, match="1-d array, got 2"):
            groupwise_pi0([[0.5, 1.0]], [TWO_POINT] * 2, part, Pi0Config(0.6, 0.3))


INVALID_SUPPORTS = {
    "negative": np.array([-3.0, 1.0]),
    "zero": np.array([0.0, 1.0]),
    "above-one": np.array([0.5, 1.5]),
    "unsorted": np.array([0.5, 0.25, 1.0]),
    "repeated": np.array([0.5, 0.5, 1.0]),
    "nan": np.array([0.5, np.nan, 1.0]),
    "empty": np.array([]),
    "two-d": np.array([[0.5, 1.0]]),
    "scalar": np.array(1.0),
}


@pytest.mark.parametrize("bad", INVALID_SUPPORTS.values(), ids=INVALID_SUPPORTS.keys())
class TestSupportValidation:
    def test_estimate_pi0(self, bad):
        # each class is named by its first hypothesis
        with pytest.raises(InvalidConfigError, match="support of hypothesis 1 "):
            estimate_pi0([0.5, 0.5, 0.5], [TWO_POINT, bad, bad], Pi0Config(0.5, 0.1))

    def test_groupwise_pi0(self, bad):
        # hypothesis 3 is the first of its class in the second group
        part = Partition((np.array([0, 1]), np.array([2, 3])))
        with pytest.raises(InvalidConfigError, match="support of hypothesis 3 "):
            groupwise_pi0([0.5] * 4, [TWO_POINT, TWO_POINT, TWO_POINT, bad], part,
                          Pi0Config(0.5, 0.1))


class TestPi0Config:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            Pi0Config(lambda_max=1.0, step=0.1)
        with pytest.raises(InvalidConfigError):
            Pi0Config(lambda_max=0.5, step=0.0)
        with pytest.raises(InvalidConfigError):
            Pi0Config(lambda_max=0.2, step=0.5)

    def test_reference_grids(self):
        taus = BINOMIAL_PI0_CONFIG.guiding_values()
        assert taus[0] == 0.0 and taus[-1] == 0.2 and taus.size == 401
        assert np.allclose(np.diff(taus), 0.0005)
        taus = FET_PI0_CONFIG.guiding_values()
        assert taus[0] == 0.0 and taus[-1] == 0.5
        # 0.5 is not a multiple of 0.008: the final step is shortened
        assert np.allclose(np.diff(taus)[:-1], 0.008)
        assert taus.size == 64


class TestEstimatePi0:
    def test_minimum_over_grid(self):
        est = estimate_pi0([1.0, 1.0], [TWO_POINT, TWO_POINT], Pi0Config(0.6, 0.3))
        # beta = 1.0 at tau in {0, 0.3} and 2.0 at tau = 0.6
        assert est.value == 1.0
        assert est.raw_value == 1.0
        assert not est.clamped
        assert est.trial_values == ((0.0, 1.0), (0.3, 1.0), (0.6, 2.0))

    def test_beta_at_zero_is_one(self):
        # supports live in (0, 1], so tau = 0 never finds a support point
        rng = np.random.default_rng(3)
        supports = [np.sort(rng.uniform(0.01, 1.0, 4)) for _ in range(50)]
        p = np.array([rng.choice(s) for s in supports])
        est = estimate_pi0(p, supports, Pi0Config(0.5, 0.1))
        assert est.trial_values[0] == (0.0, 1.0)
        assert est.raw_value <= 1.0

    def test_upper_bound_when_all_p_exceed_usable_support(self):
        support = np.array([0.1, 0.4, 1.0])
        est = estimate_pi0([1.0] * 4, [support] * 4, Pi0Config(0.5, 0.05))
        assert est.raw_value <= 1.0 / (1.0 - 0.4)

    def test_clamping_flag(self):
        # one hypothesis, p above lambda = 0.5 -> beta = 2 at large tau,
        # but beta(0) = 1 keeps the minimum at 1: no clamping
        est = estimate_pi0([1.0], [TWO_POINT], Pi0Config(0.6, 0.3))
        assert est.value == 1.0 and not est.clamped

    def test_empty_study(self):
        with pytest.raises(EmptyStudyError):
            estimate_pi0([], [], Pi0Config(0.2, 0.1))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        supports = [np.sort(rng.choice(np.arange(1, 21) / 20.0, 3, replace=False))
                    for _ in range(30)]
        p = np.array([rng.choice(s) for s in supports])
        cfg = Pi0Config(0.4, 0.05)
        base = estimate_pi0(p, supports, cfg).value
        perm = rng.permutation(30)
        shuffled = estimate_pi0(p[perm], [supports[i] for i in perm], cfg).value
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestGroupwiseAndOverall:
    def test_single_group_equals_global(self):
        rng = np.random.default_rng(19)
        p = rng.choice(TWO_POINT, 20)
        supports = [TWO_POINT] * 20
        cfg = Pi0Config(0.6, 0.1)
        part = Partition((np.arange(20),))
        groupwise = groupwise_pi0(p, supports, part, cfg)
        assert len(groupwise) == 1
        assert groupwise[0].value == estimate_pi0(p, supports, cfg).value
        assert overall_pi0(part, groupwise) == groupwise[0].value

    def test_disjoint_copies_give_identical_estimates(self):
        p = np.array([0.5, 1.0, 0.5, 1.0])
        supports = [TWO_POINT] * 4
        part = Partition((np.array([0, 1]), np.array([2, 3])))
        groupwise = groupwise_pi0(p, supports, part, Pi0Config(0.6, 0.1))
        assert groupwise[0].value == groupwise[1].value
        assert groupwise[0].trial_values == groupwise[1].trial_values

    def test_overall_weighted_average(self):
        part = Partition((np.arange(3), np.arange(3, 10)))
        estimates = [
            type("E", (), {"value": 0.5})(),
            type("E", (), {"value": 1.0})(),
        ]
        assert overall_pi0(part, estimates) == pytest.approx(0.85)

    def test_overall_all_ones(self):
        part = Partition((np.arange(4), np.arange(4, 8)))
        estimates = [type("E", (), {"value": 1.0})()] * 2
        assert overall_pi0(part, estimates) == 1.0

    def test_overall_between_min_and_max(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            sizes = rng.integers(1, 10, size=rng.integers(1, 5))
            bounds = np.cumsum(np.concatenate([[0], sizes]))
            part = Partition(
                tuple(np.arange(a, b) for a, b in zip(bounds, bounds[1:]))
            )
            values = rng.uniform(0, 1, len(sizes))
            estimates = [type("E", (), {"value": float(v)})() for v in values]
            overall = overall_pi0(part, estimates)
            assert values.min() - 1e-12 <= overall <= values.max() + 1e-12

    def test_length_mismatch(self):
        part = Partition((np.arange(3),))
        with pytest.raises(InvalidConfigError):
            overall_pi0(part, [])

    @pytest.mark.parametrize("partition, named", [
        ([np.arange(4)], "list"), ((np.arange(4),), "tuple"), (None, "NoneType"),
    ], ids=["list", "tuple", "none"])
    def test_partition_must_be_a_partition(self, partition, named):
        message = f"partition must be a Partition, got {named}"
        p, supports = np.full(4, 0.5), [TWO_POINT] * 4
        with pytest.raises(InvalidConfigError, match=message):
            groupwise_pi0(p, supports, partition, Pi0Config(0.6, 0.1))
        with pytest.raises(InvalidConfigError, match=message):
            overall_pi0(partition, [])

    def test_partition_must_cover_the_study(self):
        with pytest.raises(InvalidConfigError, match="partition does not cover the study"):
            groupwise_pi0(np.full(4, 0.5), [TWO_POINT] * 4, Partition((np.arange(3),)))


class TestConservativenessSmoke:
    def test_pure_null_small_study(self):
        # desk-size version of the pure-null calibration: the estimator
        # should sit near (at or above) 1 on average
        values = []
        for rep in range(10):
            cfg = ScenarioConfig(
                family=Family.POISSON_BINOMIAL,
                m=400,
                pi0=1.0,
                alpha_grid=(0.05,),
                l_star_grid=(3,),
                replications=1,
                master_seed=1000 + rep,
            )
            study = generate_poisson_scenario(cfg, np.random.SeedSequence([1000, rep]))
            p, supports, _ = score_study(study, Sidedness.TWO_SIDED)
            values.append(estimate_pi0(p, supports, BINOMIAL_PI0_CONFIG).value)
        assert np.mean(values) >= 0.9


class TestOverallEstimateType:
    def test_bare_number_rejected(self):
        part = Partition((np.arange(2),))
        with pytest.raises(InvalidConfigError, match="needs a value"):
            overall_pi0(part, [0.5])
