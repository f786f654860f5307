"""Every exported entry point rejects a malformed numeric value with a
``DiscreteFdrError``, never with Python's or numpy's own exception.

Each case draws every numeric argument either as a valid value or as a
malformed one of its kind (array, matrix, scalar, count or sidedness), builds
the configs, partitions and CDFs it needs through their own constructors from
those draws, and makes the call.  A sequence whose elements are themselves
arrays or objects (supports, conditioning statistics, groups, CDF lists) is
corrupted element by element; ``test_none_in_place_of_a_sequence`` passes
None for the whole sequence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discrete_fdr as fdr
from discrete_fdr import DiscreteFdrError

NAN, INF = math.nan, math.inf
NON_NUMERIC = ["x", "", "0.5x", None, {"a": 1}]
RAGGED = [[[0.5], [0.5, 0.5]], [0.5, [0.5, 0.5]], [["x"], [1.0, 2.0]]]
ODD_NUMBERS = st.one_of(
    st.sampled_from([NAN, INF, -INF, -1, -0.5, 0.5, 2.5, -7, 1e300, -1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10_000, max_value=-1),
)

MALFORMED = {
    # an array whose elements or shape are wrong, or no array at all
    "array": st.one_of(
        st.sampled_from(NON_NUMERIC + RAGGED),
        ODD_NUMBERS,  # a 0-d array
        st.lists(st.one_of(ODD_NUMBERS, st.sampled_from(NON_NUMERIC)),
                 min_size=1, max_size=4),
        st.lists(st.lists(ODD_NUMBERS, min_size=2, max_size=2),
                 min_size=1, max_size=3),  # 2-d
        st.just([[[0.5]]]),
    ),
    "matrix": st.one_of(
        st.sampled_from(NON_NUMERIC + RAGGED + [[0.0, 1.0], [[[0.0]]]]),
        ODD_NUMBERS,
        st.lists(st.lists(ODD_NUMBERS, min_size=2, max_size=2),
                 min_size=2, max_size=2),
    ),
    "scalar": st.one_of(
        st.sampled_from(NON_NUMERIC + RAGGED + [[0.5], [[0.5]]]), ODD_NUMBERS,
    ),
    "count": st.one_of(
        st.sampled_from(NON_NUMERIC + RAGGED + [[1], 1.0, 2.5]), ODD_NUMBERS,
    ),
    "sided": st.one_of(
        st.sampled_from(NON_NUMERIC + RAGGED + ["ONE", "both", 1, ["one"]]),
        ODD_NUMBERS, st.text(max_size=4),
    ),
}


def either(kind, valid):
    """``valid`` three times in four, else a malformed value of ``kind``, so
    that most calls get past all but one of their checks."""
    return st.integers(0, 3).flatmap(
        lambda i: MALFORMED[kind] if i == 0 else st.just(valid))


PVALUES = [0.01, 0.5, 1.0]
SUPPORT = np.array([0.01, 0.5, 1.0])
STATS = [5.0, 9.0, 12.0]
DMAT = [[0.0, 1.0, 4.0], [1.0, 0.0, 3.0], [4.0, 3.0, 0.0]]


class Draws:
    """Valid or malformed arguments, and the objects built from them."""

    def __init__(self, data, tables):
        self.draw = data.draw
        self.tables = tables  # a valid count table in the study-totals layout

    def array(self, valid):
        return self.draw(either("array", valid))

    def scalar(self, valid):
        return self.draw(either("scalar", valid))

    def count(self, valid):
        return self.draw(either("count", valid))

    def sided(self):
        return self.draw(either("sided", "two"))

    def elements(self, kind, valid):
        """``valid`` with each element drawn valid or malformed."""
        return [self.draw(either(kind, v)) for v in valid]

    def supports(self):
        return self.elements("array", [SUPPORT] * 3)

    def pair(self):
        return fdr.PoissonPair(*self.elements("count", [3, 4]))

    def margins(self):
        return fdr.MarginalVector(*self.elements("count", [30, 40, 20]))

    def cdf(self):
        return fdr.DiscreteCDF(self.array([0.25, 1.0]), self.array([0.25, 0.75]))

    def partition(self):
        return fdr.Partition((self.array([0, 2]), self.array([1])))

    def pi0_config(self):
        return fdr.Pi0Config(self.scalar(0.2), self.scalar(0.05))

    def grouping_config(self):
        return fdr.GroupingConfig(self.count(2), self.count(1), self.count(8))

    def wfdr_config(self):
        return fdr.WfdrConfig(
            l_star=self.count(2), g_star=self.count(1), pi0=self.pi0_config(),
            grouping=self.draw(st.sampled_from(["quantile", "metric"])),
        )

    def scenario(self):
        return fdr.ScenarioConfig(
            family=fdr.Family.POISSON_BINOMIAL, m=self.count(12),
            pi0=self.scalar(0.8), alpha_grid=self.array((0.05,)),
            l_star_grid=self.array((2,)), replications=self.count(1),
            master_seed=self.count(3),
        )

    def study_input(self):
        columns = ([3, 4], [5, 6], [30, 40], [50, 60])
        return fdr.StudyInput("fet", ("a", "b"),
                              *(self.array(np.array(c)) for c in columns))

    def filter_rule(self):
        return fdr.FilterRule(self.scalar(2), self.scalar(100))


# one call of each exported function or constructor with numeric arguments;
# a constructor that rejects a draw raises inside the call
CASES = {
    "DiscreteCDF": lambda d: d.cdf(),
    "DiscreteCDF.cdf": lambda d: d.cdf().cdf(d.array([0.25, 0.5])),
    "PoissonPair": lambda d: d.pair(),
    "MarginalVector": lambda d: d.margins(),
    "binomial_null_distribution":
        lambda d: fdr.binomial_null_distribution(d.count(7), d.sided()),
    "binomial_pvalue": lambda d: fdr.binomial_pvalue(d.pair(), d.sided()),
    "fet_null_distribution":
        lambda d: fdr.fet_null_distribution(d.margins(), d.sided()),
    "fet_pvalue": lambda d: fdr.fet_pvalue(d.count(5), d.margins(), d.sided()),
    "delta": lambda d: fdr.delta(d.cdf(), d.cdf(), d.scalar(1e-8)),
    "support_symmetric_difference_count":
        lambda d: fdr.support_symmetric_difference_count(d.cdf(), d.cdf(),
                                                         d.scalar(1e-8)),
    "sup_norm_diff": lambda d: fdr.sup_norm_diff(d.cdf(), d.cdf()),
    "marginal_distance": lambda d: fdr.marginal_distance(d.scalar(3.0), d.scalar(5.0)),
    "GroupingConfig": lambda d: d.grouping_config(),
    "Partition": lambda d: d.partition(),
    "group_by_metric":
        lambda d: fdr.group_by_metric([d.cdf(), d.cdf(), d.cdf()], d.grouping_config()),
    "pairwise_delta_matrix":
        lambda d: fdr.pairwise_delta_matrix([d.cdf(), d.cdf()], d.scalar(1e-8)),
    "group_by_statistic_quantiles":
        lambda d: fdr.group_by_statistic_quantiles(d.array(STATS), d.count(2)),
    "group_from_distances": lambda d: fdr.group_from_distances(
        d.draw(either("matrix", DMAT)), d.grouping_config()),
    "FilterRule": lambda d: d.filter_rule(),
    "StudyInput": lambda d: d.study_input(),
    "apply_filter": lambda d: fdr.apply_filter(d.study_input(), d.filter_rule()),
    "Pi0Config": lambda d: d.pi0_config(),
    "estimate_pi0":
        lambda d: fdr.estimate_pi0(d.array(PVALUES), d.supports(), d.pi0_config()),
    "groupwise_pi0": lambda d: fdr.groupwise_pi0(
        d.array(PVALUES), d.supports(), d.partition(), d.pi0_config()),
    "ScenarioConfig": lambda d: d.scenario(),
    "generate_poisson_scenario":
        lambda d: fdr.generate_poisson_scenario(d.scenario(), d.count(1)),
    "generate_binomial_scenario": lambda d: fdr.generate_binomial_scenario(
        fdr.ScenarioConfig(fdr.Family.BINOMIAL_FET, d.count(12), d.scalar(0.8),
                           (0.05,), (2,), 1, 3), d.count(1)),
    # the only valid worker count drawn is 1, so no process is started
    "run_study": lambda d: fdr.run_study(d.scenario(), d.count(1)),
    "WfdrConfig": lambda d: d.wfdr_config(),
    "group_weights": lambda d: fdr.group_weights(d.array([0.5, 0.8])),
    "weighted_pvalues": lambda d: fdr.weighted_pvalues(
        d.array(PVALUES), d.partition(), d.array([1.0, 4.0])),
    "rejection_threshold": lambda d: fdr.rejection_threshold(
        d.scalar(0.05), d.array(PVALUES), d.scalar(0.8)),
    "bh_reject": lambda d: fdr.bh_reject(d.array(PVALUES), d.scalar(0.05)),
    "theorem1_compare": lambda d: fdr.theorem1_compare(
        d.array(PVALUES), d.array(PVALUES), d.scalar(0.8), d.scalar(0.05)),
    "weight_study": lambda d: fdr.weight_study(
        d.array(PVALUES), d.supports(), d.elements("scalar", STATS), d.wfdr_config()),
    "wfdr_reject": lambda d: fdr.wfdr_reject(
        d.array(PVALUES), d.supports(), d.elements("scalar", STATS), d.scalar(0.05),
        d.wfdr_config()),
    "parse_counts_csv": lambda d: fdr.parse_counts_csv(
        d.tables, "fet", tuple(d.elements("count", [100, 1000]))),
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "drugs.csv"
    path.write_text("id,c1,n1\nd1,2,127\nd2,0,64\nd3,5,300\n")
    return path


@pytest.fixture(scope="module", autouse=True)
def one_worker():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.delenv("DISCRETE_FDR_WORKERS", raising=False)
        yield


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_values_raise_package_errors(name, tables, data):
    try:
        CASES[name](Draws(data, tables))
    except DiscreteFdrError:
        pass


def _poisson_config():
    return fdr.ScenarioConfig(fdr.Family.POISSON_BINOMIAL, 12, 0.8, (0.05,), (2,), 1, 3)


def _binomial_config():
    return fdr.ScenarioConfig(fdr.Family.BINOMIAL_FET, 12, 0.8, (0.05,), (2,), 1, 3)


@pytest.mark.parametrize("seed", [-1, 2.5, "x", [1]])
@pytest.mark.parametrize("generate, config", [
    (fdr.generate_poisson_scenario, _poisson_config),
    (fdr.generate_binomial_scenario, _binomial_config),
], ids=["poisson", "binomial"])
def test_malformed_seed(generate, config, seed):
    with pytest.raises(fdr.InvalidConfigError, match="seed must be an integer >= 0"):
        generate(config(), seed)


@pytest.mark.parametrize("seed", [0, np.int64(5), None, np.random.SeedSequence(5),
                                  np.random.PCG64(5), np.random.default_rng(5)],
                         ids=["zero", "numpy-int", "none", "seed-sequence",
                              "bit-generator", "generator"])
def test_numpy_seeds_accepted(seed):
    assert fdr.generate_poisson_scenario(_poisson_config(), seed).c1.size == 12


@pytest.mark.parametrize("t", ["x", [0.5, "x"], [[0.5], [0.5, 0.5]]])
def test_cdf_of_non_numbers(t):
    cdf = fdr.DiscreteCDF(np.array([0.25, 1.0]), np.array([0.25, 0.75]))
    with pytest.raises(fdr.InvalidConfigError, match="t must form an array of numbers"):
        cdf.cdf(t)


CONFIG = fdr.Pi0Config(0.2, 0.05)
NONE_CALLS = {
    "estimate_pi0-supports": lambda: fdr.estimate_pi0(PVALUES, None, CONFIG),
    "groupwise_pi0-supports": lambda: fdr.groupwise_pi0(
        PVALUES, None, fdr.Partition((np.array([0, 2]), np.array([1]))), CONFIG),
    "weight_study-supports": lambda: fdr.weight_study(
        PVALUES, None, STATS, fdr.WfdrConfig(l_star=2)),
    "weight_study-stats": lambda: fdr.weight_study(
        PVALUES, [SUPPORT] * 3, None, fdr.WfdrConfig(l_star=2)),
    "wfdr_reject-stats": lambda: fdr.wfdr_reject(
        PVALUES, [SUPPORT] * 3, None, 0.05, fdr.WfdrConfig(l_star=2)),
    "group_by_metric-cdfs": lambda: fdr.group_by_metric(None, fdr.GroupingConfig(2)),
    "pairwise_delta_matrix-cdfs": lambda: fdr.pairwise_delta_matrix(None),
}


@pytest.mark.parametrize("name", sorted(NONE_CALLS))
def test_none_in_place_of_a_sequence(name):
    with pytest.raises(fdr.InvalidConfigError, match="must be a sequence, got NoneType"):
        NONE_CALLS[name]()
