"""Scoring by null class: every distinct conditioning statistic gets one null
distribution, computed once, and all its hypotheses share one class, whatever
the exact-test memo holds.  The supports come as a ``NullSupports`` that keeps
the classes' lambda rows on one grid, and the estimator gives bit-identical
results for it, for its views and for plain lists of the full supports."""

import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from discrete_fdr import (
    BINOMIAL_PI0_CONFIG,
    FET_PI0_CONFIG,
    InvalidConfigError,
    NotApplicableError,
    NullSupports,
    Partition,
    Pi0Config,
    Sidedness,
    WfdrConfig,
    binomial_null_distribution,
    estimate_pi0,
    fet_null_distribution,
    groupwise_pi0,
    weight_study,
    wfdr_reject,
)
from discrete_fdr import cli, errors, exact_tests, io, proportion, simulate
from discrete_fdr.io import score_input
from discrete_fdr.proportion import _checked_study
from instances import off_support_study
from discrete_fdr.simulate import Family, ScenarioConfig, run_study

TWO = Sidedness.TWO_SIDED


def trial_grid(pvalues, supports, cfg=None):
    """The trial estimates that ``estimate_pi0`` minimises, one per guiding value."""
    return np.array([beta for _, beta in estimate_pi0(pvalues, supports, cfg).trial_values])


@pytest.fixture(autouse=True)
def cold_memo():
    exact_tests._MEMO.clear()
    yield
    exact_tests._MEMO.clear()


def binomial_study():
    """Pairs whose totals repeat, interleaved, with two zero totals."""
    c1 = [3, 0, 7, 1, 2, 0, 5, 4, 9, 0, 6, 2]
    c2 = [2, 0, 4, 4, 8, 0, 0, 7, 3, 5, 5, 3]
    return (c1, c2), {}


def fet_study():
    """2x2 tables in the study-totals layout whose margins repeat."""
    c1 = np.array([3, 5, 3, 0, 8, 5, 2, 3])
    n1 = np.array([40, 55, 40, 30, 55, 55, 40, 40])
    cases, events = 30, 300
    return (c1, cases - c1), {"n1": n1, "n2": events - n1}


STUDIES = {"binomial": binomial_study, "fet": fet_study}


def distinct_count(stats):
    return len({s for s in stats if s != 0})


@pytest.mark.parametrize("family", sorted(STUDIES))
def test_score_input_checks_each_support_once(family, monkeypatch):
    # the table's constructor applies the support rule once; the class layer
    # takes its support as it is, and the {1} of a zero total as a constant
    rule = "lie in (0, 1], strictly increasing"
    applied = []
    original = errors.RULES[rule]
    monkeypatch.setitem(errors.RULES, rule, lambda x: applied.append(x.size) or original(x))
    counts, totals = STUDIES[family]()
    _, supports, stats = score_input(*counts, TWO, **totals)
    assert len(applied) == distinct_count(stats) == len(supports._rows) - (0 in stats)


@pytest.mark.parametrize("family", sorted(STUDIES))
def test_null_distribution_once_per_statistic(family, monkeypatch):
    calls = []
    for name in ("binomial_null_distribution", "fet_null_distribution"):
        original = getattr(io, name)
        monkeypatch.setattr(
            io, name,
            lambda stat, sided, f=original: calls.append(stat) or f(stat, sided),
        )
    counts, totals = STUDIES[family]()
    _, _, stats = score_input(*counts, TWO, **totals)
    assert len(calls) == len(set(calls)) == distinct_count(stats) < len(stats)


def test_interleaved_totals_above_the_bound_build_once(monkeypatch):
    built = []
    original = exact_tests._outcome_pvalues
    monkeypatch.setattr(
        exact_tests, "_outcome_pvalues",
        lambda pmf, sided: built.append(pmf.size) or original(pmf, sided),
    )
    n = 1_000
    assert 8 * sum(range(2, n + 2)) > exact_tests.MEMO_BYTES  # canonical p-values alone
    totals = np.tile(np.arange(1, n + 1), 2)  # t_1..t_n, then t_1..t_n again
    c1 = totals // 3
    _, supports, stats = score_input(c1, totals - c1, TWO)
    assert len(built) == n
    assert supports.ids.tolist() == [*range(n)] * 2  # one class per total
    newest = [*exact_tests._MEMO.tables.values()][-1]
    assert exact_tests._MEMO.nbytes <= exact_tests.MEMO_BYTES + exact_tests._table_bytes(newest)


def test_memo_stays_bounded_over_distinct_safety_studies():
    cases, events, rows = 2_000, 200_000, 500
    for study in range(6):
        n1 = 1_000 + 6 * np.arange(rows) + study  # 3,000 distinct margins
        c1 = n1 * cases // events
        score_input(c1, cases - c1, TWO, n1=n1, n2=events - n1)
    newest = [*exact_tests._MEMO.tables.values()][-1]
    assert exact_tests._MEMO.nbytes <= exact_tests.MEMO_BYTES + exact_tests._table_bytes(newest)


def _evicting(monkeypatch):
    """Clear the memo before every p-value, as a full memo evicts entries."""
    for name in ("binomial_pvalue", "fet_pvalue"):
        original = getattr(io, name)
        monkeypatch.setattr(
            io, name, lambda *args, f=original: exact_tests._MEMO.clear() or f(*args))


def _score_and_weigh(family):
    counts, totals = STUDIES[family]()
    pvalues, supports, stats = score_input(*counts, TWO, **totals)
    cfg = WfdrConfig(l_star=2, pi0=proportion._PI0_CONFIGS[family])
    return pvalues, supports, stats, weight_study(pvalues, supports, stats, cfg)


@pytest.mark.parametrize("family", sorted(STUDIES))
@pytest.mark.parametrize("memo", ["warm", "evicting"])
def test_results_do_not_depend_on_the_memo(family, memo, monkeypatch):
    cold = _score_and_weigh(family)
    if memo == "evicting":
        _evicting(monkeypatch)
    pvalues, supports, stats, study = _score_and_weigh(family)
    assert pvalues.tobytes() == cold[0].tobytes()
    assert supports.ids.tobytes() == cold[1].ids.tobytes()
    assert supports._rows.tobytes() == cold[1]._rows.tobytes()
    assert study.pi0_overall == cold[3].pi0_overall
    assert [e.raw_value for e in study.group_pi0] == [
        e.raw_value for e in cold[3].group_pi0
    ]
    by_stat = {}
    for stat, c in zip(stats, supports.ids.tolist()):
        assert by_stat.setdefault(stat, c) == c


def test_supports_built_by_hand_form_one_class_per_statistic():
    # one table built per hypothesis, totals 1..600 interleaved three times:
    # the memo drops tables between repeats, so equal supports arrive as
    # distinct arrays, which must still form one class per total; the
    # scored p-values are points of them
    totals = np.tile(np.arange(1, 601), 3)
    c1 = totals // 3
    pvalues, supports, stats = score_input(c1, totals - c1, TWO)
    by_hand = [binomial_null_distribution(int(t), TWO).support for t in totals]
    assert len({id(s) for s in by_hand}) == 1_800
    cfg = WfdrConfig(l_star=3)
    listed = _checked_study(pvalues, by_hand, cfg.pi0)[1]
    assert listed.ids.tolist() == supports.ids.tolist() == [*range(600)] * 3
    scored = weight_study(pvalues, supports, stats, cfg)
    built = weight_study(pvalues, by_hand, stats, cfg)
    assert built.pi0_overall == scored.pi0_overall
    assert [e.trial_values for e in built.group_pi0] == [
        e.trial_values for e in scored.group_pi0
    ]


def _memo_bytes_match_its_tables():
    memo = exact_tests._MEMO
    return memo.nbytes == sum(map(exact_tests._table_bytes, memo.tables.values()))


def _rss_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_memory_stays_flat_over_distinct_large_totals():
    # each table near a total of 10^6 holds about 0.8 MB
    totals = 1_000_000 + 1_001 * np.arange(40)
    binomial_null_distribution(int(totals[0]), TWO)
    after_one = _rss_bytes()
    for total in totals[1:]:
        binomial_null_distribution(int(total), TWO)
    assert _rss_bytes() - after_one < 5 * 2**20
    assert _memo_bytes_match_its_tables()


def test_table_above_the_budget_builds_once_per_study(monkeypatch):
    built = []
    original = exact_tests._outcome_pvalues
    monkeypatch.setattr(
        exact_tests, "_outcome_pvalues",
        lambda pmf, sided: built.append(pmf.size) or original(pmf, sided),
    )
    large = 3_000_000
    totals = np.array([large, 40, large, 90, large, large])
    c1 = totals // 2 - np.arange(totals.size)
    _, supports, _ = score_input(c1, totals - c1, TWO)
    assert len(built) == 3  # one per distinct total, the large one included
    assert supports.ids.tolist() == [0, 1, 0, 2, 0, 0]
    assert _memo_bytes_match_its_tables()
    assert exact_tests._table_bytes(exact_tests._binomial_test(large, TWO)) > exact_tests.MEMO_BYTES


def test_simulation_builds_each_total_once(monkeypatch):
    built = []
    original = exact_tests._window
    monkeypatch.setattr(
        exact_tests, "_window",
        lambda *args: built.append(args[1:4]) or original(*args),
    )
    cfg = ScenarioConfig(Family.POISSON_BINOMIAL, m=20_000, pi0=0.8, alpha_grid=(0.05,),
                         l_star_grid=(2,), replications=3, master_seed=1)
    run_study(cfg, workers=1)
    assert len(built) == len(set(built)) > 80  # (lo, hi, mode) names a total


# --- the class form of the supports: NullSupports -------------------------

PI0_CFG = Pi0Config(0.45, 0.005)
TAUS = PI0_CFG.guiding_values()


def reference_grid(pvalues, supports, taus):
    """Trial estimates class by class, as the estimator defines them.

    Classes are the supports of equal contents, taken in order of their
    first hypothesis in this call; each contributes (its p-values above
    lambda) / (1 - lambda), or its size where no point lies below the
    guiding value, and the contributions are added in that order.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    classes: dict = {}
    for i, support in enumerate(supports):
        classes.setdefault(tuple(np.asarray(support, dtype=float).tolist()), []).append(i)
    total = np.zeros(taus.size)
    for contents, members in classes.items():
        support = np.array(contents)
        p_class = np.sort(pvalues[members])
        idx = np.searchsorted(support, taus, side="right") - 1
        contrib = np.full(taus.size, float(len(members)))
        lam = support[idx[idx >= 0]]
        contrib[idx >= 0] = (len(members) - np.searchsorted(p_class, lam, side="right")
                             ) / (1.0 - lam)
        total += contrib
    return total / pvalues.size


def _binomial_counts(seed=5, m=400):
    """Binomial pairs whose totals 0..14 repeat, with totals 0 and 1 both
    present (both have the support {1}), in random order."""
    rng = np.random.default_rng(seed)
    totals = rng.integers(0, 15, size=m)
    totals[:4] = [3, 0, 1, 0]
    c1 = rng.binomial(totals, 0.4)
    return (c1, totals - c1), {}


def mixed_study(seed=5, m=400):
    """The ``_binomial_counts`` scored on ``PI0_CFG``, with each pair's total."""
    (c1, c2), _ = _binomial_counts(seed, m)
    pvalues, supports, _ = score_input(c1, c2, TWO, pi0=PI0_CFG)
    return pvalues, supports, c1 + c2


def distinct_study(seed=3, m=400):
    """Binomial pairs of the distinct totals 1..m in random order, k = m: one
    class each, among them {1} (total 1) and {0.5, 1} (total 2), whose first
    point lies above every guiding value."""
    rng = np.random.default_rng(seed)
    totals = rng.permutation(np.arange(1, m + 1))
    c1 = rng.binomial(totals, 0.4)
    pvalues, supports, _ = score_input(c1, totals - c1, TWO, pi0=PI0_CFG)
    assert len(supports._rows) == m
    return pvalues, supports, totals


def by_hand(totals):
    """One null-distribution call per hypothesis, each a table of its own."""
    supports = []
    for total in totals:
        exact_tests._MEMO.clear()
        supports.append(np.array([1.0]) if total == 0
                        else binomial_null_distribution(int(total), TWO).support)
    return supports


def shared(totals):
    """One support array per total, shared by the hypotheses of that total."""
    tables = {t: by_hand([t])[0] for t in dict.fromkeys(totals.tolist())}
    return [tables[t] for t in totals.tolist()]


def forms(supports, totals):
    return {"scored": supports, "shared": shared(totals), "by-hand": by_hand(totals)}


def splitting_partition(m, seed=7):
    """Four groups of random members, so that classes split across groups."""
    order = np.random.default_rng(seed).permutation(m)
    return Partition(tuple(np.array_split(order, 4)))


def test_score_input_returns_null_supports():
    pvalues, supports, totals = mixed_study()
    assert isinstance(supports, NullSupports) and len(supports) == pvalues.size
    assert supports.ids[1] == supports.ids[2] == supports.ids[3]  # totals 0 and 1: {1}
    k = len(set(totals.tolist())) - 1
    assert supports._rows.shape == (k, TAUS.size) and supports._rows.dtype == np.float64
    assert sorted(set(supports.ids.tolist())) == [*range(k)]
    first = [int(np.flatnonzero(supports.ids == c)[0]) for c in range(k)]
    assert first == sorted(first)  # numbered in order of first occurrence
    assert not supports.ids.flags.writeable


@pytest.mark.parametrize("study, off_support", [
    (mixed_study, False), (mixed_study, True), (distinct_study, False),
], ids=["scored", "off-support", "one-class-each"])
def test_trial_grid_identical_for_every_form(study, off_support):
    # with one class each, the class-by-class reference is per hypothesis
    pvalues, supports, totals = study()
    if off_support:  # p-values that are not points of their support
        pvalues = np.random.default_rng(9).uniform(1e-3, 1.0, size=pvalues.size)
    expected = reference_grid(pvalues, by_hand(totals), TAUS)
    for name, form in forms(supports, totals).items():
        if off_support and name != "scored":  # a listed support checks its p-values
            with pytest.raises(InvalidConfigError,
                               match="p-value of hypothesis 0 is not a point of its support"):
                trial_grid(pvalues, form, PI0_CFG)
        else:  # the scored classes take their p-values as they come
            assert np.array_equal(trial_grid(pvalues, form, PI0_CFG), expected), name


def test_estimates_identical_for_every_form():
    pvalues, supports, totals = mixed_study()
    partition = splitting_partition(pvalues.size)
    results = {name: (estimate_pi0(pvalues, form, PI0_CFG),
                      groupwise_pi0(pvalues, form, partition, PI0_CFG))
               for name, form in forms(supports, totals).items()}
    assert results["shared"] == results["scored"] == results["by-hand"]
    members = by_hand(totals)
    assert results["scored"][1] == [
        estimate_pi0(pvalues[g], [members[i] for i in g], PI0_CFG) for g in partition.groups]


@pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "reversed"])
def test_view_identical_to_the_list_of_its_members(reverse):
    pvalues, supports, totals = mixed_study()
    members = by_hand(totals)
    for g in splitting_partition(pvalues.size).groups:
        g = g[::-1] if reverse else g
        view = supports.take(g)
        listed = [members[i] for i in g]
        assert view.ids.tolist() == supports.ids[g].tolist() and view._rows is supports._rows
        got = trial_grid(pvalues[g], view, PI0_CFG)
        assert np.array_equal(got, trial_grid(pvalues[g], listed, PI0_CFG))
        assert np.array_equal(got, reference_grid(pvalues[g], listed, TAUS))
        assert estimate_pi0(pvalues[g], view, PI0_CFG) == estimate_pi0(
            pvalues[g], listed, PI0_CFG)


def test_view_sums_its_classes_in_its_own_order():
    # globally the classes first occur as 0, 1, 2, ...; the view meets them
    # in reverse, and floating-point sums depend on the order
    rng = np.random.default_rng(11)
    arrays = [np.append(np.sort(rng.choice(np.arange(1, 200) / 400.0, 30, replace=False)),
                        1.0) for _ in range(12)]
    ids = np.concatenate([np.arange(12), rng.integers(0, 12, size=500)])
    listed = [arrays[c] for c in ids]
    pvalues = np.array([rng.choice(s) for s in listed])
    supports = _checked_study(pvalues, listed, PI0_CFG)[1]
    assert supports.ids.tolist() == ids.tolist()
    g = np.concatenate([np.arange(12, ids.size), np.arange(12)[::-1]])
    got = trial_grid(pvalues[g], supports.take(g), PI0_CFG)
    assert np.array_equal(got, reference_grid(pvalues[g], [listed[i] for i in g], TAUS))


def test_builder_reads_each_label_once_with_its_members():
    # labels 0 and 2 have equal supports, so they form one class
    ids = np.array([0, 1, 0, 2, 1, 0, 2])
    arrays = [np.array([0.2, 1.0]), np.array([0.1, 0.3, 1.0]), np.array([0.2, 1.0])]
    members = []

    def support_of(hypotheses):
        members.append(hypotheses.tolist())
        return arrays[ids[hypotheses[0]]]

    supports = NullSupports(ids, PI0_CFG, support_of)
    assert members == [[0, 2, 5], [1, 4], [3, 6]]
    assert supports.ids.tolist() == [0, 1, 0, 0, 1, 0, 0] and len(supports._rows) == 2
    assert len(NullSupports(np.array([], dtype=np.intp), PI0_CFG, support_of)) == 0


def test_invalid_class_array_refused_once_naming_its_first_hypothesis(monkeypatch):
    good, bad = np.array([0.5, 1.0]), np.array([0.5, 0.25, 1.0])
    with pytest.raises(InvalidConfigError, match="support of hypothesis 2 "):
        _checked_study(np.full(5, 0.5), [good, good, bad, good, bad], PI0_CFG)
    checked = []
    original = proportion._checked_support
    monkeypatch.setattr(proportion, "_checked_support",
                        lambda array, i: checked.append(i) or original(array, i))
    pvalues = np.array([0.5, 1.0, 0.2, 1.0])
    supports = _checked_study(pvalues, [good.copy(), good, np.array([0.2, 1.0]), good],
                              PI0_CFG)[1]
    assert checked == [0, 1, 2]  # each array once, by its first hypothesis
    assert len(supports._rows) == 2 and supports.ids.tolist() == [0, 0, 1, 0]
    estimate_pi0(pvalues, supports, PI0_CFG)
    groupwise_pi0(pvalues, supports, Partition((np.array([0, 2]), np.array([1, 3]))),
                  PI0_CFG)
    assert checked == [0, 1, 2]  # not checked again


def test_grid_must_be_a_config():
    with pytest.raises(InvalidConfigError, match="pi0 must be a Pi0Config, got 0.2"):
        score_input([1], [2], TWO, pi0=0.2)
    with pytest.raises(InvalidConfigError, match="pi0 must be a Pi0Config, got 0.2"):
        _checked_study([1.0], [np.array([1.0])], 0.2)
    # a scored study's supports carry their grid: None reads it, and a value
    # that is no grid is refused as such, not as another grid
    p, scored, stats = score_input(*_binomial_counts(m=40)[0], TWO)
    assert estimate_pi0(p, scored, None) == estimate_pi0(p, scored, BINOMIAL_PI0_CONFIG)
    partition = splitting_partition(p.size)
    for bad in (0.2, "0.2", (0.2, 0.0005)):
        for refused in (lambda: estimate_pi0(p, scored, bad),
                        lambda: estimate_pi0(p, by_hand(stats), bad),
                        lambda: groupwise_pi0(p, scored, partition, bad),
                        lambda: weight_study(p, scored, stats, WfdrConfig(pi0=bad))):
            with pytest.raises(InvalidConfigError,
                               match=re.escape(f"pi0 must be a Pi0Config, got {bad!r}")):
                refused()


@pytest.mark.parametrize("indices", [
    [2**63], np.array([2.0**63]), np.array([2**63], dtype=np.uint64),
    np.array([2**64 - 1], dtype=np.uint64)], ids=["int", "float", "uint64", "uint64-max"])
@pytest.mark.parametrize("construct, message", [
    (lambda ids: Partition((ids, np.array([0]))),
     "group(s must form a disjoint cover| must be nonnegative integers)"),
], ids=["partition"])
def test_indices_from_2_63_refused_without_a_cast_warning(construct, message, indices):
    # 2^63 itself passes the integer check, and an int64 cast makes it
    # negative; larger values fail the check
    with warnings.catch_warnings(), pytest.raises(InvalidConfigError, match=message):
        warnings.simplefilter("error")
        construct(indices)


def test_lambda_rows_built_once_per_grid_and_shared_with_views(monkeypatch):
    pvalues, supports, totals = mixed_study()
    built = []
    original = NullSupports.__init__
    monkeypatch.setattr(NullSupports, "__init__",
                        lambda self, *args: built.append(self) or original(self, *args))
    partition = splitting_partition(pvalues.size)
    estimate_pi0(pvalues, supports, PI0_CFG)
    groupwise_pi0(pvalues, supports, partition, PI0_CFG)
    assert built == []  # the scored rows serve the study and every group
    assert all(supports.take(g)._rows is supports._rows for g in partition.groups)
    groupwise_pi0(pvalues, by_hand(totals), partition, PI0_CFG)
    assert len(built) == 1  # a list becomes classes once per study, not per group


def test_lambda_rows_are_one_matrix_built_once_per_grid():
    # k = m, as in a methylation study: every hypothesis its own class
    rng = np.random.default_rng(13)
    grid = np.arange(1, 400) / 400.0
    arrays = [np.append(np.sort(rng.choice(grid, 20, replace=False)), 1.0)
              for _ in range(2000)]
    pvalues = np.ones(len(arrays))
    tracemalloc.start()
    supports = _checked_study(pvalues, arrays, PI0_CFG)[1]
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rows = supports._rows
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (len(arrays), TAUS.size)
    # the matrix is written in place: the build's temporaries, the digests
    # among them, never reach a second copy of it, and the arrays' members
    # are one sort order with bounds, not one index array per array
    assert rows.nbytes <= held and peak - held <= rows.nbytes // 3
    assert supports.take(np.arange(10, 0, -1))._rows is rows
    # each class's largest point at or below each guiding value, or 0
    expected = [[max((x for x in s if x <= tau), default=0.0) for tau in TAUS]
                for s in arrays[:50]]
    assert np.array_equal(rows[:50], expected)


# --- scored supports against supports built by hand ------------------------

def _poisson_counts(seed=2, m=3000):
    """The Poisson scenario's means, a fifth of them shifted."""
    rng = np.random.default_rng(seed)
    mu = 7.0 * (1.0 + rng.pareto(7.0, m))
    return (rng.poisson(mu), rng.poisson(mu * np.where(np.arange(m) < 2400, 1.0, 3.0))), {}


def _fet_counts(seed=4, m=600):
    """Tables whose row totals are uniform on 5-60, nearly one class a row."""
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(5, 61, size=(2, m))
    return (rng.binomial(n1, 0.3), rng.binomial(n2, 0.3)), {"n1": n1, "n2": n2}


GRID_STUDIES = {
    "binomial-totals-0-and-1": (_binomial_counts, PI0_CFG),
    "binomial-poisson": (_poisson_counts, BINOMIAL_PI0_CONFIG),
    "fet": (_fet_counts, FET_PI0_CONFIG),
}


def _scored_and_by_hand(study):
    """The study scored on its grid, and the full support of each hypothesis
    from one ``*_null_distribution`` call per statistic."""
    counts, totals = GRID_STUDIES[study][0]()
    cfg = GRID_STUDIES[study][1]
    pvalues, supports, stats = score_input(*counts, TWO, **totals, pi0=cfg)
    null = fet_null_distribution if totals else binomial_null_distribution
    tables = {s: np.array([1.0]) if s == 0 else null(s if totals else int(s), TWO).support
              for s in dict.fromkeys(stats)}
    return pvalues, supports, stats, [tables[s] for s in stats], cfg


@pytest.mark.parametrize("study", sorted(GRID_STUDIES))
def test_grid_form_gives_the_full_form_results_bit_for_bit(study):
    # the scored classes against the full supports listed by hand, whose
    # points the scored p-values are
    p, scored, stats, full, cfg = _scored_and_by_hand(study)
    listed = _checked_study(p, full, cfg)[1]
    assert np.array_equal(scored.ids, listed.ids) and not scored.ids.flags.writeable
    assert scored._rows.tobytes() == listed._rows.tobytes()
    if study == "binomial-totals-0-and-1":  # totals 0 and 1: one class {1}
        assert scored.ids[1] == scored.ids[2] == scored.ids[3]
    assert estimate_pi0(p, scored, cfg) == estimate_pi0(p, full, cfg)
    for wcfg in (WfdrConfig(l_star=1, pi0=cfg), WfdrConfig(l_star=3, pi0=cfg),
                 WfdrConfig(l_star=3, grouping="metric", pi0=cfg)):
        a, b = weight_study(p, full, stats, wcfg), weight_study(p, scored, stats, wcfg)
        assert [g.tolist() for g in a.partition.groups] == [
            g.tolist() for g in b.partition.groups]
        assert a.group_pi0 == b.group_pi0 and a.pi0_overall == b.pi0_overall
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.weighted.tobytes() == b.weighted.tobytes()


def test_grid_form_refuses_the_supports_and_other_grids():
    p, scored, stats, full, cfg = _scored_and_by_hand("binomial-totals-0-and-1")
    rows = scored._rows
    partition = splitting_partition(p.size)
    other = Pi0Config(0.3, 0.01)
    kept = "lambda rows on the grid of Pi0Config\\(lambda_max=0.45, step=0.005\\)"
    refusals = {
        "estimate": lambda: estimate_pi0(p, scored, other),
        "view": lambda: estimate_pi0(p[:2], scored.take([0, 1]), other),
        "groupwise": lambda: groupwise_pi0(p, scored, partition, other),
        "weight_study": lambda: weight_study(p, scored, stats, WfdrConfig(l_star=2, pi0=other)),
    }
    for name, refused in refusals.items():
        with pytest.raises(NotApplicableError, match=kept):
            refused()
    assert scored._rows is rows  # never evicted
    assert len(scored) == p.size and len(scored.take(np.arange(2, 9))) == 7
    # with no grid given, the supports' own is read
    assert _same_weighting(weight_study(p, scored, stats, WfdrConfig(l_star=2)),
                           weight_study(p, full, stats, WfdrConfig(l_star=2, pi0=cfg)))
    assert groupwise_pi0(p, scored, partition, cfg) == groupwise_pi0(p, full, partition, cfg)


@pytest.mark.parametrize("family, default, other", [
    ("binomial", BINOMIAL_PI0_CONFIG, FET_PI0_CONFIG),
    ("fet", FET_PI0_CONFIG, BINOMIAL_PI0_CONFIG),
])
def test_score_input_defaults_to_the_tests_grid(family, default, other):
    counts, totals = STUDIES[family]()
    p, supports, _ = score_input(*counts, TWO, **totals)
    _, explicit, _ = score_input(*counts, TWO, **totals, pi0=default)
    assert supports.ids.tolist() == explicit.ids.tolist()
    assert supports._rows.shape[1] == default.guiding_values().size
    assert supports._rows.tobytes() == explicit._rows.tobytes()
    assert estimate_pi0(p, supports, default) == estimate_pi0(p, explicit, default)
    with pytest.raises(NotApplicableError, match=re.escape(f"grid of {default}")):
        estimate_pi0(p, supports, other)


def _same_weighting(a, b):
    """Whether two ``WeightedStudy`` results are equal, arrays bit for bit."""
    return ([g.tolist() for g in a.partition.groups] == [g.tolist() for g in b.partition.groups]
            and a.group_pi0 == b.group_pi0 and a.pi0_overall == b.pi0_overall
            and a.weights.tobytes() == b.weights.tobytes()
            and a.weighted.tobytes() == b.weighted.tobytes())


@pytest.mark.parametrize("sided", list(Sidedness), ids=lambda s: s.value)
@pytest.mark.parametrize("counts, grid", [
    (_binomial_counts, BINOMIAL_PI0_CONFIG), (_fet_counts, FET_PI0_CONFIG),
], ids=["binomial", "fet"])
def test_default_call_reads_the_grid_the_supports_carry(counts, grid, sided):
    # no grid anywhere against the test's grid named at every step
    counts, totals = counts()
    p, supports, stats = score_input(*counts, sided, **totals)
    p_named, named, _ = score_input(*counts, sided, **totals, pi0=grid)
    assert p.tobytes() == p_named.tobytes()
    assert _same_weighting(weight_study(p, supports, stats, WfdrConfig(l_star=3)),
                           weight_study(p, named, stats, WfdrConfig(l_star=3, pi0=grid)))
    estimate = estimate_pi0(p, supports)
    assert estimate == estimate_pi0(p, named, grid)
    assert [tau for tau, _ in estimate.trial_values] == grid.guiding_values().tolist()


def test_plain_sequence_default_grid_is_binomial():
    # a Fisher's-test study listed by hand: with no grid given, its supports
    # are read on the binomial grid, not on the grid of its test
    p, _, stats, full, fet_grid = _scored_and_by_hand("fet")
    default = weight_study(p, full, stats, WfdrConfig(l_star=3))
    assert _same_weighting(default, weight_study(p, full, stats, WfdrConfig(
        l_star=3, pi0=BINOMIAL_PI0_CONFIG)))
    assert not _same_weighting(default, weight_study(p, full, stats, WfdrConfig(
        l_star=3, pi0=fet_grid)))
    taus = BINOMIAL_PI0_CONFIG.guiding_values().tolist()
    assert [tau for tau, _ in estimate_pi0(p, full).trial_values] == taus
    assert [tau for tau, _ in default.group_pi0[0].trial_values] == taus


@pytest.mark.parametrize("call", [
    lambda p, s, stats, cfg: estimate_pi0(p, s, cfg.pi0),
    lambda p, s, stats, cfg: groupwise_pi0(p, s, Partition((np.arange(p.size),)), cfg.pi0),
    lambda p, s, stats, cfg: weight_study(p, s, stats, cfg),
    lambda p, s, stats, cfg: wfdr_reject(p, s, stats, 0.05, cfg),
], ids=["estimate_pi0", "groupwise_pi0", "weight_study", "wfdr_reject"])
def test_off_support_pvalue_refused_naming_its_hypothesis(call):
    pvalues, supports, stats, index = off_support_study()
    cfg = WfdrConfig(l_star=1)
    with pytest.raises(InvalidConfigError,
                       match=f"p-value of hypothesis {index} is not a point of its support"):
        call(pvalues, supports, stats, cfg)
    pvalues[index] = supports[index][0]  # its support's smallest point
    call(pvalues, supports, stats, cfg)


def test_cli_and_run_study_score_on_their_grid(tmp_path, monkeypatch):
    grids = []

    def recording(module):
        original = module.score_input

        def scored(*args, **kwargs):
            result = original(*args, **kwargs)
            grids.append(result[1]._pi0)
            return result

        monkeypatch.setattr(module, "score_input", scored)

    recording(cli)
    recording(simulate)
    path = tmp_path / "counts.csv"
    path.write_text("id,c1,c2\na,3,12\nb,7,6\nc,0,9\nd,40,45\n")
    argv = ["analyze", "--test", "binomial", "--input", str(path), "--groups", "2",
            "--output", str(tmp_path / "out")]
    assert cli.main(argv + ["--lambda-max", "0.3", "--step", "0.01"]) == 0
    assert grids == [Pi0Config(0.3, 0.01)]
    cfg = ScenarioConfig(Family.BINOMIAL_FET, m=50, pi0=0.8, alpha_grid=(0.05,),
                         l_star_grid=(2,), replications=2, master_seed=1)
    run_study(cfg, workers=1)
    assert grids[1:] == [cfg.resolved_pi0_config()] * 2 == [FET_PI0_CONFIG] * 2
    # a bad grid is refused before any table is built
    exact_tests._MEMO.clear()
    assert cli.main(argv + ["--lambda-max", "1.2"]) == cli.EXIT_COMPUTE
    assert len(grids) == 3 and not exact_tests._MEMO.tables


def test_grid_form_holds_its_lambda_rows_not_its_supports():
    # totals near 10^6 each have a support of about 20,000 points, 160 kB,
    # where a lambda row on the binomial grid is 401 floats, 3.2 kB
    cfg = BINOMIAL_PI0_CONFIG
    totals = np.tile(1_000_000 + 997 * np.arange(8), 2)
    c1 = totals // 2 - 3_000

    def retained(build):
        exact_tests._MEMO.clear()
        tracemalloc.start()
        try:
            kept = build()
            exact_tests._MEMO.clear()
            held = tracemalloc.get_traced_memory()[0]
            del kept
            return held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    bound = 2 * 8 * cfg.guiding_values().size  # bytes per class
    assert retained(lambda: score_input(c1, totals - c1, TWO, pi0=cfg)[1]) <= 8 * bound
    # the measure sees supports that are kept
    assert retained(lambda: [binomial_null_distribution(int(t), TWO).support
                             for t in totals[:8]]) > 10 * 8 * bound
