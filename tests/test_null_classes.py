"""Scoring by null class: every distinct conditioning statistic gets one null
distribution, computed once, and all its hypotheses share one support array,
whatever the exact-test memo holds."""

import os

import numpy as np
import pytest

from discrete_fdr import Sidedness, WfdrConfig, binomial_null_distribution, weight_study
from discrete_fdr import exact_tests, io
from discrete_fdr.io import score_input
from discrete_fdr.simulate import Family, ScenarioConfig, run_study

TWO = Sidedness.TWO_SIDED
MEMOS = (exact_tests._binomial_test, exact_tests._fet_test)


@pytest.fixture(autouse=True)
def cold_memo():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


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
    by_total = {}
    for stat, support in zip(stats, supports):
        assert by_total.setdefault(stat, support) is support
    assert len({id(s) for s in supports}) == n
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
    for name, memo in (("binomial_pvalue", exact_tests._binomial_test),
                       ("fet_pvalue", exact_tests._fet_test)):
        original = getattr(io, name)
        monkeypatch.setattr(
            io, name,
            lambda *args, f=original, memo=memo: memo.cache_clear() or f(*args),
        )


def _score_and_weigh(family):
    counts, totals = STUDIES[family]()
    pvalues, supports, stats = score_input(*counts, TWO, **totals)
    study = weight_study(pvalues, supports, stats, WfdrConfig(l_star=2))
    return pvalues, supports, stats, study


@pytest.mark.parametrize("family", sorted(STUDIES))
@pytest.mark.parametrize("memo", ["warm", "evicting"])
def test_results_do_not_depend_on_the_memo(family, memo, monkeypatch):
    cold = _score_and_weigh(family)
    if memo == "evicting":
        _evicting(monkeypatch)
    pvalues, supports, stats, study = _score_and_weigh(family)
    assert pvalues.tobytes() == cold[0].tobytes()
    assert [s.tobytes() for s in supports] == [s.tobytes() for s in cold[1]]
    assert study.pi0_overall == cold[3].pi0_overall
    assert [e.raw_value for e in study.group_pi0] == [
        e.raw_value for e in cold[3].group_pi0
    ]
    by_stat = {}
    for stat, support in zip(stats, supports):
        assert by_stat.setdefault(stat, support) is support


def test_supports_built_by_hand_form_one_class_per_statistic():
    # one table built per hypothesis, totals 1..600 interleaved three times:
    # the memo drops tables between repeats, so equal supports arrive as
    # distinct arrays, which must still form one class per total
    totals = np.tile(np.arange(1, 601), 3)
    c1 = totals // 3
    pvalues, supports, stats = score_input(c1, totals - c1, TWO)
    by_hand = [binomial_null_distribution(int(t), TWO).support for t in totals]
    assert len({id(s) for s in by_hand}) == 1_800
    assert len({id(s) for s in supports}) == 600
    cfg = WfdrConfig(l_star=3)
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
    assert supports[0] is supports[2] is supports[4] is supports[5]
    assert _memo_bytes_match_its_tables()
    assert exact_tests._table_bytes(exact_tests._binomial_test(large, TWO)) > exact_tests.MEMO_BYTES


def test_simulation_builds_each_total_once(monkeypatch):
    built = []
    original = exact_tests._null_table
    monkeypatch.setattr(
        exact_tests, "_null_table",
        lambda *args: built.append(args[1:5]) or original(*args),
    )
    cfg = ScenarioConfig(Family.POISSON_BINOMIAL, m=20_000, pi0=0.8, alpha_grid=(0.05,),
                         l_star_grid=(2,), replications=3, master_seed=1)
    run_study(cfg, workers=1)
    assert len(built) == len(set(built)) > 80  # (lo, hi, mode, sided) names a total
