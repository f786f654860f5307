"""Scoring by null class: every distinct conditioning statistic gets one null
distribution, computed once, and all its hypotheses share one support array,
whatever the exact-test memo holds."""

import numpy as np
import pytest

from discrete_fdr import Sidedness, WfdrConfig, weight_study
from discrete_fdr import exact_tests, io
from discrete_fdr.io import score_input

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
    assert n > exact_tests.MEMO_SIZE
    totals = np.tile(np.arange(1, n + 1), 2)  # t_1..t_n, then t_1..t_n again
    c1 = totals // 3
    _, supports, stats = score_input(c1, totals - c1, TWO)
    assert len(built) == n
    by_total = {}
    for stat, support in zip(stats, supports):
        assert by_total.setdefault(stat, support) is support
    assert len({id(s) for s in supports}) == n
    assert exact_tests._binomial_test.cache_info().currsize <= exact_tests.MEMO_SIZE


def test_memo_stays_bounded_over_distinct_safety_studies():
    cases, events, rows = 2_000, 200_000, 500
    for study in range(6):
        n1 = 1_000 + 6 * np.arange(rows) + study  # 3,000 distinct margins
        c1 = n1 * cases // events
        score_input(c1, cases - c1, TWO, n1=n1, n2=events - n1)
    assert exact_tests._fet_test.cache_info().currsize <= exact_tests.MEMO_SIZE


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
