"""Scoring by null class: every distinct conditioning statistic gets one null
distribution, computed once, and all its hypotheses share one support array,
whatever the exact-test memo holds.  The supports come as a ``NullSupports``,
and the estimator gives bit-identical results for it, for its views and for
plain lists of the same arrays."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

from discrete_fdr import (
    InvalidConfigError,
    NotApplicableError,
    NullSupports,
    Partition,
    Pi0Config,
    Sidedness,
    WfdrConfig,
    binomial_null_distribution,
    estimate_pi0,
    groupwise_pi0,
    weight_study,
)
from discrete_fdr import cli, exact_tests, io, proportion, simulate
from discrete_fdr.io import score_input
from discrete_fdr.proportion import _trial_grid
from discrete_fdr.simulate import Family, ScenarioConfig, run_study

TWO = Sidedness.TWO_SIDED


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
    for name in ("binomial_pvalue", "fet_pvalue"):
        original = getattr(io, name)
        monkeypatch.setattr(
            io, name, lambda *args, f=original: exact_tests._MEMO.clear() or f(*args))


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

TAUS = Pi0Config(0.45, 0.005).guiding_values()
PI0_CFG = Pi0Config(0.45, 0.005)


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
        if np.any(lam >= 1.0):
            raise InvalidConfigError("a guiding value reached a support point of 1")
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
    """The scored ``_binomial_counts``, with the total of each pair."""
    (c1, c2), _ = _binomial_counts(seed, m)
    pvalues, supports, stats = score_input(c1, c2, TWO)
    return pvalues, supports, c1 + c2


def distinct_study(seed=3, m=400):
    """Binomial pairs of the distinct totals 1..m in random order, k = m: one
    class each, among them {1} (total 1) and {0.5, 1} (total 2), whose first
    point lies above every guiding value."""
    rng = np.random.default_rng(seed)
    totals = rng.permutation(np.arange(1, m + 1))
    c1 = rng.binomial(totals, 0.4)
    pvalues, supports, _ = score_input(c1, totals - c1, TWO)
    assert len(supports.classes) == m
    return pvalues, supports, totals


def by_hand(totals):
    """One null-distribution call per hypothesis, each a table of its own."""
    supports = []
    for total in totals:
        exact_tests._MEMO.clear()
        supports.append(np.array([1.0]) if total == 0
                        else binomial_null_distribution(int(total), TWO).support)
    return supports


def forms(supports, totals):
    return {"scored": supports, "list": list(supports), "by-hand": by_hand(totals)}


def splitting_partition(m, seed=7):
    """Four groups of random members, so that classes split across groups."""
    order = np.random.default_rng(seed).permutation(m)
    return Partition(tuple(np.array_split(order, 4)))


def test_score_input_returns_null_supports():
    pvalues, supports, totals = mixed_study()
    assert isinstance(supports, NullSupports)
    assert len(supports) == len(list(supports)) == pvalues.size
    assert supports[1] is supports[2] is supports[3] is supports[-len(supports) + 1]
    assert supports[1].tolist() == [1.0]  # totals 0 and 1: one class
    assert len(supports.classes) == len(set(totals.tolist())) - 1
    first = [int(np.flatnonzero(supports.ids == c)[0]) for c in range(len(supports.classes))]
    assert first == sorted(first)  # numbered in order of first occurrence
    assert all(s is supports.classes[c] for s, c in zip(supports, supports.ids))
    assert not supports.ids.flags.writeable


@pytest.mark.parametrize("study, off_support", [
    (mixed_study, False), (mixed_study, True), (distinct_study, False),
], ids=["scored", "off-support", "one-class-each"])
def test_trial_grid_identical_for_every_form(study, off_support):
    # with one class each, the class-by-class reference is per hypothesis
    pvalues, supports, totals = study()
    if off_support:  # p-values that are not points of their support
        pvalues = np.random.default_rng(9).uniform(1e-3, 1.0, size=pvalues.size)
    expected = reference_grid(pvalues, list(supports), TAUS)
    for name, form in forms(supports, totals).items():
        assert np.array_equal(_trial_grid(pvalues, form, TAUS), expected), name


def test_estimates_identical_for_every_form():
    pvalues, supports, totals = mixed_study()
    partition = splitting_partition(pvalues.size)
    results = {name: (estimate_pi0(pvalues, form, PI0_CFG),
                      groupwise_pi0(pvalues, form, partition, PI0_CFG))
               for name, form in forms(supports, totals).items()}
    assert results["list"] == results["scored"] == results["by-hand"]
    members = list(supports)
    assert results["scored"][1] == [
        estimate_pi0(pvalues[g], [members[i] for i in g], PI0_CFG) for g in partition.groups]


@pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "reversed"])
def test_view_identical_to_the_list_of_its_members(reverse):
    pvalues, supports, _ = mixed_study()
    members = list(supports)
    for g in splitting_partition(pvalues.size).groups:
        g = g[::-1] if reverse else g
        view = supports.take(g)
        listed = [members[i] for i in g]
        assert [s is t for s, t in zip(view, listed)] == [True] * g.size
        got = _trial_grid(pvalues[g], view, TAUS)
        assert np.array_equal(got, _trial_grid(pvalues[g], listed, TAUS))
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
    supports = NullSupports(arrays, ids)
    pvalues = rng.uniform(1e-3, 1.0, size=ids.size)
    g = np.concatenate([np.arange(12, ids.size), np.arange(12)[::-1]])
    got = _trial_grid(pvalues[g], supports.take(g), TAUS)
    assert np.array_equal(got, reference_grid(pvalues[g], [arrays[c] for c in ids[g]], TAUS))


def test_support_point_of_one_only_where_a_class_reaches_it():
    supports = NullSupports([np.array([0.3, 0.6]), np.array([0.5, 1.0])], [0, 1, 0, 1])
    pvalues = np.array([0.6, 1.0, 0.3, 0.5])
    taus = np.array([0.4, 1.0])
    for form in (supports, list(supports)):
        with pytest.raises(InvalidConfigError, match="support point of 1"):
            _trial_grid(pvalues, form, taus)
    # the view holds only the class whose points stay below 1
    view = supports.take([2, 0])
    assert np.array_equal(_trial_grid(pvalues[[2, 0]], view, taus),
                          reference_grid(pvalues[[2, 0]], list(view), taus))
    with pytest.raises(InvalidConfigError, match="support point of 1"):
        _trial_grid(pvalues[[0, 1]], supports.take([0, 1]), taus)


def test_invalid_class_array_refused_once_naming_its_first_hypothesis(monkeypatch):
    good, bad = np.array([0.5, 1.0]), np.array([0.5, 0.25, 1.0])
    with pytest.raises(InvalidConfigError, match="support of hypothesis 2 "):
        NullSupports([good, bad], [0, 0, 1, 0, 1])
    checked = []
    original = proportion._checked_support
    monkeypatch.setattr(proportion, "_checked_support",
                        lambda array, i: checked.append(i) or original(array, i))
    supports = NullSupports([good, good.copy(), np.array([0.2, 1.0])], [1, 0, 2, 0])
    assert checked == [0, 1, 2]  # each array once, by its first hypothesis
    assert len(supports.classes) == 2 and supports.ids.tolist() == [0, 0, 1, 0]
    pvalues = np.array([0.5, 1.0, 0.2, 1.0])
    estimate_pi0(pvalues, supports, PI0_CFG)
    groupwise_pi0(pvalues, supports, Partition((np.array([0, 2]), np.array([1, 3]))),
                  PI0_CFG)
    assert checked == [0, 1, 2]  # not checked again


@pytest.mark.parametrize("ids", [[0, 2], [0, -1], [0.5, 1]], ids=["too-large", "negative",
                                                                 "fraction"])
def test_class_ids_must_name_an_array(ids):
    with pytest.raises(InvalidConfigError, match="class ids"):
        NullSupports([np.array([1.0]), np.array([0.5, 1.0])], ids)


@pytest.mark.parametrize("indices", [
    [2**63], np.array([2.0**63]), np.array([2**63], dtype=np.uint64),
    np.array([2**64 - 1], dtype=np.uint64)], ids=["int", "float", "uint64", "uint64-max"])
@pytest.mark.parametrize("construct, message", [
    (lambda ids: NullSupports([np.array([1.0])], ids),
     "class ids must be (below|nonnegative integers)"),
    (lambda ids: Partition((ids, np.array([0]))),
     "group(s must form a disjoint cover| must be nonnegative integers)"),
], ids=["class-ids", "partition"])
def test_indices_from_2_63_refused_without_a_cast_warning(construct, message, indices):
    # 2^63 itself passes the integer check, and an int64 cast makes it
    # negative; larger values fail the check
    with warnings.catch_warnings(), pytest.raises(InvalidConfigError, match=message):
        warnings.simplefilter("error")
        construct(indices)


def test_lambda_rows_built_once_per_grid_and_shared_with_views(monkeypatch):
    pvalues, supports, _ = mixed_study()
    built = []
    original = proportion._lambda_row
    monkeypatch.setattr(proportion, "_lambda_row",
                        lambda s, taus: built.append(taus.size) or original(s, taus))
    partition = splitting_partition(pvalues.size)
    estimate_pi0(pvalues, supports, PI0_CFG)
    groupwise_pi0(pvalues, supports, partition, PI0_CFG)
    assert built == [TAUS.size] * len(supports.classes)
    other = Pi0Config(0.3, 0.01)
    groupwise_pi0(pvalues, supports, partition, other)
    assert len(built) == 2 * len(supports.classes)


def test_lambda_rows_are_one_matrix_built_once_per_grid():
    # k = m, as in a methylation study: every hypothesis its own class
    rng = np.random.default_rng(13)
    grid = np.arange(1, 400) / 400.0
    arrays = [np.append(np.sort(rng.choice(grid, 20, replace=False)), 1.0)
              for _ in range(2000)]
    supports = NullSupports(arrays, np.arange(len(arrays)))
    tracemalloc.start()
    rows = supports._lambda_rows(TAUS)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (len(supports.classes), TAUS.size)
    # the matrix and one row's temporaries, never a second copy of it
    assert peak <= rows.nbytes + 64 * 1024
    assert supports._lambda_rows(TAUS) is rows
    assert supports.take(np.arange(10, 0, -1))._lambda_rows(TAUS) is rows
    # each class's largest point at or below each guiding value, or 0
    expected = [[max((x for x in s if x <= tau), default=0.0) for tau in TAUS]
                for s in arrays[:50]]
    assert np.array_equal(rows[:50], expected)


# --- the grid form: only the lambda rows of one grid ----------------------

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
    "binomial-poisson": (_poisson_counts, proportion.BINOMIAL_PI0_CONFIG),
    "fet": (_fet_counts, proportion.FET_PI0_CONFIG),
}


def _both_forms(study):
    counts, totals = GRID_STUDIES[study][0]()
    cfg = GRID_STUDIES[study][1]
    full = score_input(*counts, TWO, **totals)
    grid = score_input(*counts, TWO, **totals, pi0=cfg)
    return full, grid, cfg


@pytest.mark.parametrize("study", sorted(GRID_STUDIES))
def test_grid_form_gives_the_full_form_results_bit_for_bit(study):
    (p, full, stats), (p_grid, grid, stats_grid), cfg = _both_forms(study)
    assert p.tobytes() == p_grid.tobytes() and stats == stats_grid
    assert np.array_equal(full.ids, grid.ids) and not grid.ids.flags.writeable
    taus = cfg.guiding_values()
    assert full._lambda_rows(taus).tobytes() == grid._lambda_rows(taus).tobytes()
    if study == "binomial-totals-0-and-1":  # totals 0 and 1: one class {1}
        assert grid.ids[1] == grid.ids[2] == grid.ids[3]
    assert estimate_pi0(p, full, cfg) == estimate_pi0(p_grid, grid, cfg)
    for wcfg in (WfdrConfig(l_star=1, pi0=cfg), WfdrConfig(l_star=3, pi0=cfg),
                 WfdrConfig(l_star=3, grouping="metric", pi0=cfg)):
        a, b = weight_study(p, full, stats, wcfg), weight_study(p_grid, grid, stats, wcfg)
        assert [g.tolist() for g in a.partition.groups] == [
            g.tolist() for g in b.partition.groups]
        assert a.group_pi0 == b.group_pi0 and a.pi0_overall == b.pi0_overall
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.weighted.tobytes() == b.weighted.tobytes()


def test_grid_form_refuses_the_supports_and_other_grids():
    (p, full, _), (_, grid, _), cfg = _both_forms("binomial-totals-0-and-1")
    rows = grid._lambda_rows(TAUS)
    kept = "lambda rows on the grid of Pi0Config\\(lambda_max=0.45, step=0.005\\)"
    refusals = {
        "item": lambda: grid[0],
        "iteration": lambda: iter(grid),
        "list": lambda: list(grid),
        "classes": lambda: grid.classes,
        "other grid": lambda: estimate_pi0(p, grid, Pi0Config(0.3, 0.01)),
        "other grid of a view": lambda: grid.take([0, 1])._lambda_rows(TAUS[:-1]),
    }
    for name, refused in refusals.items():
        with pytest.raises(NotApplicableError, match=kept):
            refused()
    assert grid._lambda_rows(TAUS) is rows  # never evicted
    assert len(grid) == p.size and len(grid[2:9]) == 7
    partition = splitting_partition(p.size)
    assert groupwise_pi0(p, grid, partition, cfg) == groupwise_pi0(p, full, partition, cfg)


def test_cli_and_run_study_score_on_their_grid(tmp_path, monkeypatch):
    grids = []

    def recording(module):
        original = module.score_input
        monkeypatch.setattr(module, "score_input", lambda *args, **kwargs: grids.append(
            kwargs.get("pi0")) or original(*args, **kwargs))

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
    assert grids[1:] == [cfg.resolved_pi0_config()] * 2
    # a bad grid is refused before any table is built
    exact_tests._MEMO.clear()
    assert cli.main(argv + ["--lambda-max", "1.2"]) == cli.EXIT_COMPUTE
    assert len(grids) == 3 and not exact_tests._MEMO.tables


def test_grid_form_holds_its_lambda_rows_not_its_supports():
    # totals near 10^6 each have a support of about 20,000 points, 160 kB,
    # where a lambda row on the binomial grid is 401 floats, 3.2 kB
    cfg = proportion.BINOMIAL_PI0_CONFIG
    totals = np.tile(1_000_000 + 997 * np.arange(8), 2)
    c1 = totals // 2 - 3_000

    def retained(pi0):
        exact_tests._MEMO.clear()
        tracemalloc.start()
        try:
            _, supports, _ = score_input(c1, totals - c1, TWO, pi0=pi0)
            exact_tests._MEMO.clear()
            held = tracemalloc.get_traced_memory()[0]
            del supports
            return held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    bound = 2 * 8 * cfg.guiding_values().size  # bytes per class
    assert retained(cfg) <= 8 * bound
    assert retained(None) > 10 * 8 * bound  # the measure sees kept supports
