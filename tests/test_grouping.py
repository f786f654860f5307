"""Tests for metric-ball and quantile grouping."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discrete_fdr import grouping, wfdr
from discrete_fdr import (
    DiscreteCDF,
    GroupingConfig,
    GroupingDidNotConvergeError,
    InvalidConfigError,
    MarginalVector,
    Partition,
    Sidedness,
    WfdrConfig,
    binomial_null_distribution,
    delta,
    group_by_metric,
    group_by_statistic_quantiles,
    group_from_distances,
    pairwise_delta_matrix,
)
from discrete_fdr.errors import check_array

TWO = Sidedness.TWO_SIDED


def assert_is_partition(partition: Partition, m: int):
    merged = np.concatenate(partition.groups)
    assert np.array_equal(np.sort(merged), np.arange(m))
    assert all(g.size > 0 for g in partition.groups)


def euclidean_dmat(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


class TestMetricGrouping:
    def test_two_totals_instance(self):
        cdfs = [binomial_null_distribution(t, TWO) for t in (2, 2, 2, 9, 9, 9)]
        part = group_by_metric(cdfs, GroupingConfig(l_star=2, g_star=2))
        groups = [set(g.tolist()) for g in part.groups]
        assert groups == [{0, 1, 2}, {3, 4, 5}]

    def test_two_totals_instance_against_brute_force(self):
        # enumerate every split into two groups of size >= 2: the returned
        # partition must be the only one whose groups both have metric
        # diameter <= 2 * final radius
        cdfs = [binomial_null_distribution(t, TWO) for t in (2, 2, 2, 9, 9, 9)]
        dmat = pairwise_delta_matrix(cdfs)
        part = group_by_metric(cdfs, GroupingConfig(l_star=2, g_star=2))
        bound = 2 * part.radius_final
        valid = []
        indices = set(range(6))
        for size in range(2, 5):
            for combo in itertools.combinations(range(6), size):
                g1, g2 = set(combo), indices - set(combo)
                diam = lambda g: max(
                    (dmat[i, j] for i in g for j in g), default=0.0
                )
                if diam(g1) <= bound and diam(g2) <= bound:
                    valid.append({frozenset(g1), frozenset(g2)})
        unique = {frozenset(v) for v in map(frozenset, valid)}
        assert unique == {frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})})}
        assert {frozenset(g.tolist()) for g in part.groups} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_identical_cdfs_form_one_group(self):
        cdfs = [binomial_null_distribution(4, TWO) for _ in range(6)]
        part = group_by_metric(cdfs, GroupingConfig(l_star=3, g_star=2))
        assert len(part.groups) == 1
        assert_is_partition(part, 6)

    def test_l_star_one(self):
        cdfs = [binomial_null_distribution(t, TWO) for t in (1, 5, 9)]
        part = group_by_metric(cdfs, GroupingConfig(l_star=1, g_star=1))
        assert len(part.groups) == 1
        assert_is_partition(part, 3)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            GroupingConfig(l_star=0)
        with pytest.raises(InvalidConfigError):
            GroupingConfig(l_star=2, g_star=0)
        cdfs = [binomial_null_distribution(t, TWO) for t in (1, 2, 3)]
        with pytest.raises(InvalidConfigError):
            group_by_metric(cdfs, GroupingConfig(l_star=2, g_star=2))

    @pytest.mark.parametrize("l_star,g_star", [(2.5, 1), (2, 1.5), (2.0, 1), (2, "1")])
    def test_group_count_must_be_integer(self, l_star, g_star):
        with pytest.raises(InvalidConfigError, match="must be an integer >= 1"):
            GroupingConfig(l_star=l_star, g_star=g_star)

    def test_numpy_integer_group_count(self):
        cfg = GroupingConfig(l_star=np.int64(2), g_star=np.int32(1))
        part = group_from_distances(np.array([[0.0, 5.0], [5.0, 0.0]]), cfg)
        assert part.sizes == (1, 1)

    def test_random_instances_cover_and_ball_property(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            m = int(rng.integers(4, 40))
            points = rng.normal(size=(m, 2))
            dmat = euclidean_dmat(points)
            l_star = int(rng.integers(1, 5))
            g_star = int(rng.integers(1, max(2, m // l_star)))
            cfg = GroupingConfig(l_star=l_star, g_star=g_star)
            part = group_from_distances(dmat, cfg)
            assert_is_partition(part, m)
            assert part.groups[-1].size >= min(g_star, m)
            # every pair within each non-final group sits within one ball
            for g in part.groups[:-1]:
                sub = dmat[np.ix_(g, g)]
                assert sub.max(initial=0.0) <= 2 * part.radius_final + 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(29)
        points = rng.normal(size=(25, 2))
        dmat = euclidean_dmat(points)
        cfg = GroupingConfig(l_star=3, g_star=2)
        a = group_from_distances(dmat, cfg)
        b = group_from_distances(dmat, cfg)
        assert [g.tolist() for g in a.groups] == [g.tolist() for g in b.groups]
        assert a.radius_final == b.radius_final

    def test_restart_budget_exceeded(self):
        # first pass at sigma = max/4 leaves a lone far point, forcing a
        # radius halving; with a zero budget that must surface as an error
        stats = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
        dmat = np.abs(stats[:, None] - stats[None, :])
        with pytest.raises(GroupingDidNotConvergeError) as exc_info:
            group_from_distances(dmat, GroupingConfig(l_star=2, g_star=2, max_restarts=0))
        assert exc_info.value.trace

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_invalid_distance_rejected_before_any_attempt(self, bad, monkeypatch):
        def no_attempt(*args):
            raise AssertionError("an extraction pass ran")

        monkeypatch.setattr(grouping, "_attempt", no_attempt)
        dmat = np.array([[0.0, 1.0, bad], [1.0, 0.0, 2.0], [bad, 2.0, 0.0]])
        with pytest.raises(InvalidConfigError, match="finite and nonnegative"):
            group_from_distances(dmat, GroupingConfig(l_star=2))

    def test_restart_instance_converges_with_budget(self):
        stats = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
        dmat = np.abs(stats[:, None] - stats[None, :])
        part = group_from_distances(dmat, GroupingConfig(l_star=2, g_star=2))
        assert_is_partition(part, 5)
        assert part.iterations > 0
        assert len(part.groups) == 2
        assert part.groups[-1].size >= 2


def reference_group_from_distances(dmat: np.ndarray, cfg: GroupingConfig):
    """Greedy ball extraction that compares each stage's float block
    ``dmat[np.ix_(remaining, remaining)]`` with the radius.

    Returns ("done", groups, radius, restarts) or ("error", trace).
    """
    m = dmat.shape[0]
    delta_star = float(dmat.max(initial=0.0))
    if cfg.l_star == 1 or delta_star == 0.0:
        return "done", [np.arange(m)], 0.0, 0
    sigma = delta_star / (2.0 * cfg.l_star)
    trace = []
    for restarts in range(cfg.max_restarts + 1):
        remaining = np.arange(m)
        groups = []
        for stage in range(1, cfg.l_star + 1):
            sub = dmat[np.ix_(remaining, remaining)] <= sigma
            ball = remaining[sub[int(np.argmax(sub.sum(axis=1)))]]
            groups.append(ball)
            remaining = np.setdiff1d(remaining, ball, assume_unique=True)
            left = remaining.size
            if stage < cfg.l_star:
                if stage == cfg.l_star - 1 and left == cfg.g_star:
                    groups.append(remaining)
                    return "done", groups, sigma, restarts
                if left <= cfg.g_star:
                    outcome = "halve"
                    break
            elif left <= cfg.g_star:
                if left:
                    groups[-1] = np.concatenate([groups[-1], remaining])
                return "done", groups, sigma, restarts
            else:
                outcome = "grow"
        trace.append((sigma, outcome))
        sigma = sigma / 2.0 if outcome == "halve" else sigma * 1.5
    return "error", trace


def assert_matches_reference(dmat: np.ndarray, cfg: GroupingConfig) -> str:
    """Compare ``group_from_distances`` with the reference; return how the
    reference ended: "error", "restarted" or "first pass"."""
    expected = reference_group_from_distances(dmat, cfg)
    if expected[0] == "error":
        with pytest.raises(GroupingDidNotConvergeError) as exc_info:
            group_from_distances(dmat, cfg)
        assert exc_info.value.trace == expected[1]
        return "error"
    _, groups, radius, restarts = expected
    part = group_from_distances(dmat, cfg)
    assert [g.tolist() for g in part.groups] == [np.sort(g).tolist() for g in groups]
    assert part.radius_final == radius
    assert part.iterations == restarts
    return "restarted" if restarts else "first pass"


CLASS_KINDS = ("few-rows", "equal-rows-other-columns", "nonzero-diagonal")


def class_dmat(table: np.ndarray, label: np.ndarray, kind: str) -> np.ndarray:
    """A matrix over copies of a few points: hypothesis i copies point
    ``label[i]``.  ``table`` is k x k, or k x m for "equal-rows-other-columns".
    """
    if kind == "few-rows":  # a symmetric matrix with a zero diagonal
        upper = np.triu(table, 1)
        return (upper + upper.T)[np.ix_(label, label)]
    if kind == "equal-rows-other-columns":
        # not symmetric: copies share their rows, but every column is its own
        return table[label]
    # not symmetric, and a copy is at a nonzero distance from itself
    return table[np.ix_(label, label)]


def random_dmat(rng, m: int, kind) -> np.ndarray:
    if kind == 0:  # scalar statistics with ties
        x = rng.integers(0, 20, m).astype(float)
        return np.abs(x[:, None] - x[None, :])
    if kind == 1:  # planar points
        return euclidean_dmat(rng.random((m, 2)))
    if kind == 2:  # symmetric integer dissimilarities, not necessarily a metric
        upper = np.triu(rng.integers(0, 6, (m, m)).astype(float), 1)
        return upper + upper.T
    k = int(rng.integers(1, max(2, m // 3) + 1))
    label = rng.integers(0, k, m)
    cols = m if kind == "equal-rows-other-columns" else k
    return class_dmat(rng.integers(0, 6, (k, cols)).astype(float), label, kind)


class TestBallMatrixDifferential:
    """The boolean ball matrix per radius gives the groups, radius and
    restart count of the per-stage float comparison."""

    def test_seeded_instances(self):
        seen = set()
        for seed in range(240):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 40))
            l_star, g_star = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            if l_star * g_star > m:
                continue
            dmat = random_dmat(rng, m, seed % 3)
            for max_restarts in (0, 2, 64):
                cfg = GroupingConfig(l_star, g_star, max_restarts)
                seen.add(assert_matches_reference(dmat, cfg))
        # the instances reach every exit of the extraction loop
        assert seen == {"error", "restarted", "first pass"}

    def test_restart_instances(self):
        stats = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
        dmat = np.abs(stats[:, None] - stats[None, :])
        assert assert_matches_reference(dmat, GroupingConfig(2, 2)) == "restarted"
        assert assert_matches_reference(dmat, GroupingConfig(2, 2, 0)) == "error"

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 14).flatmap(lambda m: st.lists(
            st.integers(0, 5), min_size=m * m, max_size=m * m)),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 6),
    )
    def test_hypothesis_instances(self, values, l_star, g_star, max_restarts):
        m = int(round(len(values) ** 0.5))
        assume(l_star * g_star <= m)
        upper = np.triu(np.array(values, dtype=float).reshape(m, m), 1)
        assert_matches_reference(upper + upper.T, GroupingConfig(l_star, g_star, max_restarts))

    @pytest.mark.parametrize("kind", CLASS_KINDS)
    def test_class_instances(self, kind):
        # copies of a point form one class; the balls are extracted over the
        # classes and must match the extraction over every point
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng([CLASS_KINDS.index(kind), seed])
            m = int(rng.integers(2, 60))
            l_star, g_star = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            if l_star * g_star > m:
                continue
            dmat = random_dmat(rng, m, kind)
            for max_restarts in (0, 2, 64):
                cfg = GroupingConfig(l_star, g_star, max_restarts)
                seen.add(assert_matches_reference(dmat, cfg))
        assert seen == {"error", "restarted", "first pass"}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hypothesis_class_instances(self, data):
        kind = data.draw(st.sampled_from(CLASS_KINDS))
        k = data.draw(st.integers(1, 5))
        label = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=16)))
        cols = label.size if kind == "equal-rows-other-columns" else k
        values = data.draw(st.lists(st.integers(0, 5), min_size=k * cols, max_size=k * cols))
        table = np.array(values, dtype=float).reshape(k, cols)
        l_star, g_star = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        assume(l_star * g_star <= label.size)
        cfg = GroupingConfig(l_star, g_star, data.draw(st.integers(0, 6)))
        assert_matches_reference(class_dmat(table, label, kind), cfg)

    def test_rows_standing_for_their_copies_seeded(self):
        # a symmetric zero-diagonal matrix over k points, each row standing
        # for its copies among the hypotheses
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng([7, seed])
            label = by_first_copy(rng.integers(0, int(rng.integers(1, 8)),
                                               int(rng.integers(2, 40))))
            k = int(label.max()) + 1
            upper = np.triu(rng.integers(0, 6, (k, k)).astype(float), 1)
            l_star, g_star = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            if l_star * g_star > label.size:
                continue
            for max_restarts in (0, 2, 64):
                cfg = GroupingConfig(l_star, g_star, max_restarts)
                seen.add(assert_sizes_match_dense(upper + upper.T, label, cfg))
        assert seen == {"error", "restarted", "first pass"}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_standing_for_their_copies_hypothesis(self, data):
        k = data.draw(st.integers(1, 5))
        label = by_first_copy(np.array(data.draw(
            st.lists(st.integers(0, k - 1), min_size=2, max_size=16))))
        k = int(label.max()) + 1
        values = data.draw(st.lists(st.integers(0, 5), min_size=k * k, max_size=k * k))
        upper = np.triu(np.array(values, dtype=float).reshape(k, k), 1)
        l_star, g_star = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        assume(l_star * g_star <= label.size)
        cfg = GroupingConfig(l_star, g_star, data.draw(st.integers(0, 6)))
        assert_sizes_match_dense(upper + upper.T, label, cfg)

    @pytest.mark.parametrize("sizes", [
        [1, 1], [1, 1, 1, 1], [[1, 1, 1]], [1, 0, 2], [1, -1, 1], [1, 1.5, 1],
        [1, np.nan, 1], [1, np.inf, 1], [1, 2.0**64, 1], "abc", [1, "x", 1],
    ])
    def test_malformed_sizes_refused(self, sizes):
        dmat = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 3.0], [4.0, 3.0, 0.0]])
        with pytest.raises(InvalidConfigError, match="sizes must"):
            group_from_distances(dmat, GroupingConfig(l_star=2), sizes=sizes)

    def test_group_sizes_checked_in_hypotheses(self):
        # two rows of three hypotheses each: six, too few for four groups of two
        dmat = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidConfigError, match="l_star \\* g_star = 8 exceeds m = 6"):
            group_from_distances(dmat, GroupingConfig(l_star=4, g_star=2), sizes=[3, 3])

    @pytest.mark.parametrize("positions, first_ball", [
        # three classes tie at 3 hypotheses within the radius 2.5: the one
        # at 10 (sizes 3), the one at 0 (2, plus 1 at distance 1) and the
        # one at 1; the class with the lowest first index wins
        ([10, 0, 10, 0, 1, 10], [0, 2, 5]),
        ([0, 10, 10, 0, 1, 10], [0, 3, 4]),
        ([1, 10, 0, 10, 0, 10], [0, 2, 4]),
    ])
    def test_centre_tie_goes_to_lowest_first_index(self, positions, first_ball):
        x = np.array(positions, dtype=float)
        dmat = np.abs(x[:, None] - x[None, :])
        cfg = GroupingConfig(l_star=2)
        assert assert_matches_reference(dmat, cfg) == "first pass"
        part = group_from_distances(dmat, cfg)
        assert part.radius_final == 2.5
        assert part.groups[0].tolist() == first_ball


def by_first_copy(label: np.ndarray) -> np.ndarray:
    """``label`` renumbered 0, 1, ... in order of each point's first copy."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def assert_sizes_match_dense(dk: np.ndarray, label: np.ndarray, cfg: GroupingConfig) -> str:
    """Extraction over the rows of ``dk``, row j standing for the copies
    ``label == j``, against the reference and the dense extraction over the
    copies: groups, radius, restarts, or the trace of the failure."""
    dmat = dk[np.ix_(label, label)]
    sizes = np.bincount(label)
    expected = reference_group_from_distances(dmat, cfg)
    if expected[0] == "error":
        for matrix, sized in ((dmat, {}), (dk, {"sizes": sizes})):
            with pytest.raises(GroupingDidNotConvergeError) as exc_info:
                group_from_distances(matrix, cfg, **sized)
            assert exc_info.value.trace == expected[1]
        return "error"
    _, groups, radius, restarts = expected
    dense = group_from_distances(dmat, cfg)
    part = group_from_distances(dk, cfg, sizes=sizes)
    expanded = [np.flatnonzero(np.isin(label, g)).tolist() for g in part.groups]
    assert expanded == [g.tolist() for g in dense.groups] == [
        np.sort(g).tolist() for g in groups]
    assert part.radius_final == dense.radius_final == radius
    assert part.iterations == dense.iterations == restarts
    return "restarted" if restarts else "first pass"


def reference_classes(keys: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Each key's class, numbered by first occurrence in a dict of the keys
    as Python values (a row as a tuple), and each class's members."""
    number: dict = {}
    labels: list[int] = []
    members: list[list[int]] = []
    for i, key in enumerate(keys.tolist()):
        c = number.setdefault(tuple(key) if isinstance(key, list) else key, len(number))
        if c == len(members):
            members.append([])
        members[c].append(i)
        labels.append(c)
    return labels, members


def assert_classes_match_reference(keys: np.ndarray):
    labels, k = grouping._classes(keys)
    expected, members = reference_classes(keys)
    assert labels.tolist() == expected and k == len(members)
    order, bounds = grouping._members(labels, k)
    assert bounds[0] == 0 and bounds[-1] == len(keys)
    assert [order[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])] == members


BIG = 2**53  # float64 holds no odd integer above it


class TestClassHelpers:
    """``_classes`` and ``_members`` against a dict of the keys."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-4, 4), max_size=40))
    def test_ints(self, keys):
        assert_classes_match_reference(np.array(keys, dtype=np.int64))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=40))
    def test_rows(self, rows):
        assert_classes_match_reference(np.array(rows, dtype=np.int64).reshape(-1, 3))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_floats_and_float_rows(self, data):
        # 0.0 and -0.0 are one key, and so are BIG and BIG + 1 as floats
        values = st.sampled_from([0.0, -0.0, 1.5, float(BIG), float(BIG + 1), float(BIG + 2)])
        keys = np.array(data.draw(st.lists(values, max_size=30)))
        assert_classes_match_reference(keys)
        rows = np.array(data.draw(st.lists(st.tuples(values, values, values), max_size=30)))
        assert_classes_match_reference(rows.reshape(-1, 3))

    def test_ints_above_2_53_stay_apart_and_their_floats_merge(self):
        keys = np.array([BIG + 1, BIG, BIG + 1, BIG + 2, BIG], dtype=np.int64)
        assert grouping._classes(keys)[0].tolist() == [0, 1, 0, 2, 1]
        assert grouping._classes(keys.astype(float))[0].tolist() == [0, 0, 0, 1, 0]
        assert grouping._classes(np.array([[0.0, 1.0, BIG], [-0.0, 1.0, BIG + 1]]))[1] == 1
        for array in (keys, keys.astype(float), np.column_stack([keys, keys, -keys])):
            assert_classes_match_reference(array)

    def test_more_labels_than_a_radix_sort_takes(self):
        keys = np.random.default_rng(5).integers(0, 150_000, size=200_000)
        assert grouping._classes(keys)[1] > 2**16  # sorted as uint32, not radix
        assert_classes_match_reference(keys)

    @pytest.mark.parametrize("keys", [np.empty(0, dtype=np.int64), np.empty((0, 3))])
    def test_no_keys(self, keys):
        labels, k = grouping._classes(keys)
        assert labels.size == k == 0
        order, bounds = grouping._members(labels, k)
        assert order.size == 0 and bounds.tolist() == [0]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.lists(st.integers(0, 299), max_size=40))
    def test_members_of_labels_left_empty(self, k, labels):
        # quantile grouping's bins: any labels below k, some of them unused
        labels = np.array([label % k for label in labels], dtype=np.intp)
        order, bounds = grouping._members(labels, k)
        assert [order[bounds[c]:bounds[c + 1]].tolist() for c in range(k)] == [
            np.flatnonzero(labels == c).tolist() for c in range(k)]


class TestGroupingMemory:
    """No temporary of metric grouping comes near its distance matrix."""

    @pytest.mark.parametrize("distinct, bound", [(61, 0.5e6), (1499, 4.5e6), (1500, 4.5e6)])
    def test_peak_beyond_input(self, distinct, bound, monkeypatch):
        rng = np.random.default_rng(61)
        values = rng.permutation(np.resize(rng.random(distinct) * 100.0, 1500))
        assert np.unique(values).size == distinct
        dmat = np.abs(values[:, None] - values[None, :])
        # the matrix of the distance calls, built before the measurement
        monkeypatch.setattr(wfdr, "pairwise_distances", lambda stats, distance: dmat)
        stats, cfg = values.tolist(), WfdrConfig(l_star=3, grouping="metric")
        expected = group_from_distances(dmat, GroupingConfig(l_star=3))
        tracemalloc.start()
        try:
            part = wfdr._metric_partition(stats, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert [g.tolist() for g in part.groups] == [g.tolist() for g in expected.groups]


class TestPairwiseDeltaMatrix:
    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(41)
        cdfs = []
        for _ in range(12):
            k = int(rng.integers(1, 6))
            points = np.sort(rng.choice(np.arange(1, 17), size=k, replace=False)) / 16
            w = rng.random(k) + 0.1
            cdfs.append(DiscreteCDF(points, w / w.sum()))
        cdfs.append(cdfs[3])
        expected = np.zeros((len(cdfs), len(cdfs)))
        for i, f in enumerate(cdfs):
            for j, g in enumerate(cdfs):
                if i < j:
                    expected[i, j] = expected[j, i] = delta(f, g).total
        assert np.array_equal(pairwise_delta_matrix(cdfs), expected)

    @pytest.mark.parametrize("call", [
        pairwise_delta_matrix, lambda c: group_by_metric(c, GroupingConfig(l_star=2)),
    ], ids=["pairwise_delta_matrix", "group_by_metric"])
    def test_non_cdf_item_rejected(self, call):
        cdfs = [binomial_null_distribution(3, TWO), 0.5, binomial_null_distribution(4, TWO)]
        with pytest.raises(InvalidConfigError, match="got float at index 1"):
            call(cdfs)


class TestDistanceSizeLimit:
    """A distance matrix above ``MAX_DISTANCE_BYTES`` is refused before the
    first distance is computed."""

    def test_pairwise_distances(self, monkeypatch):
        monkeypatch.setattr(grouping, "MAX_DISTANCE_BYTES", 8 * 3 * 3)
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return float(abs(a - b))

        assert grouping.pairwise_distances(range(3), distance).shape == (3, 3)
        assert len(calls) == 3
        with pytest.raises(InvalidConfigError, match=r"m = 4 .* 128 bytes"):
            grouping.pairwise_distances(range(4), distance)
        assert len(calls) == 3

    def test_pairwise_delta_matrix(self, monkeypatch):
        def no_delta(*args, **kwargs):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(grouping, "MAX_DISTANCE_BYTES", 8 * 3 * 3)
        monkeypatch.setattr(grouping, "delta", no_delta)
        cdfs = [binomial_null_distribution(4, TWO)] * 4
        with pytest.raises(InvalidConfigError, match=r"m = 4 .* 128 bytes"):
            group_by_metric(cdfs, GroupingConfig(l_star=2))

    def test_default_limit(self):
        assert grouping.MAX_DISTANCE_BYTES == 1 << 30
        with pytest.raises(InvalidConfigError, match=r"m = 11586 .* 1073883168 bytes"):
            grouping.pairwise_distances(range(11_586), None)


def mask_loop_quantile_groups(stats, l_star: int) -> list[np.ndarray]:
    """Reference binning: one boolean-mask pass per bin, the last closed."""
    stats = np.asarray(stats, dtype=float)
    qs = np.percentile(stats, 100.0 * np.arange(l_star + 1) / l_star)
    groups = []
    for j in range(1, l_star + 1):
        upper = stats <= qs[j] if j == l_star else stats < qs[j]
        idx = np.flatnonzero((stats >= qs[j - 1]) & upper)
        if idx.size:
            groups.append(idx)
    return groups


class TestQuantileGrouping:
    def test_median_split(self):
        part = group_by_statistic_quantiles(np.arange(1, 11), 2)
        assert [g.tolist() for g in part.groups] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_l_star_one(self):
        part = group_by_statistic_quantiles([3.0, 1.0, 2.0], 1)
        assert len(part.groups) == 1
        assert_is_partition(part, 3)

    def test_all_equal_stats(self):
        part = group_by_statistic_quantiles([4.0] * 7, 3)
        assert len(part.groups) == 1
        assert_is_partition(part, 7)

    @pytest.mark.parametrize("l_star", [0, 2.5, np.nan])
    def test_group_count_validation(self, l_star):
        # checked before np.percentile, whose ValueError for a fractional
        # count is not a DiscreteFdrError
        with pytest.raises(InvalidConfigError, match="l_star must be an integer"):
            group_by_statistic_quantiles([1.0, 2.0, 3.0], l_star)

    def test_random_instances_cover(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(1, 60))
            stats = rng.integers(0, 12, size=m).astype(float)
            l_star = int(rng.integers(1, 7))
            part = group_by_statistic_quantiles(stats, l_star)
            assert_is_partition(part, m)
            # groups ordered by statistic: max of one group < min of the next
            maxima = [stats[g].max() for g in part.groups]
            minima = [stats[g].min() for g in part.groups]
            assert all(a < b for a, b in zip(maxima, minima[1:]))

    def test_more_groups_than_uint8_labels_hold(self):
        rng = np.random.default_rng(37)
        for m in (5, 400, 2_000):
            stats = rng.integers(0, 3 * m, size=m).astype(float)
            got = group_by_statistic_quantiles(stats, 300).groups
            expected = mask_loop_quantile_groups(stats, 300)
            assert [g.tolist() for g in got] == [g.tolist() for g in expected]

    def test_group_count_limit(self):
        limit = grouping.MAX_QUANTILE_GROUPS
        assert limit == 1 << 16
        # more groups than statistics are allowed up to the limit
        assert_is_partition(group_by_statistic_quantiles([3.0, 1.0, 2.0], limit), 3)
        with pytest.raises(InvalidConfigError,
                           match=rf"l_star must be at most max\(m, {limit}\), got {limit + 1}"):
            group_by_statistic_quantiles([3.0, 1.0, 2.0], limit + 1)

    def test_more_groups_than_uint16_labels_hold(self):
        # up to m groups are allowed beyond the limit; distinct statistics
        # 0..m-1 at l* = m fall one to a group, in the order of their values
        m = grouping.MAX_QUANTILE_GROUPS + 4_464
        stats = np.random.default_rng(41).permutation(m)
        groups = group_by_statistic_quantiles(stats.astype(float), m).groups
        assert [g.tolist() for g in groups] == [[i] for i in np.argsort(stats)]
        assert len(group_by_statistic_quantiles(stats.astype(float), m - 5).groups) == m - 5
        with pytest.raises(InvalidConfigError, match=rf"at most max\(m, {1 << 16}\)"):
            group_by_statistic_quantiles(stats.astype(float), m + 1)

    @pytest.mark.parametrize("kind", ["integer_ties", "heavy_tailed"])
    def test_matches_mask_loop(self, kind):
        rng = np.random.default_rng(97 if kind == "integer_ties" else 98)
        for _ in range(1500):
            m = int(rng.integers(1, 81))
            l_star = int(rng.integers(1, 12))
            if kind == "integer_ties":
                stats = rng.integers(0, rng.integers(1, 15), size=m).astype(float)
            else:
                stats = rng.standard_cauchy(m) * 10.0 ** rng.integers(-3, 6)
            got = group_by_statistic_quantiles(stats, l_star).groups
            expected = mask_loop_quantile_groups(stats, l_star)
            assert [g.tolist() for g in got] == [g.tolist() for g in expected]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_rejected(self, bad):
        with pytest.raises(InvalidConfigError, match="finite"):
            group_by_statistic_quantiles([1.0, bad, 3.0, 4.0], 2)

    @pytest.mark.parametrize("margins, column", [
        # a varying table total decides, whatever the row totals do
        ([(30, 10, 5), (20, 20, 9), (10, 30, 1)], 2),
        # a constant table total: the first row total decides
        ([(30, 10, 5), (20, 20, 5), (10, 30, 5)], 0),
        # constant table and first row totals: the second row total decides;
        # the null supports start at 1.8e-3, 1.2e-4 and 5.7e-6
        ([(10, 20, 5), (10, 40, 5), (10, 80, 5)], 1),
        # nothing varies: one null distribution, one group
        ([(10, 20, 5)] * 3, 0),
    ])
    def test_margins_bin_on_first_varying_of_m_obs_n1_n2(self, margins, column):
        stats = [MarginalVector(*row) for row in margins]
        values = [row[column] for row in margins]
        for l_star in (1, 2, 3):
            got = group_by_statistic_quantiles(stats, l_star).groups
            expected = group_by_statistic_quantiles(values, l_star).groups
            assert [g.tolist() for g in got] == [g.tolist() for g in expected]

    def test_matches_metric_grouping_on_separated_clusters(self):
        # statistics in tight, well-separated clusters: percentile binning
        # and greedy metric balls on the scalar distance agree as set
        # partitions
        stats = np.array([10.0, 11.0, 12.0, 40.0, 41.0, 42.0, 80.0, 81.0, 82.0])
        quantile = group_by_statistic_quantiles(stats, 3)
        dmat = np.abs(stats[:, None] - stats[None, :])
        metric = group_from_distances(dmat, GroupingConfig(l_star=3, g_star=3))
        as_sets = lambda p: {frozenset(g.tolist()) for g in p.groups}
        assert as_sets(quantile) == as_sets(metric)

    def test_matches_cdf_metric_grouping_for_fet_with_common_row_totals(self):
        # Fisher's-exact-test null CDFs with fixed row totals are decided by
        # the table total.  Distinct totals give CDFs with essentially
        # disjoint supports, so the CDF metric separates statistic groups
        # cleanly when the statistics coincide within each group (zero
        # within-group spread, boundaries arbitrarily wider).
        from discrete_fdr import fet_null_distribution

        totals = [5, 5, 5, 40, 40, 40, 90, 90, 90]
        cdfs = [
            fet_null_distribution(MarginalVector(50, 50, t), TWO) for t in totals
        ]
        metric = group_by_metric(cdfs, GroupingConfig(l_star=3, g_star=3))
        quantile = group_by_statistic_quantiles(np.array(totals, dtype=float), 3)
        as_sets = lambda p: {frozenset(g.tolist()) for g in p.groups}
        assert as_sets(metric) == as_sets(quantile)


class TestPartitionType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition((np.array([0, 1]), np.array([1, 2])))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition((np.array([0]), np.array([2])))

    COVER = re.escape("groups must form a disjoint cover of 0..m-1")

    @pytest.mark.parametrize("groups, message", [
        (([0, 1], [1, 2]), COVER),
        (([0], [2]), COVER),
        (([0, 1], [5]), COVER),
        (([0, 2**62], [1]), COVER),
        # 2^63 passes the integer check and casts to a negative index
        (([0, 2**63], [1]), COVER),
        (([0, -1], [1]),
         r"group must be nonnegative integers; got (np\.float64\()?-1\.0\)? at index 1"),
        (([0], []), "every group must be nonempty"),
    ], ids=["overlap", "gap", "index-at-least-m", "index-far-beyond-m",
            "index-2^63", "negative", "empty"])
    def test_refusal_messages(self, groups, message):
        with pytest.raises(InvalidConfigError) as info:
            Partition(tuple(np.array(g) for g in groups))
        assert re.fullmatch(message, str(info.value))

    def test_matches_sorted_cover_check(self):
        # the cover check made by sorting every index, against bincount
        def sorted_cover(groups):
            groups = [np.sort(check_array("group", g, "be nonnegative integers")
                              .astype(np.intp)) for g in groups]
            if not groups or any(g.size == 0 for g in groups):
                raise InvalidConfigError("every group must be nonempty")
            merged = np.concatenate(groups)
            if not np.array_equal(np.sort(merged), np.arange(merged.size)):
                raise InvalidConfigError("groups must form a disjoint cover of 0..m-1")
            return [g.tolist() for g in groups]

        def outcome(call):
            try:
                return call()
            except InvalidConfigError as exc:
                return str(exc)

        rng = np.random.default_rng(43)
        accepted = 0
        for _ in range(2_000):
            m = int(rng.integers(1, 10))
            indices = rng.permutation(m)
            if rng.random() < 0.6:  # move, duplicate or drop one index
                i = int(rng.integers(m))
                indices[i] = rng.integers(-1, m + 2)
                if rng.random() < 0.3:
                    indices = indices[:-1] if m > 1 else indices
            cuts = np.sort(rng.choice(np.arange(1, m + 1), size=min(m, 2), replace=False))
            groups = [g for g in np.split(indices, cuts) if g.size or rng.random() < 0.2]
            expected = outcome(lambda: sorted_cover(groups))
            got = outcome(lambda: [g.tolist() for g in Partition(tuple(groups)).groups])
            assert got == expected
            accepted += isinstance(got, list)
        assert 300 < accepted < 1_700

    def test_group_of(self):
        part = Partition((np.array([2, 0]), np.array([1, 3])))
        assert part.group_of().tolist() == [0, 1, 0, 1]
        assert part.sizes == (2, 2)
        assert part.m == 4


class TestMixedStatisticKinds:
    @pytest.mark.parametrize(
        "stats",
        [[1.0, MarginalVector(1, 2, 3)], [MarginalVector(1, 2, 3), 1.0]],
        ids=["scalar-first", "margins-first"],
    )
    def test_mixed_kinds_rejected(self, stats):
        with pytest.raises(InvalidConfigError, match="all real scalars or all"):
            group_by_statistic_quantiles(stats, 2)
