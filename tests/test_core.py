"""Batch labeling subroutine: sorting, grouping, search, and batch sizes."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import bdtrc
from scipy.stats import binom, chi2

from adgac.core import (RankedGroups, RoundPlan, adgac, batch_size, group_binary_search,
                        noisy_quicksort)
from adgac.oracles import (ComparisonNoiseSpec, LabelNoiseSpec, Oracle, QueryCounters,
                           Ranking, bayes_label, calibrate_band, gaussian_scenario,
                           score, uniform_scenario)
from references import compare_reference


def perfect_ranking(items):
    """The perfect comparison oracle's ranking of items by their own values:
    the scores of a uniform world at threshold 0."""
    return Oracle(uniform_scenario(0.0)).ranking(items)


def all_tied(items):
    """A ranking in which every pair ties, so each answer ranks whichever
    item was asked first higher, in both orientations."""
    return Ranking(np.arange(len(items)), np.zeros(len(items), dtype=np.intp),
                   lambda pairs: None)


def spans(groups):
    return [groups.span(gi) for gi in range(groups.n_groups)]


def labels_of(label):
    """Lift a scalar labeler to the batch label API, one instance at a time."""
    return lambda xs: np.array([label(x) for x in xs], dtype=int)


def level_reference(items, compare, rng, group=1):
    """Reference sort in plain Python: the same draws per level as
    noisy_quicksort, then one compare(items[a], items[b]) call per pair and
    list partitions.  A segment whose first and last ranks share a group of
    `group` ranks, the last group taking the remainder, is left as it is."""
    order = list(range(len(items)))
    last_group = max(1, len(items) // group) - 1
    comparisons = 0
    segments = [(0, len(items))]
    while True:
        segments = [(start, size) for start, size in segments if size > 1
                    and min(start // group, last_group)
                    != min((start + size - 1) // group, last_group)]
        if not segments:
            return np.array(order, dtype=int), comparisons
        offsets = rng.integers(0, [size for _, size in segments])
        coins = iter(rng.random(sum(size - 1 for _, size in segments)) < 0.5)
        next_segments = []
        for (start, size), offset in zip(segments, offsets):
            rest = order[start:start + size]
            pivot = rest.pop(offset)
            lower, upper = [], []
            for i in rest:
                if next(coins):
                    below = compare(items[i], items[pivot]) == -1
                else:
                    below = compare(items[pivot], items[i]) == 1
                comparisons += 1
                (lower if below else upper).append(i)
            order[start:start + size] = lower + [pivot] + upper
            next_segments += [(start, len(lower)), (start + len(lower) + 1, len(upper))]
        segments = next_segments


class TestNoisyQuicksort:
    def test_singleton(self):
        items = np.array([3.0])
        order, comps = noisy_quicksort(items, perfect_ranking, np.random.default_rng(0), 1)
        assert list(order) == [0] and comps == 0

    def test_perfect_comparator_sorts(self):
        items = np.array([0.3, 0.1, 0.2])
        for seed in range(20):
            order, _ = noisy_quicksort(items, perfect_ranking,
                                       np.random.default_rng(seed), 1)
            np.testing.assert_allclose(items[order], [0.1, 0.2, 0.3])

    def test_output_is_permutation(self):
        rng = np.random.default_rng(1)
        items = rng.random(200)
        order, comps = noisy_quicksort(items, perfect_ranking, rng, 1)
        assert sorted(order) == list(range(200))
        assert comps > 0

    def test_mean_comparisons_within_classic_bound(self):
        m = 128
        rng = np.random.default_rng(2)
        items = rng.random(m)
        counts = []
        for seed in range(200):
            _, comps = noisy_quicksort(items, perfect_ranking,
                                       np.random.default_rng(seed), 1)
            counts.append(comps)
        assert np.mean(counts) <= 2.0 * m * math.log(m)

    @pytest.mark.parametrize("m,trials", [(10, 800), (300, 300), (3000, 50)])
    def test_mean_comparisons_match_quicksort(self, m, trials):
        # a uniform pivot makes 2 (m + 1) H_m - 4 m comparisons in expectation;
        # the input is sorted, and the partition keeps each segment sorted, so
        # a pivot's position is its rank and a biased position moves the mean
        items = np.arange(m, dtype=float)
        rng = np.random.default_rng(2026)
        counts = np.array([noisy_quicksort(items, perfect_ranking, rng, 1)[1]
                           for _ in range(trials)], dtype=float)
        expected = 2.0 * (m + 1) * sum(1.0 / j for j in range(1, m + 1)) - 4.0 * m
        z = (counts.mean() - expected) / (counts.std(ddof=1) / math.sqrt(trials))
        assert abs(z) <= 4.0, (counts.mean(), expected, z)

    def test_argument_order_randomized(self):
        # a tie answers +1 in both orientations: the effective orientation
        # of the pair must be a fair coin across seeds
        items = np.array([0.0, 1.0])
        wins_first = 0
        trials = 400
        for seed in range(trials):
            order, _ = noisy_quicksort(items, all_tied, np.random.default_rng(seed), 1)
            wins_first += order[0] == 0
        assert abs(wins_first / trials - 0.5) < 0.1

    @pytest.mark.parametrize("world", [
        "uniform", "uniform-band", "uniform-duplicates", "gaussian-d20-band",
        "gaussian-d20-duplicates"])
    def test_matches_level_reference(self, world):
        # the numpy level passes must be the plain-Python reference, asking
        # the reference comparator about the scores: same permutation, same
        # comparison count, and the same rng stream consumed, from a full
        # sort (groups of 1) to no sort at all (one group of 600)
        band = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.02)
        if world.startswith("uniform"):
            spec = uniform_scenario(0.5, comparison_noise=band if "band" in world else None)
        else:
            spec = gaussian_scenario(np.arange(1.0, 21.0), comparison_noise=band)
        rho = calibrate_band(spec, spec.comparison_noise.nu_prime, "comparison")
        for seed, group in itertools.product(range(5), (1, 7, 50, 600)):
            runs = []
            for batch in (False, True):
                oracle = Oracle(dataclasses.replace(spec, seed=seed))
                xs = oracle.sample(600)
                if "duplicates" in world:
                    # a few distinct values: most pairs tie, so the tie
                    # rule and both orientations decide the permutation
                    xs = xs[oracle.rng.integers(0, 12, size=len(xs))]
                if batch:
                    order, comps = noisy_quicksort(xs, oracle.ranking, oracle.rng, group)
                    counted = oracle.counters.comparisons
                else:
                    asked = []

                    def compare(g_a, g_b):
                        asked.append((g_a, g_b))
                        return compare_reference(g_a, g_b, rho)

                    order, comps = level_reference(score(spec, xs).tolist(), compare,
                                                   oracle.rng, group)
                    counted = len(asked)
                runs.append((order, comps, counted, oracle.rng.random()))
            (order_s, comps_s, counted_s, next_s), (order_b, comps_b, counted_b, next_b) = runs
            np.testing.assert_array_equal(order_b, order_s)
            assert comps_b == comps_s == counted_b == counted_s
            assert next_b == next_s
            if group == 600:
                assert comps_b == 0


# few distinct scores, so most pairs tie and both orientations matter
TIED_SCORES = st.lists(st.integers(-3, 3), max_size=200)
BAND_WORLD = uniform_scenario(0.5, comparison_noise=ComparisonNoiseSpec(
    kind="band-adversarial", nu_prime=0.02))
BAND_RHO = calibrate_band(BAND_WORLD, 0.02, "comparison")


class TestSortProperties:
    @settings(max_examples=100, deadline=None)
    @given(scores=TIED_SCORES, seed=st.integers(0, 2**32 - 1))
    def test_permutation_and_exact_count(self, scores, seed):
        # every score inside the flip band, so the comparator is
        # inconsistent across the boundary
        oracle = Oracle(dataclasses.replace(BAND_WORLD, seed=seed))
        xs = 0.5 + np.array(scores, dtype=float) * BAND_RHO / 4
        m = len(xs)
        order, comps = noisy_quicksort(xs, oracle.ranking, oracle.rng, 1)
        assert sorted(order.tolist()) == list(range(m))
        assert comps == oracle.counters.comparisons <= m * (m - 1) // 2

    @settings(max_examples=100, deadline=None)
    @given(scores=TIED_SCORES, seed=st.integers(0, 2**32 - 1), group=st.integers(1, 30))
    def test_tied_band_scores_match_level_reference(self, scores, seed, group):
        # ties inside the flip band, where the ranking's tie classes sit in
        # its swapped runs: the sort reads the same coins as the pairwise
        # reference, so permutation, count and rng stream agree
        xs = 0.5 + np.array(scores, dtype=float) * BAND_RHO / 4
        runs = []
        for ranked in (True, False):
            oracle = Oracle(dataclasses.replace(BAND_WORLD, seed=seed))
            if ranked:
                order, comps = noisy_quicksort(xs, oracle.ranking, oracle.rng, group)
            else:
                order, comps = level_reference(
                    score(BAND_WORLD, xs).tolist(),
                    lambda g_a, g_b: compare_reference(g_a, g_b, BAND_RHO), oracle.rng, group)
            runs.append((order.tolist(), comps, oracle.rng.random()))
        assert runs[0] == runs[1]

    @settings(max_examples=100, deadline=None)
    @given(scores=TIED_SCORES, seed=st.integers(0, 2**32 - 1))
    def test_perfect_comparator_sorts_ties(self, scores, seed):
        oracle = Oracle(uniform_scenario(0.5, seed=seed))
        xs = np.array(scores, dtype=float)
        order, _ = noisy_quicksort(xs, oracle.ranking, oracle.rng, 1)
        assert np.all(np.diff(xs[order]) >= 0)


def partial_sort_mean(m, group):
    """Exact mean comparison count of noisy_quicksort(..., group) on m distinct
    items under a perfect comparator: E(a, b) = (b - a - 1) + (1 / (b - a))
    sum_p [E(a, p) + E(p + 1, b)] over the pivot's rank p in [a, b), and E = 0
    once ranks a and b - 1 share a group.  Filled by segment length, with the
    two sums kept as running row and column sums, in O(m^2)."""
    in_group = np.minimum(np.arange(m) // group, max(1, m // group) - 1)
    e, row, col = (np.zeros((m + 1, m + 1)) for _ in range(3))
    for size in range(1, m + 1):
        a = np.arange(m - size + 1)
        b = a + size
        row[a, b] = row[a, b - 1] + e[a, b - 1]     # sum_p E(a, p)
        col[a, b] = col[a + 1, b] + e[a + 1, b]     # sum_p E(p + 1, b)
        e[a, b] = np.where(in_group[a] < in_group[b - 1],
                           size - 1 + (row[a, b] + col[a, b]) / size, 0.0)
    return e[0, m]


class TestPartialSort:
    """noisy_quicksort(..., group) ranks only down to RankedGroups' groups."""

    def test_exact_mean_at_groups_of_one_is_quicksort(self):
        m = 300
        full = 2.0 * (m + 1) * sum(1.0 / j for j in range(1, m + 1)) - 4.0 * m
        assert partial_sort_mean(m, 1) == pytest.approx(full, rel=1e-12)
        assert full == pytest.approx(2582.16, abs=0.01)
        assert partial_sort_mean(m, m) == 0.0

    @pytest.mark.parametrize("m,group,trials", [(300, 15, 300), (300, 40, 300), (60, 7, 800)])
    def test_mean_comparisons_match_partial_sort(self, m, group, trials):
        # as test_mean_comparisons_match_quicksort, against the segment
        # recursion; 300 // 40 and 60 // 7 leave a remainder in the last group
        items = np.arange(m, dtype=float)
        rng = np.random.default_rng(2026)
        counts = np.array([noisy_quicksort(items, perfect_ranking, rng, group)[1]
                           for _ in range(trials)], dtype=float)
        expected = partial_sort_mean(m, group)
        z = (counts.mean() - expected) / (counts.std(ddof=1) / math.sqrt(trials))
        assert abs(z) <= 4.0, (counts.mean(), expected, z)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.integers(0, 400), size=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_no_unsplit_segment_crosses_a_group(self, m, size, seed):
        # descending input under a perfect comparator: the partition is
        # stable, so a segment left unsplit keeps its items descending, and
        # one crossing a span boundary would put its largest item, at its
        # first rank, in an earlier group than its true rank's
        items = np.arange(m, dtype=float)[::-1]
        order, _ = noisy_quicksort(items, perfect_ranking, np.random.default_rng(seed), size)
        groups = RankedGroups(order, size)
        true_rank = m - 1 - order
        for gi in range(groups.n_groups):
            start, end = groups.span(gi)
            assert sorted(true_rank[start:end]) == list(range(start, end))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scores=TIED_SCORES, size=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_groups_hold_the_full_sorts_scores(self, scores, size, seed):
        xs = np.array(scores, dtype=float)
        ranked = []
        for group in (1, size):
            oracle = Oracle(uniform_scenario(0.5, seed=seed))
            order, _ = noisy_quicksort(xs, oracle.ranking, oracle.rng, group)
            ranked.append(RankedGroups(order, size))
        full, partial = ranked
        for gi in range(full.n_groups):
            start, end = full.span(gi)
            assert (sorted(xs[partial.order[start:end]])
                    == sorted(xs[full.order[start:end]]))


class TestPartitionGroups:
    """adgac groups its ranking by max(1, round(eps * n)) ranks."""

    def _groups(self, n, m, eps):
        oracle = Oracle(uniform_scenario(0.5, seed=0))
        return adgac(np.random.default_rng(1).random(m), RoundPlan(eps, n, 1), oracle).groups

    def test_exact_division(self):
        groups = self._groups(1000, 100, 0.01)
        assert groups.n_groups == 10
        assert all(e - s == 10 for s, e in spans(groups))

    def test_remainder_merged_into_last(self):
        groups = self._groups(1030, 103, 0.01)
        sizes = [e - s for s, e in spans(groups)]
        assert sizes == [10] * 9 + [13]

    def test_floor_at_one(self):
        # nominal group size 0.4 floors to single-point groups
        groups = self._groups(8, 5, 0.05)
        assert groups.n_groups == 5
        assert all(e - s == 1 for s, e in spans(groups))

    @pytest.mark.parametrize("n, m, eps, size", [(736, 43, 2.0 ** -6, 12),
                                                 (168, 19, 2.0 ** -4, 10)])
    def test_size_rounds_eps_n_half_to_even(self, n, m, eps, size):
        # eps * n = 11.5 and 10.5 exactly; (eps * n / m) * m rounded to 11 in both
        assert self._groups(n, m, eps).size == size

    def test_empty_ranking_has_no_groups(self):
        groups = self._groups(4, 0, 0.1)
        assert groups.n_groups == 0 and spans(groups) == []
        assert RankedGroups(order=np.arange(0), size=7).n_groups == 0

    def test_ranking_shorter_than_one_group(self):
        groups = RankedGroups(order=np.arange(5), size=8)
        assert groups.n_groups == 1
        assert spans(groups) == [(0, 5)]


class TestGroupBinarySearch:
    def _groups(self, values, group_size):
        return RankedGroups(order=np.argsort(values), size=group_size)

    def test_all_negative_lands_on_last_group_with_its_own_vote(self):
        values = np.linspace(0.0, 1.0, 64)
        groups = self._groups(values, 8)
        rng = np.random.default_rng(3)
        t, labels, votes, probes = group_binary_search(
            groups, values, labels_of(lambda x: -1), 8, rng)
        assert t == groups.n_groups - 1
        assert votes[t] < 0  # that group's own majority is negative

    def test_boundary_on_group_edge_three_probes(self):
        # 8 groups of 8, first positive group is index 4: the bisection
        # probes groups 3, 5, 4 and stops
        values = np.linspace(0.005, 0.635, 64)
        groups = self._groups(values, 8)
        label = lambda x: 1 if x >= 0.32 else -1
        rng = np.random.default_rng(4)
        t, labels, votes, probes = group_binary_search(groups, values, labels_of(label), 8, rng)
        assert groups.n_groups == 8
        assert t == 4
        assert probes == 3
        assert labels == 24

    def test_majority_failure_rate_matches_binomial_tail(self):
        # one group of 25 identical points whose labels flip at rate 0.3:
        # a wrong (positive) majority needs 13 of 25 flips
        values = np.full(25, 0.2)
        groups = self._groups(values, 25)
        exact_tail = binom.sf(12, 25, 0.3)
        rng = np.random.default_rng(5)
        fails = 0
        trials = 10_000
        for _ in range(trials):
            label = lambda x: 1 if rng.random() < 0.3 else -1
            t, _, votes, _ = group_binary_search(groups, values, labels_of(label), 25, rng)
            fails += votes[t] >= 0
        se = math.sqrt(exact_tail * (1 - exact_tail) / trials)
        assert abs(fails / trials - exact_tail) <= 4 * se


def search_end_law(n_groups, first_positive, take, beta):
    """The exact law of the group a search ends on, over pure groups.

    Groups before first_positive hold negative points, the rest positive
    ones, and each of a probe's take labels is flipped with probability
    beta.  A probe's vote is non-negative when at least ceil(take / 2) of
    its labels are +1, a binomial tail; a search probes each group at most
    once on its path, so law(lo, hi) = p_mid law(lo, mid) + (1 - p_mid)
    law(mid + 1, hi) with mid = (lo + hi) // 2.
    """
    q = np.where(np.arange(n_groups) >= first_positive, 1.0 - beta, beta)
    p = bdtrc(math.ceil(take / 2) - 1, take, q)
    law = np.zeros(n_groups)

    def walk(lo, hi, mass):
        if lo == hi:
            law[lo] += mass
            return
        mid = (lo + hi) // 2
        walk(lo, mid, mass * p[mid])
        walk(mid + 1, hi, mass * (1.0 - p[mid]))

    walk(0, n_groups - 1, 1.0)
    return law


# (groups, group size, k, beta, first positive group): ROADMAP item 2's three
# cases, and groups of 4 at k = 2, where a vote ties with probability 0.42
SEARCH_LAW_CASES = [(40, 1, 1, 0.2, 13), (40, 50, 5, 0.2, 13), (12, 42, 42, 0.3, 5),
                    (32, 4, 2, 0.3, 11)]


@pytest.mark.parametrize("n_groups, size, k, beta, first_positive", SEARCH_LAW_CASES)
def test_search_ends_on_the_exact_law(n_groups, size, k, beta, first_positive):
    # the true order ranks the points, and the boundary lies on a group edge,
    # so every group is pure; 2500 searches on one oracle, against the exact
    # law by a chi-square test over cells whose expected count is at least 5,
    # the rarest cells pooled into one
    m, searches = n_groups * size, 2500
    items = (np.arange(m) + 0.5) / m
    oracle = Oracle(uniform_scenario(first_positive * size / m,
                                     LabelNoiseSpec(kind="massart", beta=beta), seed=2027))
    groups = RankedGroups(order=np.arange(m), size=size)
    max_probes = math.ceil(math.log2(n_groups)) + 1
    probes = [0]

    def label_query(xs):
        probes[0] += 1
        assert probes[0] <= max_probes, "the search probed past its depth"
        return oracle.label_many(xs)

    ends = []
    for _ in range(searches):
        probes[0] = 0
        ends.append(group_binary_search(groups, items, label_query, k, oracle.rng)[0])
    counts = np.bincount(ends, minlength=n_groups)
    expected = searches * search_end_law(n_groups, first_positive, min(k, size), beta)
    rare = np.argsort(expected)
    rare = rare[:np.searchsorted(np.cumsum(expected[rare]), 5.0) + 1]
    kept = np.setdiff1d(np.arange(n_groups), rare)
    observed = np.append(counts[kept], counts[rare].sum())
    expected = np.append(expected[kept], expected[rare].sum())
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, len(observed) - 1) >= 1e-4, (observed, expected)


@settings(max_examples=100, deadline=None)
@example(m=9, eps=0.05, seed=0)      # group size 1
@example(m=103, eps=0.1, seed=1)     # size 10, remainder 3 in the last group
@given(m=st.integers(1, 300), eps=st.floats(0.001, 0.49), seed=st.integers(0, 2**32 - 1))
def test_labels_are_a_step_over_groups(m, eps, seed):
    spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.3))
    oracle = Oracle(dataclasses.replace(spec, seed=seed))
    xs = oracle.sample(m)
    result = adgac(xs, RoundPlan(eps, m, 3), oracle)
    groups = result.groups
    assert groups.size == max(1, round(eps * m))
    assert groups.n_groups == max(1, m // groups.size)
    assert spans(groups)[-1][1] == m
    # one label per group: -1 on every group before some group t, +1 after it
    per_group = []
    for s, e in spans(groups):
        ranked = result.labels[groups.order[s:e]]
        assert np.all(ranked == ranked[0])
        per_group.append(int(ranked[0]))
    assert any(all(v == -1 for v in per_group[:t]) and all(v == 1 for v in per_group[t + 1:])
               for t in range(len(per_group)))


class TestAdgac:
    def test_empty_input(self):
        spec = uniform_scenario()
        oracle = Oracle(dataclasses.replace(spec, seed=6))
        result = adgac(np.empty(0), RoundPlan(0.05, 100, 5), oracle)
        assert len(result.labels) == 0 and result.groups.n_groups == 0
        assert oracle.counters == QueryCounters(0, 0)
        # the record: its plan, and no query, no probe and no end group
        assert result.plan == RoundPlan(0.05, 100, 5)
        assert (result.comparisons, result.label_queries, result.votes,
                result.boundary) == (0, 0, {}, None)

    def test_noiseless_mismatch_bound(self):
        spec = uniform_scenario(0.5)
        hits = 0
        for seed in range(100):
            oracle = Oracle(dataclasses.replace(spec, seed=seed))
            xs = oracle.sample(1000)
            result = adgac(xs, RoundPlan(0.05, 1000, 5), oracle)
            mismatches = int(np.sum(result.labels != bayes_label(spec, xs)))
            hits += mismatches <= 50
            assert oracle.counters.labels <= 5 * math.ceil(math.log2(result.groups.n_groups))
        assert hits >= 99

    def test_band_adversarial_mismatch_bound(self):
        spec = uniform_scenario(
            0.5, LabelNoiseSpec(kind="massart", beta=0.0),
            ComparisonNoiseSpec(kind="band-adversarial", nu_prime=1e-4))
        hits = 0
        for seed in range(100):
            oracle = Oracle(dataclasses.replace(spec, seed=seed))
            xs = oracle.sample(1000)
            result = adgac(xs, RoundPlan(0.05, 1000, 5), oracle)
            mismatches = int(np.sum(result.labels != bayes_label(spec, xs)))
            hits += mismatches <= 50
        assert hits >= 90

    def test_output_is_monotone_step_in_rank(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.3))
        for seed in range(20):
            oracle = Oracle(dataclasses.replace(spec, seed=seed))
            xs = oracle.sample(300)
            result = adgac(xs, RoundPlan(0.1, 300, 7), oracle)
            ranked = result.labels[result.groups.order]
            changes = np.flatnonzero(ranked[1:] != ranked[:-1])
            assert changes.size <= 1
            if changes.size == 1:
                assert ranked[0] == -1 and ranked[-1] == 1

    def test_small_inputs_brute_force_bound(self):
        # perfect oracles, m = n <= 64: zero mismatches when the boundary
        # falls on a group edge, otherwise at most one group's worth
        spec = uniform_scenario(0.5)
        for seed in range(30):
            oracle = Oracle(dataclasses.replace(spec, seed=seed))
            m = int(oracle.rng.integers(8, 65))
            xs = oracle.sample(m)
            eps = 0.125
            result = adgac(xs, RoundPlan(eps, m, 3), oracle)
            mismatches = int(np.sum(result.labels != bayes_label(spec, xs)))
            group_size = max(1, round(eps * m))
            sorted_truth = np.asarray(bayes_label(spec, xs))[np.argsort(xs)]
            n_neg = int(np.sum(sorted_truth == -1))
            if n_neg % group_size == 0:
                assert mismatches == 0
            else:
                assert mismatches <= 2 * group_size - 1  # last group may be larger

    def test_diagnostics_in_test_mode(self):
        spec = uniform_scenario(0.5)
        oracle = Oracle(dataclasses.replace(spec, seed=7))
        xs = oracle.sample(200)
        result = adgac(xs, RoundPlan(0.1, 200, 3), oracle)
        # per group, the majority mu(S_i) and minority fraction q(S_i) of the optimal labels
        truth = np.asarray(bayes_label(spec, xs))
        pos = np.array([np.sum(truth[result.groups.order[s:e]] > 0) for s, e in spans(result.groups)])
        size = np.array([e - s for s, e in spans(result.groups)])
        mu = np.where(2 * pos >= size, 1, -1)
        q = np.minimum(pos, size - pos) / size
        assert np.all((q >= 0) & (q <= 0.5))
        assert set(np.unique(mu)) <= {-1, 1}
        # the majority labels themselves form a monotone step
        changes = np.flatnonzero(mu[1:] != mu[:-1])
        assert changes.size <= 1


# (label noise, comparison noise) pairs, each with a band or a draw per answer
NOISE_PAIRS = {
    "massart-perfect": (LabelNoiseSpec(kind="massart", beta=0.2), ComparisonNoiseSpec()),
    "tsybakov-perfect": (LabelNoiseSpec(kind="tsybakov", kappa=1.5, mu=0.5),
                         ComparisonNoiseSpec()),
    "adversarial-band": (LabelNoiseSpec(kind="adversarial", nu=0.1),
                         ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.01)),
    "massart-band": (LabelNoiseSpec(kind="massart", beta=0.2),
                     ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.01)),
}


@pytest.mark.parametrize("d", [2, 5, 20])
@pytest.mark.parametrize("noise", sorted(NOISE_PAIRS))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(m=st.integers(1, 300), eps=st.floats(0.01, 0.3), k=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_adgac_sees_a_halfspace_only_through_its_score(noise, d, m, eps, k, seed):
    # the oracles answer from g(x) alone, so labeling d-dimensional points is
    # labeling the column of their scores in the 1-D world of the same noise:
    # the same permutation, labels and counts, and the same stream after it
    label_noise, comparison_noise = NOISE_PAIRS[noise]
    world = gaussian_scenario(np.random.default_rng(seed).standard_normal(d),
                              label_noise, comparison_noise)
    high = Oracle(dataclasses.replace(world, seed=seed))
    xs = high.sample(m)
    low = Oracle(gaussian_scenario([1.0], label_noise, comparison_noise))
    low.rng.bit_generator.state = high.rng.bit_generator.state
    plan = RoundPlan(eps, m, k)
    a = adgac(xs, plan, high)
    b = adgac(score(world, xs)[:, None], plan, low)
    np.testing.assert_array_equal(a.groups.order, b.groups.order)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert high.counters == low.counters
    assert high.rng.random() == low.rng.random()


class TestBatchSizeFormulas:
    def test_kappa_one_collapses_to_adversarial_size(self):
        # the bounded-noise size c3 log(log(1/eps) / delta), with no power factor
        adversarial = math.ceil(2.5 * math.log(math.log(1.0 / 0.07) / 0.2))
        assert batch_size(0.07, 0.2, 1.0, 2.5) == adversarial

    def test_power_law_value(self):
        # C3 = 1, eps = 0.1, delta = 0.1, kappa = 1.5:
        # ceil(ln(ln 10 / 0.1) * 10) = ceil(31.366) = 32
        assert batch_size(0.1, 0.1, 1.5, 1.0) == 32

    def test_adversarial_value(self):
        assert batch_size(0.1, 0.1, 1.0, 1.0) == 4

    def test_at_least_one(self):
        assert batch_size(0.4, 0.9, 1.0, 0.01) == 1

    @pytest.mark.parametrize("eps,delta,kappa,c3", [
        (0.0, 0.1, 1.5, 1.0), (0.6, 0.1, 1.5, 1.0), (0.1, 0.0, 1.5, 1.0),
        (0.1, 1.0, 1.5, 1.0), (0.1, 0.1, 0.5, 1.0), (0.1, 0.1, 1.5, 0.0),
    ])
    def test_domain_rejections(self, eps, delta, kappa, c3):
        with pytest.raises(ValueError):
            batch_size(eps, delta, kappa, c3)
