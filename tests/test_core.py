"""Batch labeling subroutine: sorting, grouping, search, and batch sizes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from adgac.core import (AdgacParams, DegenerateGroupingError, RankedGroups, adgac,
                        batch_size, group_binary_search, noisy_quicksort,
                        partition_groups)
from adgac.oracles import (ComparisonNoiseSpec, LabelNoiseSpec, Oracle,
                           bayes_label, calibrate_band, gaussian_scenario,
                           uniform_scenario)


def perfect_comparator(a, b):
    return 1 if a - b >= 0 else -1


def batch_of(items, compare=perfect_comparator):
    """Lift a scalar comparator to the batch pivot API, one pair at a time."""
    def below(idx, pivots, elem_first):
        return np.array([compare(items[i], items[p]) == -1 if first
                         else compare(items[p], items[i]) == 1
                         for i, p, first in zip(idx, pivots, elem_first)], dtype=bool)
    return below


def spans(groups):
    return [groups.span(gi) for gi in range(groups.n_groups)]


def labels_of(label):
    """Lift a scalar labeler to the batch label API, one instance at a time."""
    return lambda xs: np.array([label(x) for x in xs], dtype=int)


def level_reference(items, compare, rng):
    """Reference sort in plain Python: the same draws per level as
    noisy_quicksort, then one scalar compare per pair and list partitions."""
    order = list(range(len(items)))
    comparisons = 0
    segments = [(0, len(items))]
    while True:
        segments = [(start, size) for start, size in segments if size > 1]
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
        order, comps = noisy_quicksort(items, batch_of(items), np.random.default_rng(0))
        assert list(order) == [0] and comps == 0

    def test_perfect_comparator_sorts(self):
        items = np.array([0.3, 0.1, 0.2])
        for seed in range(20):
            order, _ = noisy_quicksort(items, batch_of(items),
                                       np.random.default_rng(seed))
            np.testing.assert_allclose(items[order], [0.1, 0.2, 0.3])

    def test_output_is_permutation(self):
        rng = np.random.default_rng(1)
        items = rng.random(200)
        order, comps = noisy_quicksort(items, batch_of(items), rng)
        assert sorted(order) == list(range(200))
        assert comps > 0

    def test_mean_comparisons_within_classic_bound(self):
        m = 128
        rng = np.random.default_rng(2)
        items = rng.random(m)
        counts = []
        for seed in range(200):
            _, comps = noisy_quicksort(items, batch_of(items),
                                       np.random.default_rng(seed))
            counts.append(comps)
        assert np.mean(counts) <= 2.0 * m * math.log(m)

    def test_argument_order_randomized(self):
        # a comparator answering +1 in both orientations: the effective
        # orientation of the pair must be a fair coin across seeds
        items = np.array([0.0, 1.0])
        wins_first = 0
        trials = 400
        for seed in range(trials):
            order, _ = noisy_quicksort(items, batch_of(items, lambda a, b: 1),
                                       np.random.default_rng(seed))
            wins_first += order[0] == 0
        assert abs(wins_first / trials - 0.5) < 0.1

    @pytest.mark.parametrize("world", [
        "uniform", "uniform-band", "uniform-duplicates", "gaussian-d20-band",
        "gaussian-d20-duplicates"])
    def test_matches_level_reference(self, world):
        # the numpy level passes must be the plain-Python reference: same
        # permutation, same comparison count, and the same rng stream consumed
        band = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.02)
        if world.startswith("uniform"):
            spec = uniform_scenario(0.5, comparison_noise=band if "band" in world else None)
        else:
            spec = gaussian_scenario(np.arange(1.0, 21.0), comparison_noise=band)
        for seed in range(5):
            runs = []
            for batch in (False, True):
                oracle = Oracle(spec, np.random.default_rng(seed))
                xs = oracle.sample(600)
                if "duplicates" in world:
                    # a few distinct values: most pairs tie, so the tie
                    # rule and both orientations decide the permutation
                    xs = xs[oracle.rng.integers(0, 12, size=len(xs))]
                if batch:
                    order, comps = noisy_quicksort(xs, oracle.pivot_comparator(xs), oracle.rng)
                else:
                    order, comps = level_reference(xs, oracle.compare, oracle.rng)
                runs.append((order, comps, oracle.counters.comparisons, oracle.rng.random()))
            (order_s, comps_s, counted_s, next_s), (order_b, comps_b, counted_b, next_b) = runs
            np.testing.assert_array_equal(order_b, order_s)
            assert comps_b == comps_s == counted_b == counted_s
            assert next_b == next_s


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
        oracle = Oracle(BAND_WORLD, np.random.default_rng(seed))
        xs = 0.5 + np.array(scores, dtype=float) * BAND_RHO / 4
        m = len(xs)
        order, comps = noisy_quicksort(xs, oracle.pivot_comparator(xs), oracle.rng)
        assert sorted(order.tolist()) == list(range(m))
        assert comps == oracle.counters.comparisons <= m * (m - 1) // 2

    @settings(max_examples=100, deadline=None)
    @given(scores=TIED_SCORES, seed=st.integers(0, 2**32 - 1))
    def test_perfect_comparator_sorts_ties(self, scores, seed):
        oracle = Oracle(uniform_scenario(0.5), np.random.default_rng(seed))
        xs = np.array(scores, dtype=float)
        order, _ = noisy_quicksort(xs, oracle.pivot_comparator(xs), oracle.rng)
        assert np.all(np.diff(xs[order]) >= 0)


class TestPartitionGroups:
    def _params(self, n, m, eps):
        return AdgacParams(n=n, m=m, eps=eps, delta=0.1, k=1)

    def test_exact_division(self):
        groups = partition_groups(np.arange(100), self._params(1000, 100, 0.01))
        assert groups.n_groups == 10
        assert all(e - s == 10 for s, e in spans(groups))

    def test_remainder_merged_into_last(self):
        groups = partition_groups(np.arange(103), self._params(1030, 103, 0.01))
        sizes = [e - s for s, e in spans(groups)]
        assert sizes == [10] * 9 + [13]

    def test_floor_at_one(self):
        # nominal group size 0.4 floors to single-point groups
        groups = partition_groups(np.arange(5), self._params(8, 5, 0.05))
        assert groups.n_groups == 5
        assert all(e - s == 1 for s, e in spans(groups))

    def test_degenerate_configuration_rejected(self):
        with pytest.raises(DegenerateGroupingError):
            partition_groups(np.arange(10), self._params(4, 10, 0.1))

    def test_empty_ranking_has_no_groups(self):
        # the degenerate configuration above raises only for a non-empty ranking
        groups = partition_groups(np.arange(0), self._params(4, 10, 0.1))
        assert groups.n_groups == 0 and spans(groups) == []
        assert RankedGroups(order=np.arange(0), size=7).n_groups == 0

    def test_ranking_shorter_than_one_group(self):
        groups = RankedGroups(order=np.arange(5), size=8)
        assert groups.n_groups == 1
        assert spans(groups) == [(0, 5)]


class TestGroupBinarySearch:
    def _groups(self, values, group_size):
        m = len(values)
        order = np.argsort(values)
        params = AdgacParams(n=2 * m, m=m, eps=group_size / (2 * m), delta=0.1, k=1)
        return partition_groups(order, params)

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


@settings(max_examples=100, deadline=None)
@example(m=9, eps=0.05, seed=0)      # group size 1
@example(m=103, eps=0.1, seed=1)     # size 10, remainder 3 in the last group
@given(m=st.integers(1, 300), eps=st.floats(0.001, 0.49), seed=st.integers(0, 2**32 - 1))
def test_labels_are_a_step_over_groups(m, eps, seed):
    spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.3))
    oracle = Oracle(spec, np.random.default_rng(seed))
    xs = oracle.sample(m)
    result = adgac(xs, m, eps, 0.1, oracle, oracle.rng, k=3)
    groups = result.groups
    assert groups.n_groups == result.n_groups == max(1, m // groups.size)
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
        oracle = Oracle(spec, np.random.default_rng(6))
        result = adgac(np.empty(0), 100, 0.05, 0.1, oracle, oracle.rng, k=5)
        assert len(result.labels) == 0
        assert oracle.counters.snapshot() == (0, 0)

    def test_noiseless_mismatch_bound(self):
        spec = uniform_scenario(0.5)
        hits = 0
        for seed in range(100):
            oracle = Oracle(spec, np.random.default_rng(seed))
            xs = oracle.sample(1000)
            result = adgac(xs, 1000, 0.05, 0.1, oracle, oracle.rng, k=5)
            mismatches = int(np.sum(result.labels != bayes_label(spec, xs)))
            hits += mismatches <= 50
            assert result.label_queries <= 5 * math.ceil(math.log2(result.n_groups))
        assert hits >= 99

    def test_band_adversarial_mismatch_bound(self):
        spec = uniform_scenario(
            0.5, LabelNoiseSpec(kind="massart", beta=0.0),
            ComparisonNoiseSpec(kind="band-adversarial", nu_prime=1e-4))
        hits = 0
        for seed in range(100):
            oracle = Oracle(spec, np.random.default_rng(seed))
            xs = oracle.sample(1000)
            result = adgac(xs, 1000, 0.05, 0.1, oracle, oracle.rng, k=5)
            mismatches = int(np.sum(result.labels != bayes_label(spec, xs)))
            hits += mismatches <= 50
        assert hits >= 90

    def test_output_is_monotone_step_in_rank(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.3))
        for seed in range(20):
            oracle = Oracle(spec, np.random.default_rng(seed))
            xs = oracle.sample(300)
            result = adgac(xs, 300, 0.1, 0.1, oracle, oracle.rng, k=7)
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
            rng = np.random.default_rng(seed)
            oracle = Oracle(spec, rng)
            m = int(rng.integers(8, 65))
            xs = oracle.sample(m)
            eps = 0.125
            result = adgac(xs, m, eps, 0.1, oracle, oracle.rng, k=3)
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
        oracle = Oracle(spec, np.random.default_rng(7))
        xs = oracle.sample(200)
        result = adgac(xs, 200, 0.1, 0.1, oracle, oracle.rng, k=3)
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


class TestBatchSizeFormulas:
    def test_kappa_one_collapses_to_adversarial_size(self):
        # the bounded-noise size c3 log(log(1/eps) / delta), with no power factor
        adversarial = math.ceil(2.5 * math.log(math.log(1.0 / 0.07) / 0.2))
        assert batch_size(0.07, 0.2, 1.0, 2.5) == adversarial
        assert batch_size(0.07, 0.2, c3=2.5) == adversarial

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
