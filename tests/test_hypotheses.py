"""Version spaces, empirical error counts, and disagreement-region membership."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adgac.hypotheses import EmptyVersionSpaceError, ExplicitClass, ThresholdClass, VersionSpace
from adgac.oracles import gaussian_scenario, sample_unlabeled, uniform_scenario


def make_random_class(rng, size=50):
    cuts = rng.random(size)
    signs = rng.choice([-1, 1], size)
    preds = [
        (lambda c, s: lambda xs: np.where(np.asarray(xs) > c, s, -s))(c, s)
        for c, s in zip(cuts, signs)
    ]
    return ExplicitClass(preds)


def in_region(space, x):
    return bool(space.dis_mask(np.array([x]))[0])


def region_mass(space, spec, n_mc, seed):
    """Monte Carlo mass of the disagreement region, with its standard error."""
    p = float(np.mean(space.dis_mask(sample_unlabeled(spec, n_mc, np.random.default_rng(seed)))))
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n_mc) / n_mc)


# grid values and points: the ends 0 and 1, a few fixed values that grids and
# batches share, and any value between
VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def grids_and_batches(draw):
    """An unsorted grid, duplicates allowed, and a labeled batch whose points
    may sit exactly on its grid values."""
    grid = draw(st.lists(VALUES, min_size=1, max_size=12))
    point = st.one_of(st.sampled_from(grid), VALUES)
    batch = draw(st.lists(st.tuples(point, st.sampled_from([-1, 1])), max_size=30))
    return grid, batch


class TestEmpiricalError:
    def test_full_agreement(self):
        counts = ThresholdClass([0.5]).error_counts(np.array([0.1, 0.9]), np.array([-1, 1]))
        assert list(counts) == [0]

    def test_constant_on_balanced_data(self):
        klass = ExplicitClass([lambda xs: np.ones(len(xs), dtype=int)])
        counts = klass.error_counts(np.array([0.1, 0.2, 0.8, 0.9]), np.array([-1, -1, 1, 1]))
        assert counts[0] / 4 == 0.5

    def test_matches_exhaustive_recount(self):
        rng = np.random.default_rng(0)
        xs = rng.random(20)
        ys = rng.choice([-1, 1], 20)
        klass = ThresholdClass(np.linspace(0.1, 0.9, 9))
        counts = klass.error_counts(xs, ys)
        for i, t in enumerate(klass.grid):
            brute = sum((1 if x > t else -1) != y for x, y in zip(xs, ys))
            assert counts[i] == brute
            assert np.mean(klass.predict(i, xs) != ys) == brute / 20

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(case=grids_and_batches())
    # an empty, an all-positive and an all-negative batch
    @example(case=([0.5, 0.2, 0.5], []))
    @example(case=([0.5, 0.0, 1.0, 0.5], [(0.0, 1), (0.5, 1), (1.0, 1), (0.3, 1)]))
    @example(case=([0.5, 0.0, 1.0, 0.5], [(0.0, -1), (0.5, -1), (1.0, -1), (0.3, -1)]))
    def test_matches_a_loop_over_the_grid(self, case):
        grid, batch = case
        xs = np.array([x for x, _ in batch], dtype=float)
        ys = np.array([y for _, y in batch], dtype=int)
        counts = ThresholdClass(grid).error_counts(xs, ys)
        brute = [sum((1 if x > t else -1) != y for x, y in batch) for t in sorted(grid)]
        assert counts.tolist() == brute


class TestDisagreementRegion:
    def test_singleton_never_disagrees(self):
        space = VersionSpace(ThresholdClass([0.5]))
        assert not in_region(space, 0.1)
        assert not in_region(space, 0.9)

    def test_threshold_interval_rule(self):
        space = VersionSpace(ThresholdClass([0.3, 0.7]))
        assert in_region(space, 0.5)
        assert not in_region(space, 0.9)
        assert in_region(space, 0.7)   # right endpoint included
        assert not in_region(space, 0.3)

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(1)
        klass = make_random_class(rng)
        alive = rng.random(50) < 0.6
        alive[0] = True
        space = VersionSpace(klass, alive)
        points = rng.random(100)
        mask = space.dis_mask(points)
        idx = space.indices
        for j, x in enumerate(points):
            preds = {int(klass.predict(int(i), np.array([x]))[0]) for i in idx}
            assert mask[j] == (len(preds) > 1)


class TestFiltering:
    def test_huge_threshold_keeps_everything(self):
        klass = ThresholdClass(np.linspace(0, 1, 11))
        space = VersionSpace(klass)
        counts = klass.error_counts(np.array([0.2, 0.8]), np.array([-1, 1]))
        out = space.filter_by_counts(counts, threshold=3)
        assert len(out) == len(space)

    def test_zero_threshold_rejects_all(self):
        klass = ThresholdClass(np.linspace(0, 1, 11))
        space = VersionSpace(klass)
        counts = klass.error_counts(np.array([0.2, 0.8]), np.array([-1, 1]))
        with pytest.raises(EmptyVersionSpaceError):
            space.filter_by_counts(counts, threshold=0)

    def test_strict_removal_rule(self):
        # hand-built error counts {0, 1, 2, 3, 4}: threshold 2 keeps {0, 1}
        counts = np.array([0, 1, 2, 3, 4])
        klass = ExplicitClass([lambda xs: xs] * 5)
        space = VersionSpace(klass)
        out = space.filter_by_counts(counts, 2)
        assert list(out.indices) == [0, 1]

    def test_zero_error_survivors_at_threshold_just_above_zero(self):
        klass = ThresholdClass(np.linspace(0, 1, 101))
        space = VersionSpace(klass)
        xs = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
        ys = np.array([-1, -1, -1, 1, 1, 1])
        counts = klass.error_counts(xs, ys)
        out = space.filter_by_counts(counts, threshold=1)
        assert set(out.indices) == set(np.flatnonzero(counts == 0))

    def test_contiguity_preserved_under_monotone_step_labels(self):
        klass = ThresholdClass(np.linspace(0, 1, 201))
        space = VersionSpace(klass)
        rng = np.random.default_rng(2)
        xs = np.sort(rng.random(100))
        ys = np.where(np.arange(100) < 37, -1, 1)  # monotone step in x
        out = space.filter_by_counts(klass.error_counts(xs, ys), threshold=5)
        assert out.is_contiguous()


class TestDisagreementMass:
    def test_singleton_mass_zero(self):
        spec = uniform_scenario()
        space = VersionSpace(ThresholdClass([0.5]))
        est, se = region_mass(space, spec, 1000, 3)
        assert est == 0.0

    def test_threshold_interval_mass(self):
        spec = uniform_scenario()
        space = VersionSpace(ThresholdClass([0.3, 0.7]))
        est, se = region_mass(space, spec, 200_000, 4)
        assert abs(est - 0.4) <= 3 * se

    def test_orthogonal_halfspace_pair_mass(self):
        spec = gaussian_scenario([1.0, 0.0])
        w1 = np.array([1.0, 0.0])
        w2 = np.array([0.0, 1.0])
        klass = ExplicitClass([
            lambda xs: np.where(np.asarray(xs) @ w1 >= 0, 1, -1),
            lambda xs: np.where(np.asarray(xs) @ w2 >= 0, 1, -1),
        ])
        space = VersionSpace(klass)
        est, se = region_mass(space, spec, 200_000, 5)
        assert abs(est - 0.5) <= 3 * se  # angle / pi = 1/2

