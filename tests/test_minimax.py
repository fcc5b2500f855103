"""Combinatorial inequality and the sqrt identity for comparison noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgac.minimax import (ScoreDistribution, best_threshold_error,
                           comparison_error_of, construct_ghat,
                           equality_instance, lemma_min_f, make_lemma_instance)


class TestLemmaScan:
    def test_equality_configuration_is_tight(self):
        for n in range(1, 9):
            for t in (0.37, 1.0, 4.2):
                inst = equality_instance(n, t)
                fmin, _ = lemma_min_f(inst)
                assert abs(fmin - math.sqrt(2 * n * inst.t / (n + 1))) <= 1e-9

    def test_n_one_boundary(self):
        inst = make_lemma_instance([1.0], [1.0], t=1.0)
        fmin, k = lemma_min_f(inst)
        assert fmin == 1.0
        assert math.sqrt(2 * 1 * 1 / 2) == 1.0

    def test_random_instances_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            inst = make_lemma_instance(rng.random(n), rng.random(n))
            lemma_min_f(inst)  # raises on violation

    def test_argmin_reported(self):
        inst = make_lemma_instance([0.0, 5.0], [5.0, 0.0])
        fmin, k = lemma_min_f(inst)
        assert fmin == 0.0 and k == 1  # f(1) = x1 + y2 = 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            make_lemma_instance([-0.1, 0.2], [0.1, 0.2])

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError):
            make_lemma_instance([1.0, 1.0], [1.0, 1.0], t=0.5)


class TestGhatConstruction:
    def test_zero_noise_is_identity(self):
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.0)
        ts = np.linspace(-0.5, 0.5, 101)
        np.testing.assert_allclose(ghat(ts), ts)
        assert ghat.a == ghat.b == 0.0

    def test_uniform_interval_endpoints(self):
        # symmetric uniform scores on [-1/2, 1/2]: each side of the fold
        # carries mass sqrt(0.01) = 0.1, so the interval is [-0.1, 0.1]
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.01)
        assert ghat.a == pytest.approx(-0.1, abs=1e-12)
        assert ghat.b == pytest.approx(0.1, abs=1e-12)

    def test_identity_outside_interval(self):
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.01)
        ts = np.array([-0.4, -0.2, 0.2, 0.4])
        np.testing.assert_allclose(ghat(ts), ts)

    def test_precondition_rejected(self):
        base = ScoreDistribution("uniform")
        with pytest.raises(ValueError):
            construct_ghat(base, 0.5)  # sqrt = 0.707 > class mass 0.5

    def test_gaussian_base_supported(self):
        base = ScoreDistribution("gaussian")
        ghat = construct_ghat(base, 0.01)
        from scipy.stats import norm
        assert ghat.a == pytest.approx(norm.ppf(0.4), abs=1e-9)
        assert ghat.b == pytest.approx(norm.ppf(0.6), abs=1e-9)


class TestQuantileGrid:
    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_odd_grid_puts_a_positive_cell_on_zero(self, kind):
        base = ScoreDistribution(kind)
        for n in (3, 101, 2001):
            grid = base.quantile_grid(n)
            assert grid[n // 2] == 0.0
            assert int(np.sum(grid >= 0)) == n // 2 + 1
            # lift the zero cell above every score: counted negative, it
            # would invert with every positive cell and cost a threshold 1/n
            lifted = lambda t: np.where(t == 0.0, 10.0, t)
            assert comparison_error_of(lifted, base, n) == 0.0
            assert best_threshold_error(lifted, base, n)[0] == 0.0

    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_even_grid_avoids_zero(self, kind):
        base = ScoreDistribution(kind)
        for n in (2, 100, 2000):
            grid = base.quantile_grid(n)
            assert not np.any(grid == 0.0)
            assert int(np.sum(grid >= 0)) == n // 2


class TestComparisonError:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["uniform", "gaussian"]),
           values=st.lists(st.integers(-3, 3), min_size=2, max_size=40))
    def test_matches_brute_force_pair_count(self, kind, values):
        # few distinct values, so most grids carry ties across the classes
        base = ScoreDistribution(kind)
        n = len(values)
        vals = np.array(values, dtype=float)
        grid = base.quantile_grid(n)
        inverted = sum(1 for a in vals[grid < 0] for b in vals[grid >= 0] if a > b)
        assert comparison_error_of(lambda t: vals, base, n) == 2.0 * inverted / (n * n)

    def test_order_preserving_map_is_clean(self):
        base = ScoreDistribution("uniform")
        assert comparison_error_of(lambda t: t, base, 2000) == 0.0

    def test_full_reversal(self):
        # every cross pair inverts: 2 P[+] P[-] = 1/2 for the symmetric base
        base = ScoreDistribution("uniform")
        est = comparison_error_of(lambda t: -np.asarray(t), base, 2000)
        assert abs(est - 0.5) <= 4 / 2000

    def test_construction_hits_target(self):
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.01)
        est = comparison_error_of(ghat, base, 10_000)
        assert abs(est - 0.01) <= 4e-4


class TestBestThreshold:
    def test_clean_score_has_zero_error(self):
        base = ScoreDistribution("uniform")
        err, thr = best_threshold_error(lambda t: t, base, 2000)
        assert err == 0.0
        assert abs(thr) < 1e-3

    def test_monotone_distortion_has_zero_error(self):
        rng = np.random.default_rng(1)
        base = ScoreDistribution("uniform")
        for _ in range(5):
            scale = rng.uniform(0.5, 3.0)
            shift = rng.uniform(-1, 1)
            err, _ = best_threshold_error(
                lambda t: np.tanh(scale * np.asarray(t)) + shift, base, 2000)
            assert err == 0.0

    def test_construction_floor(self):
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.01)
        err, thr = best_threshold_error(ghat, base, 10_000)
        assert abs(err - 0.1) <= 4e-4
        assert ghat.a - 1e-6 <= thr <= ghat.b + 1e-6

    def test_refinement_converges(self):
        base = ScoreDistribution("uniform")
        ghat = construct_ghat(base, 0.01)
        gaps_comp = []
        gaps_best = []
        for n in (5000, 10_000, 20_000):
            gaps_comp.append(abs(comparison_error_of(ghat, base, n) - 0.01))
            gaps_best.append(abs(best_threshold_error(ghat, base, n)[0] - 0.1))
        # halving up to the next-order grid term
        assert gaps_comp[1] <= 0.55 * gaps_comp[0] + 1e-9
        assert gaps_comp[2] <= 0.55 * gaps_comp[1] + 1e-9
        assert gaps_best[1] <= 0.55 * gaps_best[0] + 1e-9
        assert gaps_best[2] <= 0.55 * gaps_best[1] + 1e-9

    def test_both_sides_meet_at_sqrt(self):
        # the same construction simultaneously keeps the comparison error at
        # nu' and the best threshold error at sqrt(nu')
        base = ScoreDistribution("uniform")
        for nu_prime in (0.0025, 0.01, 0.04):
            ghat = construct_ghat(base, nu_prime)
            n = 10_000
            comp = comparison_error_of(ghat, base, n)
            best, _ = best_threshold_error(ghat, base, n)
            assert abs(comp - nu_prime) <= 4 / n
            assert best >= math.sqrt(nu_prime) - 4 / n
            assert abs(best - math.sqrt(nu_prime)) <= 4 / n
