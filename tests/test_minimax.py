"""Combinatorial inequality and the sqrt identity for comparison noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adgac.minimax import (LemmaStack, ScoreDistribution,
                           best_threshold_error, comparison_error_of, construct_ghat,
                           equality_instance, lemma_min_f, make_lemma_instance)


class TestLemmaScan:
    def test_equality_configuration_is_tight(self):
        for n in range(1, 9):
            inst = equality_instance(n)
            fmin, _ = lemma_min_f(inst)
            assert abs(fmin[0] - math.sqrt(2 * n * inst.t[0] / (n + 1))) <= 1e-9

    def test_n_one_boundary(self):
        inst = make_lemma_instance([1.0], [1.0])
        fmin, k = lemma_min_f(inst)
        assert fmin[0] == 1.0
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
        assert fmin[0] == 0.0 and k[0] == 1  # f(1) = x1 + y2 = 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            make_lemma_instance([-0.1, 0.2], [0.1, 0.2])


def _reference_scan(xs, ys):
    """One instance the direct way: t, min_k f(k), its first argmin, the bound."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = len(xs)
    t = float(np.dot(xs, np.cumsum(ys[::-1])[::-1]))
    cx = np.concatenate(([0.0], np.cumsum(xs)))
    cy = np.concatenate(([0.0], np.cumsum(ys)))
    f = cx + (cy[-1] - cy)
    k = int(np.argmin(f))
    return t, float(f[k]), k, math.sqrt(2.0 * n * t / (n + 1.0))


class TestLemmaStack:
    def _padded(self, seed, max_n, rows=600):
        rng = np.random.default_rng(seed)
        xs, ys = np.zeros((rows, max_n)), np.zeros((rows, max_n))
        ns = rng.integers(1, max_n + 1, size=rows)
        for r, n in enumerate(ns):
            xs[r, :n] = rng.random(n) * (rng.random(n) > 0.3)  # about 30 % zero entries
            ys[r, :n] = rng.random(n) * (rng.random(n) > 0.3)
        return xs, ys, ns

    @pytest.mark.parametrize("seed,max_n", [(0, 8), (1, 8), (2, 24)])
    def test_rows_match_the_per_instance_rule_bit_for_bit(self, seed, max_n):
        # width 24 reaches np.dot's blocked summation (16 entries and up)
        xs, ys, ns = self._padded(seed, max_n)
        stack = make_lemma_instance(xs, ys, ns=ns)
        fmin, k = lemma_min_f(stack)
        bound = stack.bound
        for r, n in enumerate(ns):
            t_ref, fmin_ref, k_ref, bound_ref = _reference_scan(xs[r, :n], ys[r, :n])
            assert (stack.t[r], fmin[r], k[r], bound[r]) == (t_ref, fmin_ref, k_ref, bound_ref)
            inst = make_lemma_instance(xs[r, :n], ys[r, :n])
            one_fmin, one_k = lemma_min_f(inst)
            assert ((inst.t[0], one_fmin[0], one_k[0], inst.bound[0])
                    == (t_ref, fmin_ref, k_ref, bound_ref))

    def test_one_instance_is_a_one_row_stack(self):
        inst = make_lemma_instance([0.5, 0.25], [0.0, 1.0])
        assert isinstance(inst, LemmaStack)
        assert inst.xs.shape == inst.ys.shape == (1, 2)
        assert inst.ns.tolist() == [2] and inst.t.tolist() == [0.75]
        fmin, k = lemma_min_f(inst)
        assert fmin.tolist() == [0.75] and k.tolist() == [2]
        assert equality_instance(3).xs.shape == (1, 3)

    def test_empty_stack(self):
        stack = make_lemma_instance(np.zeros((0, 8)), np.zeros((0, 8)), ns=np.zeros(0, int))
        fmin, k = lemma_min_f(stack)
        assert fmin.shape == k.shape == stack.bound.shape == (0,)

    @pytest.mark.parametrize("ns", [[0, 2], [3, 2], [2]], ids=["row-empty", "row-too-long",
                                                             "count-mismatch"])
    def test_bad_row_lengths_rejected(self, ns):
        with pytest.raises(ValueError, match="non-empty"):
            make_lemma_instance(np.ones((2, 2)), np.ones((2, 2)), ns=ns)

    def test_nonzero_padding_rejected(self):
        with pytest.raises(ValueError, match="past a row's length"):
            make_lemma_instance([[1.0, 0.0], [1.0, 2.0]], [[1.0, 3.0], [1.0, 1.0]], ns=[1, 2])

    def test_row_violation_raises(self):
        # t below the achieved value: the bound is too small for the row's minimum
        stack = LemmaStack(xs=np.array([[1.0, 0.0]]), ys=np.array([[1.0, 0.0]]),
                           ns=np.array([1]), t=np.array([0.1]))
        with pytest.raises(AssertionError, match="inequality violated"):
            lemma_min_f(stack)


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

    def test_whole_class_fold_needs_a_finite_interval(self):
        # at nu' = 0.25 the fold takes all of each class: the uniform interval
        # is the support [-1/2, 1/2], the gaussian one would be [-inf, inf]
        uniform = construct_ghat(ScoreDistribution("uniform"), 0.25)
        assert (uniform.a, uniform.b) == (-0.5, 0.5)
        with pytest.raises(ValueError, match="interval"):
            construct_ghat(ScoreDistribution("gaussian"), 0.25)
        ghat = construct_ghat(ScoreDistribution("gaussian"), 0.2499)
        assert math.isfinite(ghat.a) and math.isfinite(ghat.b)

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


class TestGaussianIsScipyNorm:
    """The gaussian cdf and ppf are scipy.stats.norm's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_cdf(self, ts):
        from scipy.stats import norm
        ts = np.array(ts + [-np.inf, np.inf, 0.0, -0.0])
        got = ScoreDistribution("gaussian").cdf(ts)
        assert got.tobytes() == norm.cdf(ts).tobytes()
        for t in ts:
            assert np.float64(ScoreDistribution("gaussian").cdf(t)).tobytes() == \
                np.float64(norm.cdf(t)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_ppf(self, qs):
        from scipy.stats import norm
        qs = np.array(qs + [0.0, 1.0, 0.5, 5e-324, 1.0 - 2.0 ** -53])
        got = ScoreDistribution("gaussian").ppf(qs)
        assert got.tobytes() == norm.ppf(qs).tobytes()
        assert got[-5] == -np.inf and got[-4] == np.inf
        for q in qs:
            assert np.float64(ScoreDistribution("gaussian").ppf(q)).tobytes() == \
                np.float64(norm.ppf(q)).tobytes()


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
