"""Oracle behavior: sampling, noise models, calibration, and accounting."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from adgac import oracles
from adgac.oracles import (ComparisonNoiseSpec, LabelNoiseSpec, Oracle, QueryCounters,
                           CalibrationError, bayes_positive, calibrate_band,
                           gaussian_scenario, sample_unlabeled, score,
                           uniform_scenario)
from references import compare_reference, eta_reference


def answers(ranked, idx, pivots, elem_first):
    """Whether the Ranking ranks item idx[j] below pivots[j], asked as (item,
    pivot) where elem_first[j] holds and as (pivot, item) elsewhere: by tie
    class, and within one by which was asked first.  Asks the pairs of it."""
    cls = np.empty(len(ranked.order), dtype=np.intp)
    cls[ranked.order] = ranked.tie
    ranked.ask(len(idx))
    return np.where(cls[idx] == cls[pivots], ~np.asarray(elem_first, dtype=bool),
                    cls[idx] < cls[pivots])


def ask_pairs(oracle, a, b):
    """Whether the oracle ranks a[i] below b[i], asked as (a[i], b[i]), for
    every i: one ranking of the batch, True where the answer is -1."""
    m = len(a)
    ranked = oracle.ranking(np.concatenate([a, b]))
    return answers(ranked, np.arange(m), np.arange(m, 2 * m), True)


def eta_checked_against(oracle, xs, band: float = 0.0) -> np.ndarray:
    """The reference eta at each instance, after checking that oracle.label_many
    answers +1 exactly where its next uniform draw falls below it."""
    g = score(oracle.spec, xs)
    eta = np.array([eta_reference(oracle.spec.label_noise, float(gi), band) for gi in g])
    draws = copy.deepcopy(oracle.rng).random(len(g))
    np.testing.assert_array_equal(oracle.label_many(xs), np.where(draws < eta, 1, -1))
    return eta


class TestSampling:
    def test_empty_sample_rejected(self):
        spec = uniform_scenario()
        with pytest.raises(ValueError):
            sample_unlabeled(spec, 0, np.random.default_rng(0))

    def test_uniform_mean(self):
        spec = uniform_scenario()
        xs = sample_unlabeled(spec, 100_000, np.random.default_rng(1))
        assert 0.495 <= xs.mean() <= 0.505

    def test_gaussian_covariance_identity(self):
        spec = gaussian_scenario([1.0, 0.0, 0.0])
        xs = sample_unlabeled(spec, 100_000, np.random.default_rng(2))
        cov = np.cov(xs.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_shapes(self):
        assert sample_unlabeled(uniform_scenario(), 7, np.random.default_rng(0)).shape == (7,)
        assert sample_unlabeled(gaussian_scenario([0.6, 0.8]), 7,
                                np.random.default_rng(0)).shape == (7, 2)


class TestScenarioSpec:
    @pytest.mark.parametrize("t", [1.5, -0.1, float("nan")])
    def test_uniform_threshold_outside_unit_interval_rejected(self, t):
        with pytest.raises(ValueError):
            uniform_scenario(t)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_uniform_threshold_endpoints_build(self, t):
        assert uniform_scenario(t).ground_truth.threshold == t

    def test_ground_truth_matches_world(self):
        # the ground truth names the marginal and dimension; a world cannot be
        # named twice, so it cannot be named inconsistently
        with pytest.raises(TypeError):
            oracles.ScenarioSpec(dist_kind=oracles.GAUSSIAN,
                                 ground_truth=oracles.GroundTruth(kind=oracles.UNIFORM))
        with pytest.raises(TypeError):
            oracles.ScenarioSpec(d=2, ground_truth=oracles.GroundTruth(
                kind=oracles.GAUSSIAN, direction=(1.0,)))
        uniform, gaussian = uniform_scenario(0.3), gaussian_scenario([0.0, 3.0, 4.0])
        assert (uniform.ground_truth.kind, uniform.d) == (oracles.UNIFORM, 1)
        assert (gaussian.ground_truth.kind, gaussian.d) == (oracles.GAUSSIAN, 3)

    def test_threshold_ground_truth_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            oracles.GroundTruth(kind=oracles.UNIFORM, threshold=1.5)


class TestScore:
    def test_batch_rows_score_as_single_instances(self):
        # bit-for-bit, so batch and scalar comparisons agree and equal
        # instances tie wherever they sit in a batch
        rng = np.random.default_rng(12)
        for d in (2, 5, 20):
            spec = gaussian_scenario(rng.standard_normal(d))
            xs = sample_unlabeled(spec, 1001, rng)
            xs = xs[rng.integers(0, 1001, size=3000)]
            g = score(spec, xs)
            assert all(g[i] == score(spec, xs[i]) for i in range(len(xs)))

    def test_halfspace_direction_built_once_and_read_only(self):
        gt = gaussian_scenario([0.6, 0.8]).ground_truth
        assert gt.w is gt.w
        np.testing.assert_array_equal(gt.w, [0.6, 0.8])
        with pytest.raises(ValueError):
            gt.w[0] = 1.0


class TestLabelOracle:
    def test_massart_zero_flip_is_noiseless(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.0))
        oracle = Oracle(dataclasses.replace(spec, seed=3))
        xs = oracle.sample(500)
        np.testing.assert_array_equal(oracle.label_many(xs) > 0, bayes_positive(spec, xs))
        assert oracle.counters.labels == 500

    def test_massart_flip_rate(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.2))
        oracle = Oracle(dataclasses.replace(spec, seed=4))
        x = 0.9  # optimal label +1
        n = 100_000
        hits = int(np.sum(oracle.label_many(np.full(n, x)) == 1))
        assert abs(hits / n - 0.8) < 0.01

    def test_power_law_posterior_is_half_at_boundary(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="tsybakov", kappa=2.0, mu=1.0))
        assert eta_checked_against(Oracle(spec), np.array([0.5])).tolist() == [0.5]

    def test_posterior_range_and_sign(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="tsybakov", kappa=1.7, mu=0.4))
        xs = sample_unlabeled(spec, 2000, np.random.default_rng(5))
        eta = eta_checked_against(Oracle(spec), xs)
        assert np.all((eta >= 0.0) & (eta <= 1.0))
        away = np.abs(eta - 0.5) > 1e-12
        assert np.all((eta[away] > 0.5) == bayes_positive(spec, xs[away]))

    def test_power_law_margin_small_probability(self):
        # empirical P[|eta - 1/2| < t] stays below the construction's own
        # power law: the generator maps |g| < mu (2 t)^(1/(kappa-1)) to the
        # margin event, so the effective constant carries the density of g
        kappa, mu = 2.0, 1.0
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="tsybakov", kappa=kappa, mu=mu))
        xs = sample_unlabeled(spec, 200_000, np.random.default_rng(6))
        eta = eta_checked_against(Oracle(spec), xs)
        # |g| uniform on [0, 1/2] with density 2
        effective = 2.0 * mu * 2.0 ** (1.0 / (kappa - 1.0))
        for t in np.linspace(0.01, 0.4, 12):
            emp = np.mean(np.abs(eta - 0.5) < t)
            bound = min(1.0, effective * t ** (1.0 / (kappa - 1.0)))
            assert emp <= bound + 0.01

    def test_adversarial_band_flip(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="adversarial", nu=0.1))
        oracle = Oracle(dataclasses.replace(spec, seed=7))
        rho = calibrate_band(spec, 0.1, "label")
        # g == 0 ties to +1, and it lies inside the band, so it is flipped
        inside, outside, tie = oracle.label_many(np.array([0.5 + rho / 2, 0.5 + 2 * rho, 0.5]))
        assert inside == -1 and outside == 1 and tie == -1


class TestComparisonOracle:
    def test_perfect_sign_rule(self):
        oracle = Oracle(uniform_scenario(0.0))
        # (0.7, 0.2) answers +1 and (0.2, 0.7) answers -1
        assert ask_pairs(oracle, [0.7], [0.2]).tolist() == [False]
        assert ask_pairs(oracle, [0.2], [0.7]).tolist() == [True]
        assert oracle.counters.comparisons == 2

    def test_zero_noise_band_matches_perfect(self):
        noise = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.0)
        spec_band = uniform_scenario(0.5, comparison_noise=noise)
        spec_perfect = uniform_scenario(0.5)
        rng = np.random.default_rng(8)
        pairs = rng.random((10_000, 2))
        band, perfect = Oracle(spec_band), Oracle(spec_perfect)
        np.testing.assert_array_equal(ask_pairs(band, *pairs.T), ask_pairs(perfect, *pairs.T))

    def test_band_flip_mass(self):
        nu_prime = 0.01
        noise = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=nu_prime)
        spec = uniform_scenario(0.5, comparison_noise=noise)
        rho = calibrate_band(spec, nu_prime, "comparison")
        rng = np.random.default_rng(9)
        n = 1_000_000
        a = rng.random(n)
        b = rng.random(n)
        ga, gb = score(spec, a), score(spec, b)
        opposite = (ga >= 0) != (gb >= 0)
        flipped = opposite & (np.abs(ga) < rho) & (np.abs(gb) < rho)
        est = flipped.mean()
        se = np.sqrt(nu_prime * (1 - nu_prime) / n)
        assert abs(est - nu_prime) <= 3 * se

    def test_band_rule_matches_query_calls(self):
        nu_prime = 0.02
        noise = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=nu_prime)
        spec = uniform_scenario(0.5, comparison_noise=noise)
        rho = calibrate_band(spec, nu_prime, "comparison")
        rng = np.random.default_rng(10)
        oracle = Oracle(spec)
        a, b = rng.random((5000, 2)).T  # the draws of 5000 rng.random(2) calls
        expected = [compare_reference(ga, gb, rho)
                    for ga, gb in zip(score(spec, a).tolist(), score(spec, b).tolist())]
        np.testing.assert_array_equal(np.where(ask_pairs(oracle, a, b), -1, 1), expected)


class TestCalibration:

    def test_uniform_label_band_closed_form(self):
        # P[|x - 0.5| < rho] = 2 rho, so a 0.1 target sits at rho = 0.05
        rho = calibrate_band(uniform_scenario(0.5), 0.1, "label")
        assert abs(rho - 0.05) < 1e-12

    def test_gaussian_label_band_inverse_cdf(self):
        rho = calibrate_band(gaussian_scenario([1.0]), 0.1, "label")
        assert abs(rho - norm.ppf(0.55)) < 1e-12

    def test_uniform_comparison_band_closed_form(self):
        # flipped-pair mass 2 rho^2 for rho <= 1/2, so 0.02 sits at rho = 0.1
        rho = calibrate_band(uniform_scenario(0.5), 0.02, "comparison")
        assert abs(rho - 0.1) < 1e-12

    def test_unachievable_mass_rejected(self):
        # flipped-pair mass cannot exceed 2 P[+] P[-] = 1/2
        with pytest.raises(CalibrationError):
            calibrate_band(uniform_scenario(0.5), 0.75, "comparison")

    @staticmethod
    def _realized_mass(spec, rho, which):
        """P[0 <= g < rho] and P[-rho < g < 0], combined as the oracle uses them."""
        if spec.ground_truth.kind == oracles.UNIFORM:
            # g is x - t with x uniform on [0, 1]: the lengths of [t, t + rho)
            # and (t - rho, t) inside [0, 1]
            t = spec.ground_truth.threshold
            pos, neg = min(rho, 1.0 - t), min(rho, t)
        else:
            pos = neg = norm.cdf(rho) - 0.5
        return pos + neg if which == "label" else 2.0 * pos * neg

    @staticmethod
    def _max_mass(spec, which):
        if which == "label":
            return 1.0
        if spec.ground_truth.kind == oracles.GAUSSIAN:
            return 0.5
        t = spec.ground_truth.threshold
        return 2.0 * t * (1.0 - t)

    WORLDS = st.one_of(st.floats(0.0, 1.0).map(uniform_scenario),
                       st.just(gaussian_scenario([1.0, 2.0, 3.0, 4.0, 5.0])))

    @settings(max_examples=100, deadline=None)
    @given(spec=WORLDS, which=st.sampled_from(["label", "comparison"]))
    def test_zero_target(self, spec, which):
        # on every world, even where the comparison maximum is 0 (t = 0, 1)
        assert calibrate_band(spec, 0.0, which) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(spec=WORLDS, which=st.sampled_from(["label", "comparison"]),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_realized_mass_equals_target(self, spec, which, frac):
        top = self._max_mass(spec, which)
        target = frac * top
        # 100 times below the smallest mass the lab configures: further down,
        # the gaussian check's cdf difference loses the digits the bound asks for
        assume(target >= 1e-6)
        rho = calibrate_band(spec, target, which)
        assert rho > 0.0
        assert self._realized_mass(spec, rho, which) == pytest.approx(target, rel=1e-9, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(spec=WORLDS, which=st.sampled_from(["label", "comparison"]),
           excess=st.floats(0.0, 10.0), below=st.floats(0.0, 10.0, exclude_min=True))
    def test_out_of_range_targets_rejected(self, spec, which, excess, below):
        top = self._max_mass(spec, which)
        if top + excess > 0.0:  # a zero target is met on every world, by band 0
            with pytest.raises(CalibrationError):
                calibrate_band(spec, top + excess, which)
        with pytest.raises(CalibrationError):
            calibrate_band(spec, -below, which)


class TestSingleOwners:
    def test_effective_kappa_only_for_power_law_above_one(self):
        assert LabelNoiseSpec(kind="tsybakov", kappa=1.5).effective_kappa == 1.5
        assert LabelNoiseSpec(kind="tsybakov", kappa=1.0).effective_kappa == 1.0
        assert LabelNoiseSpec(kind="massart", beta=0.1, kappa=2.0).effective_kappa == 1.0
        assert LabelNoiseSpec(kind="adversarial", nu=0.1, kappa=2.0).effective_kappa == 1.0

    def test_bands_calibrated_once_in_init(self, monkeypatch):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="adversarial", nu=0.1),
                                ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.02),
                                seed=3)
        rho_label = calibrate_band(spec, 0.1, "label")
        rho_comp = calibrate_band(spec, 0.02, "comparison")
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return calibrate_band(*args)

        monkeypatch.setattr(oracles, "calibrate_band", counting)
        oracle = Oracle(spec)
        assert sorted(calls) == [(0.02, "comparison"), (0.1, "label")]
        Oracle(uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.1)))
        assert len(calls) == 2

        def refuse(*args):
            raise AssertionError("a query recalibrated a band")

        monkeypatch.setattr(oracles, "calibrate_band", refuse)
        inside, outside = 0.5 + rho_label / 2, 0.5 + 2 * rho_label
        assert oracle.label_many(np.array([inside, outside])).tolist() == [-1, 1]
        # label_many answers [-1, 1] exactly when the reference eta is [0, 1]
        eta = eta_checked_against(oracle, np.array([inside, outside]), band=rho_label)
        np.testing.assert_array_equal(eta, [0.0, 1.0])
        # opposite sides of the boundary, both inside the comparison band: flipped,
        # so (a, b) answers -1 and (b, a) answers +1
        a, b = 0.5 + rho_comp / 2, 0.5 - rho_comp / 2
        assert oracle.compare(a, b) == -1
        assert oracle.compare(b, a) == 1
        assert oracle.counters == QueryCounters(4, 2)


class TestAccountingAndDeterminism:
    def test_counters_exact(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.1))
        oracle = Oracle(dataclasses.replace(spec, seed=11))
        xs = oracle.sample(50)
        oracle.label_many(xs)
        ask_pairs(oracle, xs[0:40:2], xs[1:40:2])
        assert oracle.counters == QueryCounters(50, 20)

    def test_identical_seed_identical_stream(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.3), seed=77)
        runs = []
        for _ in range(2):
            oracle = Oracle(spec)
            xs = oracle.sample(200)
            ys = oracle.label_many(xs).tolist()
            runs.append((xs, ys))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_instrumented_wrappers_agree_with_counters(self):
        # count invocations independently of the counters they increment;
        # the sort asks its comparisons of the ranking in batches, one per
        # level, and the group search asks its labels in batches, one per
        # instance
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.1), seed=5)
        oracle = Oracle(spec)
        calls = {"label": 0, "compare": 0}
        label_many, ranking = oracle.label_many, oracle.ranking

        def counting_label_many(xs):
            calls["label"] += len(xs)
            return label_many(xs)

        def counting_ranking(S):
            ranked = ranking(S)

            def counting_ask(pairs):
                calls["compare"] += pairs
                ranked.ask(pairs)
            return dataclasses.replace(ranked, ask=counting_ask)

        oracle.label_many = counting_label_many
        oracle.ranking = counting_ranking
        from adgac.core import RoundPlan, adgac
        xs = oracle.sample(300)
        adgac(xs, RoundPlan(0.1, 300, 4), oracle)
        assert calls["compare"] > 0
        assert calls["label"] > 0
        assert calls["label"] == oracle.counters.labels
        assert calls["compare"] == oracle.counters.comparisons


class TestLabelMany:
    WORLDS = {
        "uniform-massart": uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.2)),
        "uniform-tsybakov": uniform_scenario(
            0.5, LabelNoiseSpec(kind="tsybakov", kappa=1.5, mu=0.5)),
        "gaussian-d20-massart": gaussian_scenario(
            np.arange(1.0, 21.0), LabelNoiseSpec(kind="massart", beta=0.1)),
        "uniform-adversarial": uniform_scenario(
            0.5, LabelNoiseSpec(kind="adversarial", nu=0.05)),
    }

    @staticmethod
    def _batch(oracle, kind):
        spec = oracle.spec
        if kind == "empty":
            return np.empty((0,) if spec.d == 1 else (0, spec.d))
        xs = oracle.sample(500)
        if kind == "on-threshold":
            # g == 0 exactly: eta is 1/2, and the adversarial sign ties to +1
            xs[::3] = spec.ground_truth.threshold if spec.d == 1 else 0.0
        return xs

    @pytest.mark.parametrize("kind", ["sample", "on-threshold", "empty"])
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_matches_scalar_labels(self, world, kind):
        # one label_many call against the reference rule, which draws one
        # scalar rng.random() per instance from a copy of the stream: same
        # labels, m counted, and the same rng stream consumed
        spec = self.WORLDS[world]
        noise = spec.label_noise
        random = noise.kind != "adversarial"  # adversarial answers draw nothing
        band = 0.0 if random else calibrate_band(spec, noise.nu, "label")
        for seed in range(3):
            oracle = Oracle(dataclasses.replace(spec, seed=seed))
            xs = self._batch(oracle, kind)
            reference = copy.deepcopy(oracle.rng)
            before = oracle.rng.bit_generator.state
            ys = oracle.label_many(xs)
            drew = oracle.rng.bit_generator.state != before
            expected = []
            for g in score(spec, xs).tolist():
                eta = eta_reference(noise, g, band)
                if random:
                    expected.append(1 if reference.random() < eta else -1)
                else:
                    expected.append(1 if eta == 1.0 else -1)
            assert ys.dtype.kind == "i" and ys.shape == (len(xs),)
            np.testing.assert_array_equal(ys, np.array(expected, dtype=int))
            assert oracle.counters == QueryCounters(len(xs), 0)
            assert drew == (len(xs) > 0 and random)
            assert oracle.rng.random() == reference.random()


class TestRanking:
    BAND = ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.02)
    WORLDS = {
        "uniform-band": uniform_scenario(0.5, comparison_noise=BAND),
        "gaussian-d20-band": gaussian_scenario(np.arange(1.0, 21.0), comparison_noise=BAND),
    }

    @settings(max_examples=50, deadline=None)
    @given(world=st.sampled_from(sorted(WORLDS)), seed=st.integers(0, 2**32 - 1),
           pairs=st.integers(0, 200))
    def test_matches_one_compare_per_pair(self, world, seed, pairs):
        # per-pair pivots, both orientations, on a sample with many exact
        # ties: one ranking answers as the reference rule on each pair
        spec = self.WORLDS[world]
        oracle = Oracle(dataclasses.replace(spec, seed=seed))
        xs = oracle.sample(40)[oracle.rng.integers(0, 40, size=60)]
        idx, pivots = oracle.rng.integers(0, len(xs), size=(2, pairs))
        elem_first = oracle.rng.random(pairs) < 0.5
        before = oracle.rng.bit_generator.state
        below = answers(oracle.ranking(xs), idx, pivots, elem_first)
        assert oracle.counters.comparisons == pairs
        g = score(spec, xs).tolist()
        band = calibrate_band(spec, spec.comparison_noise.nu_prime, "comparison")
        expected = [compare_reference(g[i], g[p], band) == -1 if first
                    else compare_reference(g[p], g[i], band) == 1
                    for i, p, first in zip(idx, pivots, elem_first)]
        np.testing.assert_array_equal(below, np.array(expected, dtype=bool))
        # the ranking draws nothing and counts each pair once
        assert oracle.rng.bit_generator.state == before
        assert oracle.counters == QueryCounters(0, pairs)

    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_one_ranking_answers_every_pair(self, world):
        # the pair rule is one ranking: on scores at and next to 0 and the
        # band's edges, with exact duplicates, every ordered pair answers
        # as its ranks in either orientation when its keys differ, and by
        # which was asked first when they tie
        spec = self.WORLDS[world]
        band = calibrate_band(spec, spec.comparison_noise.nu_prime, "comparison")
        edges = np.array([0.0, -0.0, band, -band, band / 2, -band / 2, 2 * band, -2 * band])
        g = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            edges[[0, 2, 3, 4]]])
        order, tie = oracles._rank(g, band)
        rank, cls = np.empty_like(order), np.empty_like(tie)
        rank[order], cls[order] = np.arange(len(g)), tie
        assert sorted(order.tolist()) == list(range(len(g)))
        assert np.all(np.diff(tie) >= 0) and len(set(cls[[0, 1]])) == 1
        ri, rj = np.meshgrid(rank, rank, indexing="ij")
        ci, cj = np.meshgrid(cls, cls, indexing="ij")
        for coin in (True, False):
            # whether the reference ranks i below j, asked as (i, j) on
            # coin and as (j, i) otherwise
            below = [[compare_reference(gi, gj, band) == -1 if coin
                      else compare_reference(gj, gi, band) == 1 for gj in g.tolist()]
                     for gi in g.tolist()]
            expected = np.where(ci == cj, not coin, ri < rj)
            np.testing.assert_array_equal(np.array(below), expected)


class TestBatchesOfOne:
    """Oracle.label and Oracle.compare answer as label_many and the ranking
    about one instance or one pair.  On twin oracles they answer as the rows
    of one batch, add exactly 1 to their counter per call, and consume the
    same rng stream."""

    @pytest.mark.parametrize("world", sorted(TestLabelMany.WORLDS))
    def test_label_is_label_many_on_one_instance(self, world):
        spec = TestLabelMany.WORLDS[world]
        seeded = dataclasses.replace(spec, seed=3)
        one, many = Oracle(seeded), Oracle(seeded)
        xs = one.sample(300)
        many.sample(300)
        ys = many.label_many(xs)
        for i, x in enumerate(xs):
            y = one.label(x)
            assert type(y) is int and y == ys[i]
            assert one.counters == QueryCounters(i + 1, 0)
        assert one.rng.random() == many.rng.random()

    @pytest.mark.parametrize("world", sorted(TestRanking.WORLDS))
    def test_compare_is_the_ranking_on_one_pair(self, world):
        spec = TestRanking.WORLDS[world]
        seeded = dataclasses.replace(spec, seed=4)
        one, many = Oracle(seeded), Oracle(seeded)
        # few distinct instances, so many pairs tie
        xs = one.sample(30)[one.rng.integers(0, 30, size=300)]
        many.sample(30)[many.rng.integers(0, 30, size=300)]
        idx, pivots = np.arange(0, 300, 2), np.arange(1, 300, 2)
        below = answers(many.ranking(xs), idx, pivots, True)
        for n, (i, p) in enumerate(zip(idx, pivots), start=1):
            assert one.compare(xs[i], xs[p]) == (-1 if below[n - 1] else 1)
            assert one.counters == QueryCounters(0, n)
        assert one.rng.random() == many.rng.random()
