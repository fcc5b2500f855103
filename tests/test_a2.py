"""Disagreement-based learner: deviation bound, sample sizes, round loop."""

import math

import numpy as np
import pytest

from adgac import a2, bench
from adgac.a2 import (BudgetExceededError, NonContiguousVersionSpaceError, RunParams,
                      choose_n_i, run_a2_adgac, run_baseline_a2, vc_bound_u)
from adgac.bench import ExperimentConfig, measure_error
from adgac.hypotheses import ThresholdClass
from adgac.oracles import LabelNoiseSpec, Oracle, uniform_scenario


class TestVcBound:
    def test_reference_value(self):
        # c0=1, d=2, n=100, gamma=0.1 -> (2 ln 50 + ln 10) / 100
        assert abs(vc_bound_u(100, 0.1, 2, 1.0) - 0.1013) < 1e-3

    def test_decreasing_in_n(self):
        vals = [vc_bound_u(n, 0.1, 2, 1.0) for n in (50, 100, 200, 400, 800)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonnegative(self):
        assert vc_bound_u(5, 0.999, 5, 1.0) >= 0.0

    @pytest.mark.parametrize("n,gamma,d", [(1, 0.1, 2), (10, 0.0, 1), (10, 1.0, 1)])
    def test_domain_rejections(self, n, gamma, d):
        with pytest.raises(ValueError):
            vc_bound_u(n, gamma, d, 1.0)


class TestChooseN:
    def test_matches_brute_scan(self):
        # d=1, delta=0.1, eps=0.05, round 1 at eps_1 = 1/8, adversarial noise
        params = RunParams(eps=0.05, delta=0.1)
        got = choose_n_i(1, 1.0, params, kappa=1.0)
        gamma = 0.1 / (4.0 * math.log2(20.0))
        scan = next(n for n in range(1, 10_000)
                    if (math.log(n) + math.log(1.0 / gamma)) / n <= 0.125)
        expected = max(scan, math.ceil(8.0 * math.log(10.0)))
        assert got == expected == 76

    def test_halving_eps_at_least_doubles_n(self):
        params = RunParams(eps=0.01, delta=0.1)
        ns = [choose_n_i(i, 1.0, params, kappa=1.0) for i in range(1, 6)]
        assert all(b >= 2 * a for a, b in zip(ns, ns[1:]))

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setattr(a2, "MAX_ROUND_SAMPLES", 10)
        params = RunParams(eps=0.05, delta=0.1)
        with pytest.raises(BudgetExceededError):
            choose_n_i(1, 1.0, params, kappa=1.0)

    def test_cap_checked_on_every_cached_call(self):
        args = (0.125, 0.0123, 1.0, 1.0)
        n = a2._smallest_n_for_bound(*args, 10_000)
        assert a2._smallest_n_for_bound(*args, 10_000) == n
        # a cached answer over a smaller cap still raises, and the raise is
        # not cached: it raises again, and the cap n answers
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                a2._smallest_n_for_bound(*args, n - 1)
        assert a2._smallest_n_for_bound(*args, n) == n


class TestRunA2:
    def test_singleton_class_returns_it_without_queries(self):
        oracle = Oracle(uniform_scenario(0.5))
        res = run_a2_adgac(oracle, ThresholdClass([0.5]), RunParams(eps=0.1, delta=0.1))
        assert res.hypothesis_index == 0
        assert res.flags == ["early-exit-round-1"]
        assert res.trace == [] and res.rounds_run == 0
        assert oracle.counters.snapshot() == (0, 0)

    def test_split_survivors_after_monotone_labels_raise(self):
        # a class whose error counts keep every other threshold alive breaks
        # the interval invariant that monotone-step labels guarantee
        class Alternating(ThresholdClass):
            def error_counts(self, xs, ys):
                return np.where(np.arange(len(self)) % 2 == 0, 0, len(xs))

        spec = uniform_scenario(0.5, seed=3)
        params = RunParams(eps=0.1, delta=0.1)
        with pytest.raises(NonContiguousVersionSpaceError):
            run_a2_adgac(Oracle(spec), Alternating(np.linspace(0.0, 1.0, 101)), params)

    def test_space_split_by_noisy_comparisons_raises_no_alarm(self):
        # band-adversarial comparisons inside the gate C2 eps^2 delta: an
        # earlier round's labels follow the noisy ranking and split the space,
        # and a later round with monotone-step labels leaves it split without
        # breaking the invariant, which covers a space that entered as an interval
        config = ExperimentConfig(method="a2-adgac", eps=0.1, delta=0.2, grid=673,
                                  comp_noise="band-adversarial", nu_prime=0.002,
                                  trials=1, seed=25)
        assert bench._gate_flags(config) == []
        (report,), _ = bench.run_trials(config)
        assert "error:" not in report.flags
        assert report.rounds == 4 and report.err <= config.eps

    def test_noiseless_threshold_battery(self):
        klass = ThresholdClass(np.linspace(0, 1, 1001))
        params = RunParams(eps=0.05, delta=0.1)
        hits = 0
        for seed in range(100):
            spec = uniform_scenario(0.5, seed=seed)
            res = run_a2_adgac(Oracle(spec), klass, params)
            err, _ = measure_error(
                lambda pts: klass.predict(res.hypothesis_index, pts), spec)
            hits += err <= 0.05
        assert hits >= 95

    def test_truth_index_never_filtered_noiseless(self):
        grid = np.linspace(0, 1, 501)
        klass = ThresholdClass(grid)
        # predict is +1 iff x > t, so the truth at 0.5 matches grid index 250
        truth_idx = int(np.argmin(np.abs(grid - 0.5)))
        params = RunParams(eps=0.05, delta=0.1)
        for seed in range(10):
            res = run_a2_adgac(Oracle(uniform_scenario(0.5, seed=seed)), klass, params)
            # noiseless monotone labels keep an interval of thresholds alive;
            # the returned hypothesis is its left edge, and the final trace
            # entry counts its survivors, so the interval holds the truth
            lo = res.hypothesis_index
            assert lo <= truth_idx < lo + res.trace[-1].survivors

    def test_label_accounting_exact(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.2), seed=5)
        klass = ThresholdClass(np.linspace(0, 1, 1001))
        params = RunParams(eps=0.05, delta=0.1)
        oracle = Oracle(spec)
        res = run_a2_adgac(oracle, klass, params)
        assert oracle.counters.labels == sum(t.labels for t in res.trace)
        assert oracle.counters.comparisons == sum(t.comparisons for t in res.trace)

    def test_per_round_label_bound(self):
        spec = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.2), seed=9)
        klass = ThresholdClass(np.linspace(0, 1, 1001))
        params = RunParams(eps=0.05, delta=0.1)
        gamma = params.delta / (4.0 * math.log2(1.0 / params.eps))
        res = run_a2_adgac(Oracle(spec), klass, params)
        from adgac.core import batch_size
        for t in res.trace:
            if t.subset_size == 0:
                assert t.labels == 0
                continue
            k_i = batch_size(t.eps_i, gamma, 1.0, params.constants.C3)
            groups = max(1, t.subset_size // max(1, round(t.eps_i * t.n_i)))
            # one extra batch can occur when every probe votes negative
            assert t.labels <= k_i * (math.ceil(math.log2(max(2, groups))) + 1)

    def test_class_size_free_labels(self):
        params = RunParams(eps=0.05, delta=0.1)
        medians = []
        for grid_size in (1000, 2000):
            labels = []
            for seed in range(10):
                oracle = Oracle(uniform_scenario(
                    0.5, LabelNoiseSpec(kind="massart", beta=0.2), seed=seed))
                klass = ThresholdClass(np.linspace(0, 1, grid_size))
                run_a2_adgac(oracle, klass, params)
                labels.append(oracle.counters.labels)
            medians.append(np.median(labels))
        assert abs(medians[0] - medians[1]) <= 0.10 * medians[1]

    def test_label_growth_per_eps_halving_is_mild(self):
        # halving the target error adds a round and slightly larger batches,
        # never a multiplicative blowup
        klass = ThresholdClass(np.linspace(0, 1, 2001))
        medians = []
        for eps in (0.1, 0.05, 0.025):
            labels = []
            for seed in range(10):
                oracle = Oracle(uniform_scenario(
                    0.5, LabelNoiseSpec(kind="massart", beta=0.2), seed=seed))
                run_a2_adgac(oracle, klass, RunParams(eps=eps, delta=0.1))
                labels.append(oracle.counters.labels)
            medians.append(np.median(labels))
        for prev, nxt in zip(medians, medians[1:]):
            assert nxt / prev <= 1.6


class TestBaseline:
    def test_noiseless_battery_no_comparisons(self):
        klass = ThresholdClass(np.linspace(0, 1, 1001))
        params = RunParams(eps=0.05, delta=0.1)
        hits = 0
        for seed in range(40):
            spec = uniform_scenario(0.5, seed=seed)
            oracle = Oracle(spec)
            res = run_baseline_a2(oracle, klass, params)
            assert oracle.counters.comparisons == 0
            err, _ = measure_error(
                lambda pts: klass.predict(res.hypothesis_index, pts), spec)
            hits += err <= 0.05
        assert hits >= 38

    def test_singleton_class_zero_queries(self):
        oracle = Oracle(uniform_scenario(0.5))
        run_baseline_a2(oracle, ThresholdClass([0.5]), RunParams(eps=0.1, delta=0.1))
        assert oracle.counters.snapshot() == (0, 0)

    def test_empty_round_leaves_space_unchanged(self):
        # a two-hypothesis class whose disagreement region has tiny mass:
        # rounds that catch no sample must not shrink the version space
        klass = ThresholdClass([0.5, 0.5 + 1e-9])
        params = RunParams(eps=0.25, delta=0.2)
        res = run_a2_adgac(Oracle(uniform_scenario(0.5, seed=3)), klass, params)
        for t in res.trace:
            if t.subset_size == 0:
                assert t.labels == 0 and t.comparisons == 0
        assert res.trace[-1].survivors == 2
