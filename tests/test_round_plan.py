"""The round plan: every trace row keeps the RoundPlan its labeling read, and
that row alone bounds the labels the labeling's record says it asked for.

One adgac call on m points with g = plan.group_size ranks per group has
G = max(1, floor(m / g)) groups, the last of L = m - (G - 1) g ranks.  Its
binary search probes at least floor(log2 G) groups of at least min(k, g)
labels each, and at most ceil(log2 G) + 1 groups of at most min(k, L).
"""

import numpy as np
import pytest

from adgac import a2, bench, core, margin
from adgac.bench import ExperimentConfig
from adgac.hypotheses import ThresholdClass
from adgac.oracles import LabelNoiseSpec, Oracle, gaussian_scenario, uniform_scenario

NOISES = {"massart": LabelNoiseSpec(kind="massart", beta=0.2),
          "tsybakov": LabelNoiseSpec(kind="tsybakov", kappa=1.5, mu=0.5)}
KLASS = ThresholdClass(np.linspace(0.0, 1.0, 1001))
SEEDS = range(40)


def label_band(m: int, plan: core.RoundPlan) -> tuple[int, int]:
    """The least and the most labels one adgac call on m points may ask."""
    if m == 0:
        return 0, 0
    g = plan.group_size
    groups = max(1, m // g)
    last = m - (groups - 1) * g
    floor_log, ceil_log = groups.bit_length() - 1, (groups - 1).bit_length()
    return floor_log * min(plan.k, g), (ceil_log + 1) * min(plan.k, last)


def test_label_band_reference_values():
    assert label_band(0, core.RoundPlan(0.1, 100, 5)) == (0, 0)
    # g = 10, G = 10, L = 10: 3 to 5 probes of 5 labels
    assert label_band(100, core.RoundPlan(0.1, 100, 5)) == (15, 25)
    # g = 10, G = 10, L = 13: probes of min(12, 10) to min(12, 13) labels
    assert label_band(103, core.RoundPlan(0.1, 100, 12)) == (30, 60)
    # g > m: one group of all m points, probed once
    assert label_band(7, core.RoundPlan(0.5, 100, 3)) == (0, 3)


@pytest.mark.parametrize("noise", sorted(NOISES))
def test_a2_rows_keep_their_plan_and_lie_in_its_band(noise):
    params = a2.RunParams(eps=0.05, delta=0.1)
    for seed in SEEDS:
        oracle = Oracle(uniform_scenario(0.5, NOISES[noise], seed=seed))
        res = a2.run_a2_adgac(oracle, KLASS, params)
        rows = a2.plan(params, KLASS.vc_dim, oracle.spec.label_noise.effective_kappa)
        assert [t.plan for t in res.trace] == [next(rows) for _ in res.trace]
        for t in res.trace:
            assert t.call.plan == t.plan and len(t.call.labels) == t.subset_size
            lo, hi = label_band(t.subset_size, t.plan)
            assert lo <= t.call.label_queries <= hi, (seed, t)


def test_baseline_rows_label_every_retained_instance():
    params = a2.RunParams(eps=0.05, delta=0.1)
    for seed in SEEDS:
        oracle = Oracle(uniform_scenario(0.5, NOISES["massart"], seed=seed))
        res = a2.run_baseline_a2(oracle, KLASS, params)
        assert res.trace and all(t.call is None for t in res.trace)
        assert oracle.counters.labels == sum(t.subset_size for t in res.trace)


def test_margin_rows_keep_their_plan_and_lie_in_its_band():
    params = margin.MarginParams(eps=0.1, delta=0.2)
    w_star = np.eye(5)[0]
    for seed in range(3):
        oracle = Oracle(gaussian_scenario(w_star, NOISES["massart"], seed=seed))
        res = margin.run_margin_adgac(oracle, params)
        assert [t.call.plan for t in res.trace] == list(res.schedule.plan())
        for t in res.trace:
            lo, hi = label_band(len(t.call.labels), t.call.plan)
            assert lo <= t.call.label_queries <= hi, (seed, t.call)


@pytest.mark.parametrize("k", [0, 3])
def test_adgac_only_call_lies_in_its_band(k):
    config = ExperimentConfig(method="adgac-only", n_samples=1500, k=k, trials=1, seed=7,
                              label_noise="massart", beta=0.2)
    report = bench.run_single_trial(config, 0)
    plan = core.RoundPlan(config.eps, config.n_samples, bench._adgac_only_params(config))
    lo, hi = label_band(config.n_samples, plan)
    assert 0 < lo <= report.labels <= hi
