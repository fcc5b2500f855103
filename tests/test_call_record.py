"""The per-call record: each core.adgac call returns what it asked.

A trial's records add up to its oracle's counters, and a record shows the
group binary search's law: each probed group asks min(k, group size) labels.
That law is ROADMAP item 3's defect, pinned here as it stands: where the
groups are smaller than k, a probe's majority reads fewer labels than the
batch size derives for the delta guarantee.
"""

import numpy as np
import pytest

from adgac import a2, bench, core, margin
from adgac.bench import ExperimentConfig
from adgac.oracles import (ComparisonNoiseSpec, LabelNoiseSpec, Oracle, QueryCounters,
                           uniform_scenario)

MASSART = dict(label_noise="massart", beta=0.2)
CONFIGS = {
    "adgac-only": dict(eps=0.05, n_samples=1000, **MASSART),
    "a2-adgac": dict(eps=0.05, delta=0.1, grid=1001, **MASSART),
    "margin-adgac": dict(eps=0.2, delta=0.2, dist="isotropic-gaussian", d=3, **MASSART),
    "baseline-a2": dict(eps=0.05, delta=0.1, grid=1001, **MASSART),
    "passive-erm": dict(n_samples=300, grid=101, **MASSART),
}


def _sums(trace, labels: int = 0) -> tuple[int, int]:
    """labels plus the label queries, and the comparisons, of the trace's calls."""
    calls = [t.call for t in trace]
    return labels + sum(c.label_queries for c in calls), sum(c.comparisons for c in calls)


# method -> (the owner and name of the learner its trial calls once,
# (labels, comparisons) that learner's result and the config account for)
LEARNERS = {
    "adgac-only": (core, "adgac", lambda call, config: (call.label_queries, call.comparisons)),
    "a2-adgac": (a2, "run_a2_adgac", lambda res, config: _sums(res.trace)),
    "margin-adgac": (margin, "run_margin_adgac",
                     lambda res, config: _sums(res.trace, margin.SEED_BATCH)),
    "baseline-a2": (a2, "run_baseline_a2",
                    lambda res, config: (sum(t.subset_size for t in res.trace), 0)),
    "passive-erm": (bench, "passive_erm", lambda index, config: (config.n_samples, 0)),
}


def run_recorded(monkeypatch, config: ExperimentConfig):
    """One trial of config, and the result of each call of its method's learner."""
    owner, name, _ = LEARNERS[config.method]
    real, results = getattr(owner, name), []

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, spy)
    return bench.run_single_trial(config, 0), results


def assert_search_law(call):
    """Each probed group asked min(k, its size) labels, and the end group was probed."""
    sizes = [end - start for start, end in map(call.groups.span, call.votes)]
    assert call.label_queries == sum(min(call.plan.k, size) for size in sizes)
    assert call.boundary in call.votes


@pytest.mark.parametrize("method", sorted(bench.METHODS))
def test_trial_records_add_up_to_its_counters(method, monkeypatch):
    config = ExperimentConfig(method=method, seed=17, **CONFIGS[method])
    report, results = run_recorded(monkeypatch, config)
    assert "error:" not in report.flags
    assert len(results) == 1
    accounted = LEARNERS[method][2](results[0], config)
    assert accounted == (report.labels, report.comparisons)
    assert report.labels > 0


@pytest.mark.parametrize("n,eps,k,seed", [
    (1, 0.1, 3, 0), (2, 0.1, 3, 1), (200, 0.005, 3, 2), (1000, 0.05, 5, 3),
    (1003, 0.01, 40, 4), (500, 0.3, 2, 5), (64, 0.5, 100, 6),
])
def test_record_pins_the_search_law_and_the_sort_count(n, eps, k, seed):
    spec = uniform_scenario(0.3, LabelNoiseSpec(kind="massart", beta=0.2),
                            ComparisonNoiseSpec(kind="band-adversarial", nu_prime=0.01),
                            seed=seed)
    plan = core.RoundPlan(eps, n, k)
    oracle = Oracle(spec)
    call = core.adgac(oracle.sample(n), plan, oracle)
    assert call.plan == plan
    assert oracle.counters == QueryCounters(call.label_queries, call.comparisons)
    assert_search_law(call)
    # the same draws sorted alone ask the same comparisons, in the same order
    twin = Oracle(spec)
    xs = twin.sample(n)
    order, comparisons = core.noisy_quicksort(xs, twin.ranking, twin.rng, plan.group_size)
    assert comparisons == call.comparisons
    np.testing.assert_array_equal(order, call.groups.order)


@pytest.mark.parametrize("method", ["a2-adgac", "margin-adgac"])
def test_learner_records_keep_the_search_law(method, monkeypatch):
    _, (res,) = run_recorded(monkeypatch, ExperimentConfig(method=method, seed=5,
                                                           **CONFIGS[method]))
    calls = [t.call for t in res.trace if len(t.call.labels)]
    assert calls
    for call in calls:
        assert_search_law(call)


def test_margin_probes_ask_one_label_at_k_42(monkeypatch):
    # the AC-5 d = 5 world: eps_k n is far below 1, so every group is one
    # point and each probe's majority is one label, while k is 42
    config = ExperimentConfig(method="margin-adgac", dist="isotropic-gaussian", d=5,
                              eps=0.1, delta=0.2, seed=900, **MASSART)
    _, (res,) = run_recorded(monkeypatch, config)
    for t in res.trace:
        call = t.call
        assert (call.plan.group_size, call.plan.k) == (1, 42)
        assert call.label_queries == len(call.votes) >= 5
        assert_search_law(call)


def test_golden_n50_probes_ask_two_labels_at_k_17(monkeypatch):
    # the golden adgac-only config at seed 121: eps n = 2.5 makes groups of
    # 2 points, so each probe asks 2 labels while k is 17
    config = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1, n_samples=50,
                              seed=121, **MASSART)
    report, (call,) = run_recorded(monkeypatch, config)
    assert (call.plan.group_size, call.plan.k) == (2, 17)
    assert all(end - start == 2 for start, end in map(call.groups.span, call.votes))
    assert len(call.votes) == 5 and call.label_queries == report.labels == 10

