"""A trial draws only from its oracle: a world's seed is not a second stream.

Each learner is run twice with two oracles on the same stream,
default_rng(5), over worlds that differ only in their seed.  Drawing
anything from default_rng(spec.seed) would split the runs apart.
"""

import dataclasses

import numpy as np
import pytest

from adgac import a2, bench, core, margin
from adgac.hypotheses import ThresholdClass
from adgac.oracles import LabelNoiseSpec, Oracle, gaussian_scenario, uniform_scenario

MASSART = LabelNoiseSpec(kind="massart", beta=0.2)
UNIFORM_WORLD = uniform_scenario(0.5, MASSART)
GAUSSIAN_WORLD = gaussian_scenario([0.6, 0.8, 0.0], MASSART)
KLASS = ThresholdClass(np.linspace(0.0, 1.0, 1001))
RUN_PARAMS = a2.RunParams(eps=0.05, delta=0.1)

CASES = {
    "adgac": (UNIFORM_WORLD, lambda oracle: core.adgac(
        oracle.sample(2000), core.RoundPlan(0.05, 2000, 5), oracle)),
    "a2-adgac": (UNIFORM_WORLD, lambda oracle: a2.run_a2_adgac(oracle, KLASS, RUN_PARAMS)),
    "baseline-a2": (UNIFORM_WORLD, lambda oracle: a2.run_baseline_a2(oracle, KLASS, RUN_PARAMS)),
    "margin-adgac": (GAUSSIAN_WORLD, lambda oracle: margin.run_margin_adgac(
        oracle, margin.MarginParams(eps=0.2, delta=0.2))),
    "passive-erm": (UNIFORM_WORLD, lambda oracle: bench.passive_erm(oracle, KLASS, 300)),
}


def _fields(result):
    """A result's fields as plain data; the margin schedule is derived from
    the parameters alone and has no equality of its own."""
    if not dataclasses.is_dataclass(result):
        return result
    return {name: value for name, value in dataclasses.asdict(result).items()
            if name != "schedule"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trial_draws_only_from_its_oracle(name):
    world, run = CASES[name]
    runs = []
    for seed in (0, 1):
        oracle = Oracle(dataclasses.replace(world, seed=seed))
        oracle.rng = np.random.default_rng(5)
        result = run(oracle)
        runs.append((_fields(result), dataclasses.astuple(oracle.counters),
                     oracle.rng.bit_generator.state))
    assert runs[0][1] != (0, 0)
    np.testing.assert_equal(runs[0], runs[1])
