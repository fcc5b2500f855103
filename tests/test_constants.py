"""Tunable constants: one validity rule, and each constant wired to what it names."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from adgac import a2, bench, core, margin
from adgac.bench import ExperimentConfig
from adgac.core import DEFAULT_CONSTANTS, TunableConstants
from adgac.hypotheses import ThresholdClass
from adgac.oracles import LabelNoiseSpec, Oracle, gaussian_scenario, uniform_scenario

NAMES = [f.name for f in dataclasses.fields(TunableConstants)]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", NAMES)
def test_every_constant_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"constant {name} = "):
        TunableConstants(**{name: value})


def test_invalid_inline_key_is_named():
    with pytest.raises(ValueError, match="constant c1 = 0.0 must be finite and > 0"):
        ExperimentConfig.from_text("method = adgac-only\nc1 = 0\n")


@functools.cache
def _observe(constants: TunableConstants) -> dict:
    """Each quantity a constant may feed, read where the learners use it."""
    ks: list[int] = []
    real = core.adgac

    def spy(S, plan, oracle):
        ks.append(plan.k)
        return real(S, plan, oracle)

    def batches(run) -> tuple:
        ks.clear()
        run()
        return tuple(ks)

    rp = a2.RunParams(eps=0.1, delta=0.1, constants=constants)
    mparams = margin.MarginParams(eps=0.2, delta=0.2, constants=constants)
    sched = margin.MarginSchedule(mparams, d=2, label_kappa=1.0)
    noisy = uniform_scenario(0.5, LabelNoiseSpec(kind="massart", beta=0.2), seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "adgac", spy)
        cfg = ExperimentConfig(method="adgac-only", n_samples=200, constants=constants)
        return {
            "adgac-only k": batches(lambda: bench.run_single_trial(cfg, 0)),
            "a2 k": batches(lambda: a2.run_a2_adgac(
                Oracle(noisy), ThresholdClass(np.linspace(0.0, 1.0, 101)), rp)),
            # kappa = 1 reaches the deviation bound's c0, kappa = 1.5 the power-law term
            "a2 n": tuple(row.n for kappa in (1.0, 1.5) for row in a2.plan(rp, 1.0, kappa)),
            "margin k": batches(lambda: margin.run_margin_adgac(
                Oracle(gaussian_scenario([1.0, 0.0], seed=3)), mparams)),
            "margin eps_k": tuple(sched.eps_k(j) for j in range(sched.rounds + 1)),
            "margin n": tuple(sched.n(j) for j in range(sched.rounds + 1)),
        }


MOVES = {
    "C3": {"adgac-only k", "a2 k", "margin k"},
    "c3": {"margin eps_k"},
    "c4": {"margin eps_k"},
    "n_mult_margin": {"margin n"},
    "n_mult": {"a2 n"},
    "tnc_mult": {"a2 n"},
    "c0": {"a2 n"},
}


@pytest.mark.parametrize("name", sorted(MOVES))
def test_doubling_a_constant_moves_exactly_what_it_names(name):
    base = _observe(DEFAULT_CONSTANTS)
    doubled = _observe(dataclasses.replace(
        DEFAULT_CONSTANTS, **{name: 2.0 * getattr(DEFAULT_CONSTANTS, name)}))
    assert {q for q in base if doubled[q] != base[q]} == MOVES[name]
