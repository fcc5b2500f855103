"""Disagreement-based active learning over a finite class.

Both learners share one round loop: sample unlabeled data, keep the part
inside the current disagreement region, obtain labels, and filter the version
space by weighted empirical error.  The comparison-assisted variant labels
each round's batch with the ADGAC subroutine; the label-only baseline queries
the labeling oracle directly for every retained instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .hypotheses import ThresholdClass, VersionSpace
from .oracles import Oracle

# whole-run query budgets; a run past either raises BudgetExceededError
MAX_LABELS = 10_000_000
MAX_COMPARISONS = 100_000_000
MAX_ROUND_SAMPLES = 2_000_000    # a round needing more raises BudgetExceededError


def _is_monotone_step(xs, ys) -> bool:
    """True when labels sorted by instance value change sign at most once, -1 to +1."""
    order = np.argsort(np.asarray(xs, dtype=float))
    sorted_ys = np.asarray(ys)[order]
    changes = np.flatnonzero(sorted_ys[1:] != sorted_ys[:-1])
    if changes.size == 0:
        return True
    return changes.size == 1 and sorted_ys[0] == -1


class BudgetExceededError(RuntimeError):
    """A round needs more samples or queries than the configured cap."""


class NonContiguousVersionSpaceError(RuntimeError):
    """Monotone-step labels, whose error profile is V-shaped, split an interval of survivors."""


class RunParams(core.LearnerParams):
    """Target error, failure probability, and the constants (c0, C3, n_mult, tnc_mult)."""

    SPLIT = 4

    @property
    def rounds(self) -> int:
        return max(1, math.ceil(math.log2(1.0 / self.eps)))


@dataclass
class RoundTrace:
    round: int
    plan: core.RoundPlan
    subset_size: int
    labels: int
    comparisons: int
    survivors: int


@dataclass
class RunResult:
    hypothesis_index: int
    rounds_run: int
    trace: list[RoundTrace] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


def vc_bound_u(n, gamma: float, d: float, c0: float):
    """Uniform deviation bound c0 * (d log(n/d) + log(1/gamma)) / n, elementwise in n."""
    if d < 1 or np.any(np.asarray(n) < d):
        raise ValueError("need n >= d >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return c0 * (d * np.log(n / d) + math.log(1.0 / gamma)) / n


@functools.lru_cache(maxsize=None)
def _smallest_n_for_bound(eps_i: float, gamma: float, d: float, c0: float, cap: int) -> int:
    """Smallest integer n >= d with vc_bound_u(n, gamma, d, c0) <= eps_i.

    Raises BudgetExceededError when no n <= cap qualifies; a raise is not
    cached, so every call over the cap raises.
    """
    start = int(math.ceil(d))
    lo = start
    block = 1024
    while lo <= cap:
        hi = min(lo + block, cap + 1)
        ns = np.arange(lo, hi, dtype=float)
        ok = np.flatnonzero(vc_bound_u(ns, gamma, d, c0) <= eps_i)
        if ok.size:
            return int(ns[ok[0]])
        lo = hi
        block *= 4
    raise BudgetExceededError(f"no n <= {cap} meets the deviation bound at eps_i={eps_i:.4g}")


def plan(params: RunParams, d: float, kappa: float):
    """Yield round i's RoundPlan when asked, i = 1 .. params.rounds: eps_i = 2^-(i+2);
    n_i, n_mult times the larger of the least n meeting the deviation bound at eps_i and
    gamma and tnc_mult (1/eps_i)^(2 kappa - 1) log(1/delta), capped; and k_i =
    batch_size(eps_i, gamma, kappa, C3), which the label-only baseline never reads."""
    c = params.constants
    for i in range(1, params.rounds + 1):
        eps_i = 2.0 ** -(i + 2)
        n_u = _smallest_n_for_bound(eps_i, params.gamma, d, c.c0, MAX_ROUND_SAMPLES)
        term = c.tnc_mult * (1.0 / eps_i) ** (2.0 * kappa - 1.0) * math.log(1.0 / params.delta)
        n = int(math.ceil(c.n_mult * max(n_u, term)))
        if n > MAX_ROUND_SAMPLES:
            raise BudgetExceededError(f"round {i} needs n={n} > cap {MAX_ROUND_SAMPLES}")
        yield core.RoundPlan(eps_i, n, core.batch_size(eps_i, params.gamma, kappa, c.C3))


def run_a2_adgac(oracle: Oracle, klass, params: RunParams) -> RunResult:
    """Comparison-assisted disagreement learner; returns the first survivor."""
    return _run_rounds(oracle, klass, params, use_comparisons=True)


def run_baseline_a2(oracle: Oracle, klass, params: RunParams) -> RunResult:
    """Label-only baseline: every retained instance is labeled directly.

    Filtering uses the excess-error form (count above the round's best
    hypothesis), which reduces to the absolute rule on clean labels but keeps
    the optimum alive when the direct labels themselves are noisy.
    """
    return _run_rounds(oracle, klass, params, use_comparisons=False)


def _run_rounds(oracle: Oracle, klass, params: RunParams, use_comparisons: bool) -> RunResult:
    space = VersionSpace(klass)
    trace: list[RoundTrace] = []
    flags: list[str] = []
    rows = plan(params, klass.vc_dim, oracle.spec.label_noise.effective_kappa)
    for i in range(1, params.rounds + 1):
        if len(space) == 1:
            flags.append(f"early-exit-round-{i}")
            break
        row = next(rows)  # after the early exit: a round never run may be over the cap
        s_tilde = oracle.sample(row.n)
        mask = space.dis_mask(s_tilde)
        subset = s_tilde[mask]
        labels_before, comps_before = oracle.counters.snapshot()
        if len(subset) > 0:
            if use_comparisons:
                result = core.adgac(subset, row, oracle)
                counts = klass.error_counts(subset, result.labels)
                was_interval = isinstance(klass, ThresholdClass) and space.is_contiguous()
                space = space.filter_by_counts(counts, row.n * row.eps)
                if (was_interval and _is_monotone_step(subset, result.labels)
                        and not space.is_contiguous()):
                    raise NonContiguousVersionSpaceError(
                        f"round {i}: monotone-step labels must keep an interval alive")
            else:
                counts = klass.error_counts(subset, oracle.label_many(subset))
                alive_min = counts[space.alive].min()
                space = space.filter_by_counts(counts - alive_min, row.n * row.eps)
        labels_after, comps_after = oracle.counters.snapshot()
        trace.append(RoundTrace(round=i, plan=row, subset_size=len(subset),
                                labels=labels_after - labels_before,
                                comparisons=comps_after - comps_before,
                                survivors=len(space)))
        if oracle.counters.labels > MAX_LABELS:
            raise BudgetExceededError("label budget exhausted")
        if oracle.counters.comparisons > MAX_COMPARISONS:
            raise BudgetExceededError("comparison budget exhausted")

    return RunResult(hypothesis_index=space.first_index, rounds_run=len(trace),
                     trace=trace, flags=flags)
