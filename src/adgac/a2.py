"""Disagreement-based active learning over a finite class: A2.

Both learners run one round loop: sample unlabeled data, keep the part
inside the current disagreement region, label it, and keep the hypotheses
whose error count on it lies within n_i eps_i of the round's best survivor.
They differ only in the labeling step: A2-ADGAC labels each round's batch
with the ADGAC subroutine, and the label-only baseline queries the labeling
oracle directly for every retained instance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import BudgetExceededError
from .hypotheses import ThresholdClass, VersionSpace
from .oracles import Oracle

# whole-run query budgets; a run past either raises BudgetExceededError
MAX_LABELS = 10_000_000
MAX_COMPARISONS = 100_000_000
MAX_ROUND_SAMPLES = 2_000_000    # a round needing more raises BudgetExceededError


def _is_monotone_step(xs, ys) -> bool:
    """True when +-1 labels sorted by instance value change sign at most once,
    -1 to +1: when they never decrease."""
    sorted_ys = np.asarray(ys)[np.argsort(np.asarray(xs, dtype=float))]
    return bool(np.all(sorted_ys[1:] >= sorted_ys[:-1]))


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
    """A round's plan, the size of the subset it labeled, the labeling call's
    record (None on a baseline round, which asks subset_size labels and no
    comparisons), and the survivors after the round."""

    plan: core.RoundPlan
    subset_size: int
    call: core.AdgacResult | None
    survivors: int


@dataclass
class RunResult:
    hypothesis_index: int
    trace: list[RoundTrace] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def rounds_run(self) -> int:
        return len(self.trace)


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
    """A2-ADGAC: A2 whose rounds are labeled by ADGAC, a comparison ranking plus
    a few label batches per round; returns the first survivor."""
    def label(subset, row):
        call = core.adgac(subset, row, oracle)
        return call.labels, call

    return _run_rounds(oracle, klass, params, label)


def run_baseline_a2(oracle: Oracle, klass, params: RunParams) -> RunResult:
    """Label-only A2: every retained instance is labeled directly; returns the
    first survivor."""
    return _run_rounds(oracle, klass, params,
                       lambda subset, row: (oracle.label_many(subset), None))


def _run_rounds(oracle: Oracle, klass, params: RunParams, label) -> RunResult:
    """A2's round loop (Balcan, Beygelzimer & Langford, ICML 2006), with
    label(subset, row) -> (labels, the call's record or None) as its labeling step.

    Round i keeps a hypothesis when its error count on the round's labeled
    subset lies below n_i eps_i above the least count among the survivors, so
    the round's best survivor always stays.  A threshold interval that monotone-
    step labels split raises NonContiguousVersionSpaceError: their error
    profile is V-shaped, so its sublevel sets are intervals.
    """
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
        subset = s_tilde[space.dis_mask(s_tilde)]
        # an empty subset costs no query, and its zero counts keep every survivor
        ys, call = label(subset, row)
        counts = klass.error_counts(subset, ys)
        was_interval = isinstance(klass, ThresholdClass) and space.is_contiguous()
        space = space.filter_by_counts(counts - counts[space.alive].min(), row.n * row.eps)
        if was_interval and not space.is_contiguous() and _is_monotone_step(subset, ys):
            raise NonContiguousVersionSpaceError(
                f"round {i}: monotone-step labels must keep an interval alive")
        trace.append(RoundTrace(row, len(subset), call, survivors=len(space)))
        if oracle.counters.labels > MAX_LABELS:
            raise BudgetExceededError("label budget exhausted")
        if oracle.counters.comparisons > MAX_COMPARISONS:
            raise BudgetExceededError("comparison budget exhausted")

    return RunResult(hypothesis_index=space.first_index, trace=trace, flags=flags)
