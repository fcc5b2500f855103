"""Comparison-assisted batch labeling (ADGAC), and the lab's tunable constants.

Ranks a dataset with a noisy comparison oracle down to contiguous groups of
ranks (a randomized quicksort that stops splitting a segment lying inside one
group, so the order within a group is unspecified), binary-searches the group
where labels flip from -1 to +1 using small majority-vote label batches, and
emits a monotone-step labeling of the whole dataset.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class TunableConstants:
    """Leading constants left unstated by the guarantees, frozen by a one-time
    calibration battery (see README); serialized with every report.  The one
    home of their defaults: the learners' parameters carry one of these."""

    C2: float = 1.0      # comparison-noise gate nu' <= C2 eps^(2 kappa) delta
    C3: float = 5.0      # label batch multiplier in k formulas
    C4: float = 1.0      # adversarial label gate nu <= C4 eps
    c0: float = 1.0      # deviation bound constant
    c1: float = 0.2      # log-concave: 1-D density floor
    c2: float = 0.28     # log-concave: angle-to-disagreement
    c3: float = 1.0      # log-concave: band mass
    c4: float = 2.0      # log-concave: band second moment
    c1p: float = 1.0     # band width constant
    n_mult: float = 1.0         # leading multiplier for disagreement rounds
    n_mult_margin: float = 0.4  # leading multiplier for margin rounds
    tnc_mult: float = 1.0       # multiplier on the power-law sample term

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"constant {f.name} = {value!r} must be finite and > 0")


DEFAULT_CONSTANTS = TunableConstants()


@dataclass(frozen=True)
class LearnerParams:
    """A learner's target: error eps, failure probability delta, and the constants.
    Each labeling round gets the failure share gamma = delta / (SPLIT log2(1/eps))."""

    SPLIT: ClassVar[int]

    eps: float
    delta: float
    constants: TunableConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.gamma >= 1.0:
            raise ValueError(f"per-round failure share delta / ({self.SPLIT} log2(1/eps))"
                             " must be below 1")

    @property
    def gamma(self) -> float:
        """The per-round failure share delta / (SPLIT log2(1/eps))."""
        return self.delta / (self.SPLIT * math.log2(1.0 / self.eps))


def group_of(ranks, m: int, size: int):
    """The group of each rank among m ranks in groups of `size`: ranks
    [j size, (j + 1) size) are group j, and the last group also takes the
    remainder, so group(r) = min(r // size, max(1, m // size) - 1)."""
    return np.minimum(ranks // size, max(1, m // size) - 1)


@dataclass
class RankedGroups:
    """A permutation of the input ranked down to contiguous groups of `size`
    ranks, as group_of assigns them; the last group runs to m."""

    order: np.ndarray                 # rank -> original index
    size: int

    @property
    def n_groups(self) -> int:
        m = len(self.order)
        return int(group_of(m - 1, m, self.size)) + 1 if m else 0

    def span(self, gi: int) -> tuple[int, int]:
        """Group gi's [start, end) over ranks: the ranks group_of puts in gi."""
        end = len(self.order) if gi == self.n_groups - 1 else (gi + 1) * self.size
        return gi * self.size, end


class BudgetExceededError(RuntimeError):
    """A round needs more samples or queries than the configured cap."""


@dataclass(frozen=True)
class RoundPlan:
    """One adgac call's budget: error target eps, ambient sample count n, label batch k."""

    eps: float
    n: int
    k: int

    @property
    def group_size(self) -> int:
        """Ranks per group: the error budget eps * n, rounded, at least 1."""
        return max(1, round(self.eps * self.n))


@dataclass
class AdgacResult:
    """One adgac call's record: its plan, the labels it predicts (aligned to the
    input order), the ranked groups, what it asked (the sort's comparisons and
    the search's label queries), each probed group's vote sum, and the end
    group, None on an empty input, where no probe runs."""

    plan: RoundPlan
    labels: np.ndarray
    groups: RankedGroups
    comparisons: int
    label_queries: int
    votes: dict[int, int]
    boundary: int | None


def noisy_quicksort(items, ranking, rng: np.random.Generator,
                    group: int) -> tuple[np.ndarray, int]:
    """Randomized-pivot quicksort asking the comparison oracle, sorting only
    down to groups of `group` ranks (group_of's rule).

    ranking(items) returns the oracle's answers as one oracles.Ranking
    (Oracle.ranking is one); it is asked only when m >= 2.  The sort is
    level-synchronous: each pass handles every segment at one recursion depth
    whose first and last ranks lie in different groups, left to right; a
    segment inside one group is left unsplit.  At group = 1 that is every
    segment of size >= 2, a full sort.  One rng.integers(0, sizes) draws every
    pivot, uniform over its segment's items in input order, and one
    rng.random(pairs) every orientation, a fair coin per (item, pivot) pair.
    Each segment splits into the items the oracle ranks below its pivot and
    the rest, the next level's segments; each lists its items by input index.

    A segment holds a range of the ranking's ranks, so the pass splits it at
    its pivot's rank, and reads a coin only for an item that ties with the
    pivot: asked (item, pivot) on heads, the tie ranks the item above.  Both
    are what a pairwise quicksort making the same draws, one comparison per
    pair, would do.  Returns the permutation (rank -> input index; an unsplit
    segment in input order) and the exact comparison count, about
    2m ln(m / group) + O(m) for distinct items under a perfect comparator.
    """
    m = len(items)
    if m < 2:
        return np.arange(m), 0
    ranked = ranking(items)
    by_rank, tie = ranked.order.copy(), ranked.tie   # ties swap ranks as they split
    has_ties = tie[-1] < m - 1
    rank_of = np.empty(m, dtype=np.intp)
    rank_of[by_rank] = np.arange(m)
    cut = np.zeros(m + 1, dtype=bool)                # the first rank of each final segment
    cut[0] = True
    comparisons = 0
    starts, sizes = np.array([0]), np.array([m])
    while True:
        split = group_of(starts, m, group) < group_of(starts + sizes - 1, m, group)
        starts, sizes = starts[split], sizes[split]
        if sizes.size == 0:
            break
        offsets = rng.integers(0, sizes)
        first = sizes.cumsum() - sizes
        total = int(first[-1] + sizes[-1])
        pairs = total - sizes.size
        coins = rng.random(pairs)
        ranked.ask(pairs)
        comparisons += pairs
        # every segment's items in input order, segments left to right
        ranks = np.arange(total) + (starts - first).repeat(sizes)
        in_order = (starts * m).repeat(sizes) + by_rank[ranks]
        in_order.sort()
        pivots = in_order[first + offsets] % m
        at = rank_of[pivots]
        if has_ties:
            _split_ties(at, starts, sizes, in_order, coins, by_rank, rank_of, tie)
        cut[at] = True
        cut[at + 1] = True
        starts, sizes = (np.array((starts, at + 1)).T.ravel(),
                         np.array((at - starts, starts + sizes - at - 1)).T.ravel())
    # each final segment's items in input order, at its ranks
    seg_start = np.maximum.accumulate(np.where(cut[:m], np.arange(m), 0))
    order = seg_start * m + by_rank
    order.sort()
    return order % m, comparisons


def _split_ties(at, starts, sizes, in_order, coins, by_rank, rank_of, tie):
    """noisy_quicksort's split where a pivot ties with other items of its
    segment: each such item goes below the pivot on tails, above it on heads,
    by the coin of its (item, pivot) pair.  Moves the tied items' ranks in
    by_rank and rank_of, and the pivots' ranks in at."""
    m = len(by_rank)
    cls = tie[at]
    lo = np.maximum(tie.searchsorted(cls), starts)
    hi = np.minimum(tie.searchsorted(cls, side="right"), starts + sizes)
    tied = np.flatnonzero(hi - lo > 1)
    if tied.size == 0:
        return
    first = sizes.cumsum() - sizes
    pivots = by_rank[at]
    n = hi[tied] - lo[tied]
    seg = tied.repeat(n)
    r = np.arange(n.sum()) + (lo[tied] - (n.cumsum() - n)).repeat(n)
    item = by_rank[r]
    # a pair's coin sits at its item's place among the segment's items in
    # input order, the pivot skipped; the pivot's own row reads coin 0
    is_pivot = item == pivots[seg]
    place = in_order.searchsorted(starts[seg] * m + item) - first[seg]
    pair = first[seg] - seg + place - (item > pivots[seg])
    heads = coins[np.where(is_pivot, 0, pair)] < 0.5
    side = np.where(is_pivot, 1, np.where(heads, 2, 0))   # below, the pivot, above
    by_rank[r] = item[np.lexsort((side, seg))]
    rank_of[by_rank[r]] = r
    at[tied] = lo[tied] + np.bincount(seg[side == 0], minlength=at.size)[tied]


def group_binary_search(groups: RankedGroups, items, label_query, k: int,
                        rng: np.random.Generator) -> tuple[int, int, dict[int, int], int]:
    """Binary-search the first group whose label-batch majority is positive.

    At each probed group, min(k, group size) points are sampled uniformly
    without replacement and their label sum decides the move; a tie counts as
    positive.  label_query takes the probe's points as one batch and returns
    their labels (Oracle.label_many).  If the search lands on a group that was
    never probed (possible only when every probe voted negative, or with a
    single group), that group is probed once so its majority is taken from
    actual labels.

    Returns (boundary group, exact label count, per-group vote sums, probes).
    """
    n_groups = groups.n_groups
    if n_groups == 0:
        return 0, 0, {}, 0
    votes: dict[int, int] = {}
    label_count = 0
    probes = 0

    def probe(gi: int) -> int:
        nonlocal label_count, probes
        start, end = groups.span(gi)
        size = end - start
        take = min(k, size)
        ranks = rng.choice(size, size=take, replace=False) + start
        total = int(np.sum(label_query(items[groups.order[ranks]])))
        votes[gi] = total
        label_count += take
        probes += 1
        return total

    t_min, t_max = 0, n_groups - 1
    while t_min < t_max:
        t = (t_min + t_max) // 2
        if probe(t) >= 0:
            t_max = t
        else:
            t_min = t + 1
    t = t_min
    if t not in votes:
        probe(t)
    return t, label_count, votes, probes


def adgac(S, plan: RoundPlan, oracle) -> AdgacResult:
    """Label the instances S with comparisons plus a few label batches, at plan's
    group size and label batch per probed group.  The oracle supplies
    ranking, label_many and the rng stream, and owns the counters."""
    m = len(S)
    if m == 0:
        return AdgacResult(plan, np.empty(0, dtype=int), RankedGroups(np.arange(0), 1),
                           comparisons=0, label_queries=0, votes={}, boundary=None)
    if not 0.0 < plan.eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if plan.k < 1:
        raise ValueError("label batch size must be >= 1")

    order, comparisons = noisy_quicksort(S, oracle.ranking, oracle.rng, plan.group_size)
    groups = RankedGroups(order, size=plan.group_size)
    t, label_queries, votes, _ = group_binary_search(groups, S, oracle.label_many, plan.k,
                                                     oracle.rng)

    start, end = groups.span(t)
    # over ranks: -1 before group t, its majority on it, +1 after it
    yhat = np.empty(m, dtype=int)
    yhat[groups.order] = np.repeat([-1, 1 if votes[t] >= 0 else -1, 1],
                                   [start, end - start, m - end])
    return AdgacResult(plan, yhat, groups, comparisons, label_queries, votes, boundary=t)


def batch_size(eps: float, delta: float, kappa: float, c3: float) -> int:
    """Label batch size per probed group: c3 log(log(1/eps) / delta) (1/eps)^(2 kappa - 2).

    kappa is the label noise exponent (LabelNoiseSpec.effective_kappa);
    kappa = 1, the bounded massart or adversarial case, makes the power
    factor exactly 1.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if c3 <= 0.0:
        raise ValueError("batch constant must be positive")
    if kappa < 1.0:
        raise ValueError("noise exponent must be >= 1")
    val = c3 * math.log(math.log(1.0 / eps) / delta) * (1.0 / eps) ** (2.0 * kappa - 2.0)
    return max(1, math.ceil(val))
