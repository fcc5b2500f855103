"""Comparison-assisted batch labeling (ADGAC).

Ranks a dataset with a noisy comparison oracle via randomized quicksort,
partitions the ranking into contiguous groups, binary-searches the group
where labels flip from -1 to +1 using small majority-vote label batches, and
emits a monotone-step labeling of the whole dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGroupingError(ValueError):
    """Group size collapsed below one in an unsupported configuration."""


@dataclass(frozen=True)
class AdgacParams:
    """Parameters of one labeling invocation.

    n is the ambient sample count the error budget refers to, m the size of
    the subset actually labeled, k the per-group label batch.  alpha * m =
    eps * n is the nominal group size before rounding.
    """

    n: int
    m: int
    eps: float
    delta: float
    k: int

    def __post_init__(self):
        # m > n is tolerated here; partition_groups rejects the harmful
        # combination (nominal group size below one with m exceeding n)
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("label batch size must be >= 1")

    @property
    def alpha(self) -> float:
        return self.eps * self.n / self.m

    @property
    def group_size(self) -> int:
        return max(1, int(round(self.alpha * self.m)))


@dataclass
class RankedGroups:
    """A sorted permutation of the input in contiguous groups of `size` ranks;
    the last group also takes the remainder, so it runs to m."""

    order: np.ndarray                 # rank -> original index
    size: int

    @property
    def n_groups(self) -> int:
        return max(1, len(self.order) // self.size) if len(self.order) else 0

    def span(self, gi: int) -> tuple[int, int]:
        """Group gi's [start, end) over ranks."""
        end = len(self.order) if gi == self.n_groups - 1 else (gi + 1) * self.size
        return gi * self.size, end


@dataclass
class AdgacResult:
    """Predicted labels aligned to the input order, plus exact accounting."""

    labels: np.ndarray
    n_groups: int
    label_queries: int
    groups: RankedGroups | None = None


def noisy_quicksort(items, comparator, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Randomized-pivot quicksort driven by a batch pivot comparator.

    comparator(idx, pivots, elem_first) says, pair by pair, whether item
    idx[j] ranks below item pivots[j], asked as (item, pivot) where
    elem_first[j] holds, else as (pivot, item); each orientation is a fair
    coin.  Oracle.pivot_comparator builds one.

    Each pass handles every segment of size >= 2 at one recursion depth,
    left to right: one rng.integers(0, sizes) draws every pivot, uniform in
    its segment, one rng.random(pairs) every orientation, and one comparator
    call answers every pair.  Each segment is partitioned stably (the items
    below its pivot, the pivot, the rest, each in their current order) into
    its left and right parts, the next level's segments.  Returns the
    permutation (rank -> input index) and the exact comparison count.
    """
    order, comparisons = np.arange(len(items)), 0
    starts, sizes = np.array([0]), np.array([len(items)])
    while True:
        starts, sizes = starts[sizes > 1], sizes[sizes > 1]
        if sizes.size == 0:
            return order, comparisons
        pivot_pos = starts + rng.integers(0, sizes)
        # every position of every segment but its pivot, segments left to right
        seg = np.repeat(np.arange(sizes.size), sizes)
        pos = np.arange(seg.size) - (np.cumsum(sizes) - sizes - starts)[seg]
        keep = pos != pivot_pos[seg]
        pos, seg = pos[keep], seg[keep]
        idx, pivots = order[pos], order[pivot_pos]
        below = comparator(idx, pivots[seg], rng.random(pos.size) < 0.5)
        comparisons += pos.size
        # stable ranks: among the segment's pairs, and among its pairs below
        pair_first = (np.cumsum(sizes - 1) - (sizes - 1))[seg]
        rank = np.arange(pos.size) - pair_first
        below_before = np.cumsum(below) - below
        rank_below = below_before - below_before[pair_first]
        n_below = np.bincount(seg[below], minlength=sizes.size)
        new_pivot = starts + n_below
        order[np.where(below, starts[seg] + rank_below,
                       new_pivot[seg] + 1 + rank - rank_below)] = idx
        order[new_pivot] = pivots
        starts = np.column_stack((starts, new_pivot + 1)).ravel()
        sizes = np.column_stack((n_below, sizes - n_below - 1)).ravel()


def partition_groups(order: np.ndarray, params: AdgacParams) -> RankedGroups:
    """Split the sorted ranking into contiguous groups of the nominal size.

    All groups have size max(1, round(alpha * m)); a nonzero remainder is
    merged into the last group, so its size lies in [g, 2g).
    """
    if len(order) == 0:
        return RankedGroups(order=order, size=1)
    if params.alpha * params.m < 1.0 and params.m > params.n:
        raise DegenerateGroupingError(
            f"nominal group size {params.alpha * params.m:.3g} < 1 with m={params.m} > n={params.n}")
    return RankedGroups(order=order, size=params.group_size)


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


def adgac(S, n: int, eps: float, delta: float, oracle, rng: np.random.Generator,
          k: int | None = None, kappa: float = 1.0, c3: float = 1.0) -> AdgacResult:
    """Label a dataset with comparisons plus a few label batches.

    S is the dataset to label (array of instances), n the ambient sample count
    for the error budget eps * n.  The oracle supplies pivot_comparator and
    label_many and owns the counters.  The label batch k is batch_size(eps,
    delta, kappa, c3) unless given.
    """
    m = len(S)
    if m == 0:
        return AdgacResult(labels=np.empty(0, dtype=int), n_groups=0, label_queries=0)
    if k is None:
        k = batch_size(eps, delta, kappa, c3)
    params = AdgacParams(n=n, m=m, eps=eps, delta=delta, k=k)

    order, _ = noisy_quicksort(S, oracle.pivot_comparator(S), rng)
    groups = partition_groups(order, params)
    t, label_count, votes, _ = group_binary_search(groups, S, oracle.label_many, k, rng)

    start, end = groups.span(t)
    # over ranks: -1 before group t, its majority on it, +1 after it
    yhat = np.empty(m, dtype=int)
    yhat[groups.order] = np.repeat([-1, 1 if votes[t] >= 0 else -1, 1],
                                   [start, end - start, m - end])
    return AdgacResult(labels=yhat, n_groups=groups.n_groups, label_queries=label_count,
                       groups=groups)


def batch_size(eps: float, delta: float, kappa: float = 1.0, c3: float = 1.0) -> int:
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
