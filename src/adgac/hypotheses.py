"""Finite hypothesis classes, version spaces, and disagreement regions.

The disagreement-based learner needs an explicit version space: infinite
classes are represented by finite grids.  The 1-D threshold grid gets an
exact interval treatment; arbitrary finite classes fall back to survivor
scans.
"""

from __future__ import annotations

import math

import numpy as np


class EmptyVersionSpaceError(RuntimeError):
    """Filtering removed every hypothesis; constants or noise are misconfigured."""


class ThresholdClass:
    """Finite grid of 1-D threshold classifiers h_t(x) = +1 iff x > t."""

    def __init__(self, grid):
        grid = np.sort(np.asarray(grid, dtype=float))
        if grid.size == 0:
            raise ValueError("threshold grid must be non-empty")
        self.grid = grid

    def __len__(self) -> int:
        return self.grid.size

    @property
    def vc_dim(self) -> float:
        # finite-class surrogate: log2 of the class size, floored at 1
        return max(1.0, math.log2(self.grid.size))

    def predict(self, idx: int, xs) -> np.ndarray:
        return np.where(np.asarray(xs, dtype=float) > self.grid[idx], 1, -1)

    def error_counts(self, xs, ys) -> np.ndarray:
        """Exact per-threshold disagreement counts on a labeled batch.

        h_t errs on a positive point iff x <= t and on a negative point iff
        x > t, so prefix counts over the sorted positives/negatives give all
        grid values in O((m + G) log m).
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys)
        pos = np.sort(xs[ys > 0])
        neg = np.sort(xs[ys < 0])
        pos_le = np.searchsorted(pos, self.grid, side="right")
        neg_gt = neg.size - np.searchsorted(neg, self.grid, side="right")
        return pos_le + neg_gt


class ExplicitClass:
    """Finite class given by explicit predictors mapping a batch to labels."""

    def __init__(self, predictors):
        if not predictors:
            raise ValueError("hypothesis class must be non-empty")
        self.predictors = list(predictors)

    def __len__(self) -> int:
        return len(self.predictors)

    @property
    def vc_dim(self) -> float:
        return max(1.0, math.log2(len(self.predictors)))

    def predict(self, idx: int, xs) -> np.ndarray:
        return np.asarray(self.predictors[idx](xs))

    def error_counts(self, xs, ys) -> np.ndarray:
        ys = np.asarray(ys)
        return np.array([int(np.sum(self.predict(i, xs) != ys)) for i in range(len(self))])


class VersionSpace:
    """Surviving hypothesis indices of a finite class.

    For a threshold grid fed monotone-step labelings the survivors stay a
    contiguous index interval; callers in that regime check is_contiguous()
    after filtering.  The disagreement region of a threshold survivor set is
    (t_lo, t_hi] for the extreme surviving thresholds either way.
    """

    def __init__(self, klass, alive: np.ndarray | None = None):
        self.klass = klass
        if alive is None:
            alive = np.ones(len(klass), dtype=bool)
        self.alive = alive
        if not self.alive.any():
            raise EmptyVersionSpaceError("version space is empty")

    def is_contiguous(self) -> bool:
        idx = np.flatnonzero(self.alive)
        return bool(idx.size == 0 or (idx[-1] - idx[0] + 1) == idx.size)

    def __len__(self) -> int:
        return int(self.alive.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    @property
    def first_index(self) -> int:
        return int(np.argmax(self.alive))

    def filter_by_counts(self, counts: np.ndarray, threshold: float) -> "VersionSpace":
        """Remove hypotheses whose weighted empirical error meets the threshold.

        Keeps exactly the survivors with count < threshold (removal on >=).
        Raises when nothing survives.
        """
        if threshold < 0:
            raise ValueError("filter threshold must be nonnegative")
        keep = self.alive & (np.asarray(counts) < threshold)
        if not keep.any():
            raise EmptyVersionSpaceError(
                f"no hypothesis below error threshold {threshold:.4g}")
        return VersionSpace(self.klass, keep)

    def dis_mask(self, xs) -> np.ndarray:
        """Membership of each instance in the disagreement region (exact)."""
        xs_arr = np.asarray(xs)
        n = xs_arr.shape[0]
        idx = self.indices
        if idx.size <= 1:
            return np.zeros(n, dtype=bool)
        if isinstance(self.klass, ThresholdClass):
            t_lo = self.klass.grid[idx[0]]
            t_hi = self.klass.grid[idx[-1]]
            vals = np.asarray(xs_arr, dtype=float)
            return (vals > t_lo) & (vals <= t_hi)
        base = self.klass.predict(idx[0], xs_arr)
        mask = np.zeros(n, dtype=bool)
        undecided = np.ones(n, dtype=bool)
        for i in idx[1:]:
            if not undecided.any():
                break
            diff = self.klass.predict(int(i), xs_arr) != base
            mask |= diff & undecided
            undecided &= ~diff
        return mask
