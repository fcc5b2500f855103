"""Numerical checks of the comparison-noise minimax identity.

Builds the worst-case monotone distortion of a score distribution that hides
sqrt(nu') of each class across the decision boundary, measures the induced
pairwise-comparison error and the best achievable threshold error on
equal-mass quantile grids, and verifies the combinatorial inequality that
links the two.  All integrals are discretized on quantile grids following a
Riemann construction, with a one-cell slop budget of 4/n per estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LemmaStack:
    """Lemma instances as rows: row r is the nonnegative x = xs[r, :ns[r]],
    y = ys[r, :ns[r]] with constraint sum_i sum_{j>=i} x_i y_j <= t[r], and
    zeros past ns[r].  One instance is a one-row stack."""

    xs: np.ndarray
    ys: np.ndarray
    ns: np.ndarray
    t: np.ndarray

    @property
    def bound(self) -> np.ndarray:
        """The bound sqrt(2 n t / (n + 1)) on each row's min_k f(k).  It uses
        the row's own n: the padded width would weaken the bound."""
        return np.sqrt(2.0 * self.ns * self.t / (self.ns + 1.0))


def make_lemma_instance(xs, ys, ns=None) -> LemmaStack:
    """Validate entries and set each row's t to its achieved constraint value.

    With ``ns``, xs and ys are 2-D stacks of rows zero-padded past each row's
    length ns[r].  Without it, 1-D xs and ys are one instance, the one-row
    stack.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ns is None:
        # a 2-D xs or ys becomes 3-D here, and the shape check rejects it
        xs, ys, ns = xs[None], ys[None], [xs.size]
    ns = np.asarray(ns, dtype=int)
    if (xs.shape != ys.shape or xs.ndim != 2 or ns.shape != xs.shape[:1]
            or (ns < 1).any() or (ns > xs.shape[1]).any()):
        raise ValueError("need two equal-length non-empty sequences")
    if (xs < 0).any() or (ys < 0).any():
        raise ValueError("entries must be nonnegative")
    padding = np.arange(xs.shape[1]) >= ns[:, None]
    if xs[padding].any() or ys[padding].any():
        raise ValueError("entries past a row's length must be zero")
    # sum_i x_i * (y_i + ... + y_n) via a reversed cumulative sum, one np.dot
    # per row over the row's own length: np.dot's summation order can change
    # with the vector length, so a padded row could differ from its instance
    # in the last bit
    tail = np.cumsum(ys[:, ::-1], axis=1)[:, ::-1]
    t = np.array([np.dot(x[:n], y[:n]) for x, y, n in zip(xs, tail, ns.tolist())],
                 dtype=float)
    return LemmaStack(xs=xs, ys=ys, ns=ns, t=t)


def lemma_min_f(stack: LemmaStack) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum over k of x_1+...+x_k + y_{k+1}+...+y_n per row, with its argmin.

    Also asserts the bound min_k f(k) <= sqrt(2 n t / (n + 1)) + 1e-9; a
    violation would be a counterexample and raises immediately.
    """
    rows = stack.xs.shape[0]
    zero = np.zeros((rows, 1))
    cx = np.concatenate((zero, np.cumsum(stack.xs, axis=1)), axis=1)
    cy = np.concatenate((zero, np.cumsum(stack.ys, axis=1)), axis=1)
    f = cx + (cy[:, -1:] - cy)
    # past a row's length f stays at f(n), so argmin keeps the first minimizer, k <= n
    k = np.argmin(f, axis=1)
    fmin = f[np.arange(rows), k]
    bound = stack.bound
    violated = fmin > bound + 1e-9
    if violated.any():
        r = int(np.argmax(violated))
        raise AssertionError(
            f"inequality violated: min f = {fmin[r]:.12g} > bound {bound[r]:.12g}")
    return fmin, k


def equality_instance(n: int) -> LemmaStack:
    """The tight configuration at t = 1, x_i = y_i = sqrt(2 / (n (n + 1))), one row."""
    a = math.sqrt(2.0 / (n * (n + 1.0)))
    xs = np.full(n, a)
    return make_lemma_instance(xs, xs)


class ScoreDistribution:
    """Continuous score distribution with an invertible cdf.

    kind "uniform" is uniform on [-1/2, 1/2]; kind "gaussian" is standard
    normal.  The induced optimal label is the sign of the score.
    """

    KINDS = ("uniform", "gaussian")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown score distribution {kind!r}")
        self.kind = kind

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "uniform":
            return np.clip(t + 0.5, 0.0, 1.0)
        from scipy.special import ndtr  # loaded at first use, as in calibrate_band
        return ndtr(t)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "uniform":
            return q - 0.5
        from scipy.special import ndtri
        return ndtri(q)

    def quantile_grid(self, n: int) -> np.ndarray:
        """n equal-mass cell midpoints (i + 1/2) / n mapped through the ppf.

        For even n no cell sits on the boundary score 0.  For odd n the middle
        cell is the median, score 0 exactly, and ``grid >= 0`` counts it positive.
        """
        qs = (np.arange(n) + 0.5) / n
        return self.ppf(qs)


@dataclass
class GhatConstruction:
    """Piecewise-rescaled score map that folds sqrt(nu') of each class."""

    base: ScoreDistribution
    nu_prime: float
    a: float
    b: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.nu_prime == 0.0:
            return t
        root = math.sqrt(self.nu_prime)
        f = self.base.cdf(t)
        f0 = float(self.base.cdf(0.0))
        fa = float(self.base.cdf(self.a))
        span = self.b - self.a
        out = np.array(t, dtype=float, copy=True)
        neg = (t >= self.a) & (t <= 0.0)
        pos = (t > 0.0) & (t <= self.b)
        out[neg] = self.a + span * (f[neg] - fa) / root
        out[pos] = self.a + span * (f[pos] - f0) / root
        return out


def construct_ghat(base: ScoreDistribution, nu_prime: float) -> GhatConstruction:
    """Build the adversarial monotone distortion for a target comparison error.

    Requires both classes to carry mass at least sqrt(nu') and a finite
    interval [a, b] straddling zero that holds exactly that much mass on each side.
    """
    if not nu_prime >= 0:  # written so that NaN fails it
        raise ValueError(f"comparison error mass {nu_prime!r} must be nonnegative")
    if nu_prime == 0.0:
        return GhatConstruction(base=base, nu_prime=0.0, a=0.0, b=0.0)
    root = math.sqrt(nu_prime)
    f0 = float(base.cdf(0.0))
    if min(f0, 1.0 - f0) < root:
        raise ValueError(
            f"class mass {min(f0, 1.0 - f0):.4g} below sqrt(nu') = {root:.4g}")
    a, b = map(float, base.ppf([f0 - root, f0 + root]))
    if not (math.isfinite(a) and math.isfinite(b)):  # the gaussian ppf at 0 or 1
        raise ValueError(f"sqrt(nu') = {root:.4g} takes all of a class: interval [{a}, {b}]")
    return GhatConstruction(base=base, nu_prime=nu_prime, a=a, b=b)


def comparison_error_of(ghat, base: ScoreDistribution, n: int) -> float:
    """Quantile-grid estimate of 2 P[ghat(X) > ghat(X'), h*(X) = -1, h*(X') = +1]."""
    if n < 2:
        raise ValueError("need at least two grid cells")
    grid = base.quantile_grid(n)
    vals = np.asarray(ghat(grid), dtype=float)
    pos_sorted = np.sort(vals[grid >= 0])
    # each negative cell inverts with the positive cells strictly below it
    count = int(np.searchsorted(pos_sorted, vals[grid < 0], side="left").sum())
    return 2.0 * count / (n * n)


def best_threshold_error(ghat, base: ScoreDistribution, n: int) -> tuple[float, float]:
    """Exact discrete minimum over thresholds of P[sign(ghat(X) - t) != h*(X)].

    Scans all n + 1 cuts between consecutive sorted ghat values on the
    quantile grid; returns (minimum error, a minimizing threshold).
    """
    if n < 2:
        raise ValueError("need at least two grid cells")
    grid = base.quantile_grid(n)
    vals = np.asarray(ghat(grid), dtype=float)
    labels = np.where(grid >= 0, 1, -1)
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    sorted_pos = (labels[order] > 0)
    # cut after position c: predictions -1 for ranks <= c, +1 above
    pos_prefix = np.concatenate(([0], np.cumsum(sorted_pos)))
    neg_prefix = np.concatenate(([0], np.cumsum(~sorted_pos)))
    total_neg = neg_prefix[-1]
    errors = (pos_prefix + (total_neg - neg_prefix)).astype(float)
    # a cut between tied values is not realizable by any real threshold
    tied = sorted_vals[:-1] >= sorted_vals[1:]
    errors[1:n][tied] = np.inf
    c = int(np.argmin(errors))
    err = float(errors[c]) / n
    if c == 0:
        thr = float(sorted_vals[0]) - 1.0
    elif c == n:
        thr = float(sorted_vals[-1]) + 1.0
    else:
        thr = 0.5 * (float(sorted_vals[c - 1]) + float(sorted_vals[c]))
    return err, thr
