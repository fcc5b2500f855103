"""Margin-based halfspace learning with comparison-assisted labeling.

Each round draws fresh samples, keeps those in a shrinking band around the
last iterate's hyperplane (the first round keeps them all), labels them with
the batch-labeling subroutine, and fits the next unit vector to them by
approximate hinge-loss minimization over a ball around the last iterate.  The
geometric parameter schedule (band widths, ball radii, hinge scales, per-round
error budgets) is fixed up front from the log-concave distribution constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .oracles import GAUSSIAN, Oracle

SEED_BATCH = 32                  # labeled points the initial direction is fitted to
SEED_FIT_ITERS = 800             # hinge steps of that fit
MAX_ROUND_SAMPLES = 5_000_000    # a round needing more raises EmptyBandError
MIN_ROUND_SAMPLES = 64           # keeps early-round bands from coming up empty


class EmptyBandError(RuntimeError):
    """A round's band contained no samples; raise the sample-size multiplier."""


class InfeasibleIterateError(RuntimeError):
    """A round's hinge fit left its search ball, or its iterate is not a unit vector."""


def hinge_loss_batch(w, xs, ys, tau: float) -> float:
    """Unweighted mean hinge loss over a labeled batch."""
    if tau <= 0:
        raise ValueError("hinge scale tau must be positive")
    margins = 1.0 - np.asarray(ys) * (np.asarray(xs) @ np.asarray(w)) / tau
    return float(np.mean(np.maximum(margins, 0.0)))


def hinge_subgradient(w, xs, ys, tau: float) -> np.ndarray:
    """Subgradient of the batch hinge loss; zero rows where the hinge is flat."""
    if tau <= 0:
        raise ValueError("hinge scale tau must be positive")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    active = (1.0 - ys * (xs @ w) / tau) > 0
    if not active.any():
        return np.zeros_like(np.asarray(w, dtype=float))
    return -(xs[active] * ys[active, None]).sum(axis=0) / (tau * len(ys))


def band_membership(w, x, b: float):
    """|w . x| <= b, boundary inclusive; w must be a unit vector."""
    x = np.asarray(x, dtype=float)
    proj = x @ np.asarray(w, dtype=float)
    return np.abs(proj) <= b


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real 1-D vector: np.linalg.norm's own sqrt(v . v)."""
    return math.sqrt(float(v.dot(v)))


def project_to_feasible(v: np.ndarray, center, radius: float) -> np.ndarray:
    """Pull v into B(c, r), c = center and r = radius, then rescale it into B(0, 1).

    For |c| <= 1 that lands in both balls: rescaling u of B(c, r) with |u| > 1 keeps it
    there, as |u - c|^2 - |u/|u| - c|^2 = (|u| - 1)(|u| + 1 - 2 u.c/|u|) > 0.
    """
    center = np.asarray(center, dtype=float)
    offset = v - center
    dist = _norm(offset)
    if dist > radius:
        v = center + offset * (radius / dist)
    nrm = _norm(v)
    if nrm > 1.0:
        v = v / nrm
    return v


@dataclass
class HingeFit:
    v: np.ndarray
    loss: float          # batch hinge loss at v, on the tau scale
    iterations: int
    degraded: bool = False


def minimize_hinge(xs, ys, w_prev, radius: float, tau: float,
                   max_iters: int = 1500, patience: int = 200) -> HingeFit:
    """Projected subgradient descent for the ball-constrained hinge loss.

    Works on the rescaled objective mean(max(tau - y (v . x), 0)) with
    adaptive Polyak step sizes (level raised on stagnation), tracking the best
    iterate seen.  Exhausting the budget with no recent improvement at a
    nonzero loss returns the best point found, flagged degraded.
    """
    if tau <= 0:
        raise ValueError("hinge scale tau must be positive")
    if radius <= 0:
        raise ValueError("search radius must be positive")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] == 0:
        raise ValueError("cannot fit on an empty batch")
    w_prev = np.asarray(w_prev, dtype=float)
    if not _norm(w_prev) <= 1.0 + 1e-12:  # a unit vector's rounding passes, NaN fails
        raise ValueError("w_prev must lie in the unit ball")
    n = len(ys)
    yx = xs * ys[:, None]

    def margins(v):
        return tau - ys * (xs @ v)

    def value(m):
        # the pairwise sum np.mean takes, divided by n
        return float(np.maximum(m, 0.0).sum()) / n

    v = project_to_feasible(w_prev.copy(), w_prev, radius)
    m = margins(v)
    fv = value(m)
    best_v, best_m, best_f = v, m, fv
    target = 0.0
    since_improve = 0
    last_improve = 0
    iterations = 0
    for t in range(max_iters):
        iterations = t + 1
        if fv < best_f - 1e-15:
            best_v, best_m, best_f = v, m, fv
            since_improve = 0
            last_improve = iterations
        else:
            since_improve += 1
        if best_f <= 1e-15:
            break
        if since_improve > patience:
            # level method: assume the floor sits near the best value seen
            target = 0.5 * (target + best_f)
            since_improve = 0
            v, m, fv = best_v, best_m, best_f
        # no active row gives g = 0, which stops below
        g = -yx[m > 0].sum(axis=0) / n
        gn2 = float(g @ g)
        if gn2 <= 1e-30:
            break
        step = (fv - target) / gn2
        if step <= 0:
            step = 0.1 * fv / gn2 if fv > 0 else 1e-12
        v = project_to_feasible(v - step * g, w_prev, radius)
        m = margins(v)
        fv = value(m)

    degraded = (iterations >= max_iters and (iterations - last_improve) > patience
                and best_f > 1e-12)
    return HingeFit(v=best_v, loss=best_f / tau, iterations=iterations, degraded=degraded)


@dataclass(frozen=True)
class MarginParams:
    """Target error, failure probability, and the constants: the geometry's
    c1, c2, c3, c4 and c1p, the label batch's C3, and n_mult_margin."""

    eps: float
    delta: float
    constants: core.TunableConstants = core.DEFAULT_CONSTANTS

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.gamma >= 1.0:
            raise ValueError("per-round failure share delta / (8 log2(1/eps)) must be below 1")

    @property
    def gamma(self) -> float:
        """Per-round failure share delta / (8 log2(1/eps)) given to each labeling."""
        return self.delta / (8.0 * math.log2(1.0 / self.eps))


class MarginSchedule:
    """Per-round geometry: band width b_k, radius r_k, hinge scale tau_k,
    z_k^2 = r_k^2 + b_{k-1}^2, error budget eps_k, and sample size n_k."""

    def __init__(self, params: MarginParams, d: int, label_kappa: float = 1.0):
        self.params = params
        self.constants = c = params.constants
        self.d = d
        self.label_kappa = label_kappa
        self.M = max(2.0 / (c.c2 * math.pi), 2.0)
        self.kappa_prec = 1.0 / (4.0 * c.c1p * self.M)
        if not 0.0 < self.kappa_prec < 0.5:
            raise ValueError("precision constant must lie in (0, 1/2)")
        self.rounds = max(1, math.ceil(math.log2(4.0 / params.eps)))

    def b(self, k: int) -> float:
        # defined for k >= -1 so the round-0 entries exist
        return self.constants.c1p * self.M ** (-k)

    def r(self, k: int) -> float:
        return min(self.M ** (-(k - 1)) / self.constants.c2, math.pi / 2.0)

    def tau(self, k: int) -> float:
        return self.constants.c1 * min(self.b(k - 1), 1.0 / 9.0) * self.kappa_prec / 6.0

    def z2(self, k: int) -> float:
        return self.r(k) ** 2 + self.b(k - 1) ** 2

    def eps_k(self, k: int) -> float:
        c = self.constants
        return c.c3 * self.tau(k) ** 2 * self.b(k) * self.kappa_prec ** 2 / (256.0 * c.c4 * self.z2(k))

    def n(self, k: int) -> int:
        p = self.params
        kk = max(k, 1)
        main = (self.d / self.b(kk)) * math.log(max(math.e, self.d * kk / p.delta)) ** 3
        term = (1.0 / p.eps) ** (2.0 * self.label_kappa - 1.0) * math.log(1.0 / p.delta)
        n = int(math.ceil(self.constants.n_mult_margin * max(main, term)))
        return max(n, MIN_ROUND_SAMPLES)


@dataclass
class MarginRoundTrace:
    """Fit k, the draw it was fit on, and the queries that labeling the draw spent."""

    round: int
    r_k: float
    tau_k: float
    sample_size: int
    loss: float
    labels: int
    comparisons: int


@dataclass
class MarginRunResult:
    w_hat: np.ndarray
    rounds_run: int
    trace: list[MarginRoundTrace] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    schedule: MarginSchedule | None = None
    iterates: list[np.ndarray] = field(default_factory=list)


def fit_initial_direction(xs, ys) -> np.ndarray:
    """Unit-sphere hinge minimizer of a small seed batch (margin scale 1),
    started from the unit mean of y x, or from e1 when that mean vanishes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    start = (xs * ys[:, None]).mean(axis=0)
    nrm = float(np.linalg.norm(start))
    if nrm < 1e-12:
        start = np.zeros(xs.shape[1])
        start[0] = 1.0
    else:
        start = start / nrm
    # B(start, 2) contains the whole unit ball, so only the norm constraint binds
    fit = minimize_hinge(xs, ys, start, radius=2.0, tau=1.0, max_iters=SEED_FIT_ITERS)
    v = fit.v
    nv = float(np.linalg.norm(v))
    return v / nv if nv > 1e-12 else start


def run_margin_adgac(oracle: Oracle, params: MarginParams, w0=None) -> MarginRunResult:
    """Run the banded hinge-minimization learner; returns the final direction.

    An initial direction farther than a right angle from the truth is flagged
    w0-angle rather than silently accepted.
    """
    spec = oracle.spec
    if spec.dist_kind != GAUSSIAN:
        raise ValueError("margin learning requires the isotropic gaussian scenario")
    label_kappa = spec.label_noise.effective_kappa
    schedule = MarginSchedule(params, spec.d, label_kappa)
    flags: list[str] = []

    if w0 is None:
        seed_xs = oracle.sample(SEED_BATCH)
        w0 = fit_initial_direction(seed_xs, oracle.label_many(seed_xs))
    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    cosine = float(np.clip(np.dot(w, spec.ground_truth.w), -1.0, 1.0))
    if math.acos(cosine) > math.pi / 2.0:
        flags.append("w0-angle")

    trace: list[MarginRoundTrace] = []
    iterates = [w.copy()]
    for k in range(1, schedule.rounds + 1):
        # fit k reads round k-1's draw, labeled at that round's budget: round
        # 0's draw whole, a later one cut to the band around the last iterate
        n, eps = schedule.n(k - 1), schedule.eps_k(k - 1)
        if n > MAX_ROUND_SAMPLES:
            raise EmptyBandError(f"round {k - 1} needs n={n} > cap {MAX_ROUND_SAMPLES}")
        xs = oracle.sample(n)
        if k > 1:
            b = schedule.b(k - 1)
            xs = xs[band_membership(w, xs, b)]
            if len(xs) == 0:
                raise EmptyBandError(
                    f"band |w.x| <= {b:.4g} caught no samples at n={n}; increase n_mult_margin")
        labels_before, comps_before = oracle.counters.snapshot()
        batch = core.batch_size(eps, params.gamma, label_kappa, params.constants.C3)
        ys = core.adgac(xs, n, eps, oracle, batch).labels
        labels_after, comps_after = oracle.counters.snapshot()

        r_k, tau_k = schedule.r(k), schedule.tau(k)
        fit = minimize_hinge(xs, ys, w, r_k, tau_k)
        if fit.degraded:
            flags.append(f"hinge-degraded-round-{k}")
        v = fit.v
        # written as not (<=) so that a NaN iterate fails too
        if not np.linalg.norm(v - w) <= r_k + 1e-9:
            raise InfeasibleIterateError(f"round {k}: fit left the ball of radius {r_k:.4g}")
        nv = float(np.linalg.norm(v))
        if nv < 1e-12:
            flags.append(f"null-minimizer-round-{k}")
            v = w.copy()
            nv = 1.0
        w = v / nv
        if not abs(np.linalg.norm(w) - 1.0) <= 1e-12:
            raise InfeasibleIterateError(f"round {k}: iterate norm {np.linalg.norm(w)!r} is not 1")
        iterates.append(w.copy())
        trace.append(MarginRoundTrace(round=k, r_k=r_k, tau_k=tau_k, sample_size=len(xs),
                                      loss=fit.loss, labels=labels_after - labels_before,
                                      comparisons=comps_after - comps_before))

    return MarginRunResult(w_hat=w, rounds_run=schedule.rounds, trace=trace, flags=flags,
                           schedule=schedule, iterates=iterates)
