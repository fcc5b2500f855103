"""Margin-based halfspace learning with comparison-assisted labeling.

Each round fits a unit vector by approximate hinge-loss minimization over a
ball around the previous iterate, then restricts fresh samples to a shrinking
band around the new hyperplane and relabels them with the batch-labeling
subroutine.  The geometric parameter schedule (band widths, ball radii,
hinge scales, per-round error budgets) is fixed up front from the log-concave
distribution constants.
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
    """Target error, failure probability, and tunable geometry constants."""

    eps: float
    delta: float
    c1: float = 0.2
    c2: float = 0.28
    c3: float = 1.0
    c4: float = 2.0
    c1p: float = 1.0
    batch_c3: float = 5.0             # label batch constant for the subroutine
    n_mult: float = 0.4

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.gamma >= 1.0:
            raise ValueError("per-round failure share delta / (8 log2(1/eps)) must be below 1")
        for name in ("c1", "c2", "c3", "c4", "c1p", "n_mult"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")

    @property
    def gamma(self) -> float:
        """Per-round failure share delta / (8 log2(1/eps)) given to each labeling."""
        return self.delta / (8.0 * math.log2(1.0 / self.eps))


class MarginSchedule:
    """Per-round geometry: band width b_k, radius r_k, hinge scale tau_k,
    z_k^2 = r_k^2 + b_{k-1}^2, error budget eps_k, and sample size n_k."""

    def __init__(self, params: MarginParams, d: int, label_kappa: float = 1.0):
        self.params = params
        self.d = d
        self.label_kappa = label_kappa
        self.M = max(2.0 / (params.c2 * math.pi), 2.0)
        self.kappa_prec = 1.0 / (4.0 * params.c1p * self.M)
        if not 0.0 < self.kappa_prec < 0.5:
            raise ValueError("precision constant must lie in (0, 1/2)")
        self.rounds = max(1, math.ceil(math.log2(4.0 / params.eps)))

    def b(self, k: int) -> float:
        # defined for k >= -1 so the round-0 entries exist
        return self.params.c1p * self.M ** (-k)

    def r(self, k: int) -> float:
        return min(self.M ** (-(k - 1)) / self.params.c2, math.pi / 2.0)

    def tau(self, k: int) -> float:
        return self.params.c1 * min(self.b(k - 1), 1.0 / 9.0) * self.kappa_prec / 6.0

    def z2(self, k: int) -> float:
        return self.r(k) ** 2 + self.b(k - 1) ** 2

    def eps_k(self, k: int) -> float:
        p = self.params
        return p.c3 * self.tau(k) ** 2 * self.b(k) * self.kappa_prec ** 2 / (256.0 * p.c4 * self.z2(k))

    def n(self, k: int) -> int:
        p = self.params
        kk = max(k, 1)
        main = (self.d / self.b(kk)) * math.log(max(math.e, self.d * kk / p.delta)) ** 3
        term = (1.0 / p.eps) ** (2.0 * self.label_kappa - 1.0) * math.log(1.0 / p.delta)
        n = int(math.ceil(p.n_mult * max(main, term)))
        return max(n, MIN_ROUND_SAMPLES)


@dataclass
class MarginRoundTrace:
    round: int
    b_k: float
    r_k: float
    tau_k: float
    band_size: int
    loss: float
    labels: int
    comparisons: int


@dataclass
class MarginRunResult:
    w_hat: np.ndarray
    labels: int
    comparisons: int
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


def run_margin_adgac(spec, params: MarginParams, w0=None,
                     rng: np.random.Generator | None = None,
                     oracle: Oracle | None = None,
                     w_star=None) -> MarginRunResult:
    """Run the banded hinge-minimization learner; returns the final direction.

    Pass w_star (test mode) to have an initial direction farther than a right
    angle from the truth flagged rather than silently accepted.
    """
    if spec.dist_kind != GAUSSIAN:
        raise ValueError("margin learning requires the isotropic gaussian scenario")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    if oracle is None:
        oracle = Oracle(spec, rng)
    label_kappa = spec.label_noise.effective_kappa
    schedule = MarginSchedule(params, spec.d, label_kappa)
    flags: list[str] = []

    if w0 is None:
        seed_xs = oracle.sample(SEED_BATCH)
        w0 = fit_initial_direction(seed_xs, oracle.label_many(seed_xs))
    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    if w_star is not None:
        cosine = float(np.clip(np.dot(w, np.asarray(w_star, dtype=float)), -1.0, 1.0))
        if math.acos(cosine) > math.pi / 2.0:
            flags.append("w0-angle")

    def adgac_labels(subset, n_k, eps_k):
        return core.adgac(subset, n_k, eps_k, params.gamma, oracle, rng,
                          kappa=label_kappa, c3=params.batch_c3).labels

    # round 0: unrestricted sample labeled at the k = 0 budget
    n1 = schedule.n(1)
    if n1 > MAX_ROUND_SAMPLES:
        raise EmptyBandError(f"round 0 needs n={n1} > cap {MAX_ROUND_SAMPLES}")
    xs = oracle.sample(n1)
    ys = adgac_labels(xs, n1, schedule.eps_k(0))

    trace: list[MarginRoundTrace] = []
    iterates = [w.copy()]
    for k in range(1, schedule.rounds + 1):
        b_k = schedule.b(k)
        r_k = schedule.r(k)
        tau_k = schedule.tau(k)
        eps_k = schedule.eps_k(k)

        labels_before, comps_before = oracle.counters.snapshot()
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

        n_k = schedule.n(k)
        if n_k > MAX_ROUND_SAMPLES:
            raise EmptyBandError(f"round {k} needs n={n_k} > cap {MAX_ROUND_SAMPLES}")
        fresh = oracle.sample(n_k)
        xs = fresh[band_membership(w, fresh, b_k)]
        if len(xs) == 0:
            raise EmptyBandError(
                f"band |w.x| <= {b_k:.4g} caught no samples at n={n_k}; increase n_mult")
        ys = adgac_labels(xs, n_k, eps_k)
        labels_after, comps_after = oracle.counters.snapshot()
        trace.append(MarginRoundTrace(round=k, b_k=b_k, r_k=r_k, tau_k=tau_k,
                                      band_size=len(xs), loss=fit.loss,
                                      labels=labels_after - labels_before,
                                      comparisons=comps_after - comps_before))

    return MarginRunResult(w_hat=w, labels=oracle.counters.labels,
                           comparisons=oracle.counters.comparisons,
                           rounds_run=schedule.rounds, trace=trace, flags=flags,
                           schedule=schedule, iterates=iterates)
