"""Synthetic classification worlds and noisy oracles with exact query accounting.

A scenario fixes a marginal distribution over instances, a scoring rule whose
sign is the optimal label, and independent corruption models for the labeling
oracle and the pairwise-comparison oracle.  Every label and comparison is
counted exactly once, so query complexity can be audited after any experiment.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNIFORM = "uniform-interval"
GAUSSIAN = "isotropic-gaussian"

TSYBAKOV = "tsybakov"
MASSART = "massart"
ADVERSARIAL = "adversarial"

PERFECT = "perfect"
BAND_ADVERSARIAL = "band-adversarial"

class CalibrationError(ValueError):
    """Requested corruption mass is not achievable for this scenario."""


@dataclass(frozen=True)
class GroundTruth:
    """Score rule g whose sign gives the optimal label; its kind names the marginal.

    kind UNIFORM scores x - t with t in [0, 1] on Uniform(0, 1); kind GAUSSIAN
    scores w . x with a unit direction w on the isotropic gaussian in w's dimension.
    """

    KINDS = (UNIFORM, GAUSSIAN)

    kind: str
    threshold: float = 0.0
    direction: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ground truth kind {self.kind!r}")
        if self.kind == UNIFORM and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("uniform-interval threshold must lie in [0, 1]")
        if self.kind == GAUSSIAN:
            w = np.asarray(self.direction, dtype=float)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("halfspace ground truth needs a direction vector")
            if abs(np.linalg.norm(w) - 1.0) > 1e-9:
                raise ValueError("halfspace direction must be a unit vector")

    @cached_property
    def w(self) -> np.ndarray:
        w = np.array(self.direction, dtype=float)
        w.flags.writeable = False  # one array is shared by every caller
        return w


@dataclass(frozen=True)
class LabelNoiseSpec:
    """Corruption model for the labeling oracle.

    massart flips each label with probability beta; tsybakov uses a power-law
    posterior margin with exponent kappa > 1 and scale mu (kappa == 1 falls
    back to massart); adversarial deterministically flips a band of total
    instance mass nu around the decision boundary.
    """

    KINDS = (MASSART, TSYBAKOV, ADVERSARIAL)

    kind: str = MASSART
    beta: float = 0.0
    kappa: float = 1.0
    mu: float = 1.0
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown label noise kind {self.kind!r}")
        # each check is written so that NaN fails it
        if not 0.0 <= self.beta < 0.5:
            raise ValueError(f"massart flip rate beta = {self.beta!r} must lie in [0, 1/2)")
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError(f"tsybakov exponent kappa = {self.kappa!r} must lie in [1, inf)")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"tsybakov scale mu = {self.mu!r} must lie in (0, inf)")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"adversarial mass nu = {self.nu!r} must lie in [0, inf)")

    @property
    def effective_kappa(self) -> float:
        """The noise exponent the batch and sample sizes use: kappa under
        tsybakov noise with kappa > 1, else 1, the bounded-noise case."""
        return self.kappa if self.kind == TSYBAKOV and self.kappa > 1.0 else 1.0


@dataclass(frozen=True)
class ComparisonNoiseSpec:
    """Corruption model for the comparison oracle.

    band-adversarial flips the answer exactly on opposite-label pairs that
    both fall inside a score band around the boundary; the band radius is
    calibrated so the flipped-pair mass equals nu_prime.
    """

    KINDS = (PERFECT, BAND_ADVERSARIAL)

    kind: str = PERFECT
    nu_prime: float = 0.0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown comparison noise kind {self.kind!r}")
        if not 0.0 <= self.nu_prime < math.inf:
            raise ValueError(f"comparison mass nu_prime = {self.nu_prime!r} must lie in [0, inf)")


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic world: ground truth (which fixes the marginal), noise
    models, seed."""

    ground_truth: GroundTruth
    label_noise: LabelNoiseSpec = LabelNoiseSpec()
    comparison_noise: ComparisonNoiseSpec = ComparisonNoiseSpec()
    seed: int = 0

    @property
    def d(self) -> int:
        return 1 if self.ground_truth.kind == UNIFORM else self.ground_truth.w.size


@dataclass
class QueryCounters:
    """Exact per-oracle query counts: one per instance labeled, one per pair compared."""

    labels: int = 0
    comparisons: int = 0


def uniform_scenario(threshold: float = 0.5, label_noise: LabelNoiseSpec | None = None,
                     comparison_noise: ComparisonNoiseSpec | None = None, seed: int = 0) -> ScenarioSpec:
    """Uniform(0,1) instances with a threshold ground truth."""
    return ScenarioSpec(
        ground_truth=GroundTruth(kind=UNIFORM, threshold=threshold),
        label_noise=label_noise or LabelNoiseSpec(),
        comparison_noise=comparison_noise or ComparisonNoiseSpec(),
        seed=seed,
    )


def gaussian_scenario(w_star, label_noise: LabelNoiseSpec | None = None,
                      comparison_noise: ComparisonNoiseSpec | None = None, seed: int = 0) -> ScenarioSpec:
    """Standard isotropic gaussian instances with a halfspace ground truth."""
    w = np.asarray(w_star, dtype=float)
    w = w / np.linalg.norm(w)
    return ScenarioSpec(
        ground_truth=GroundTruth(kind=GAUSSIAN, direction=tuple(w)),
        label_noise=label_noise or LabelNoiseSpec(),
        comparison_noise=comparison_noise or ComparisonNoiseSpec(),
        seed=seed,
    )


def sample_unlabeled(spec: ScenarioSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. instances from the scenario marginal.

    Returns shape (n,) for uniform-interval and (n, d) for the gaussian.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if spec.ground_truth.kind == UNIFORM:
        return rng.random(n)
    return rng.standard_normal((n, spec.d))


def score(spec: ScenarioSpec, x) -> np.ndarray:
    """Evaluate the ground-truth score g on a batch of instances.

    A row of a batch scores bit-for-bit as the same instance alone, so an
    answer does not depend on the batch it is asked in and equal instances
    always tie.
    """
    gt = spec.ground_truth
    if gt.kind == UNIFORM:
        return np.asarray(x, dtype=float) - gt.threshold
    x = np.asarray(x, dtype=float)
    # not x @ w: BLAS rounds a row of a matrix-vector product differently
    # from a vector dot, and differently again by the row's position
    return np.einsum("...j,j->...", x, gt.w)


def bayes_label(spec: ScenarioSpec, x) -> np.ndarray:
    """Optimal labels sign(g); the measure-zero tie g == 0 resolves to +1."""
    return np.where(score(spec, x) >= 0, 1, -1)


def _labels_from_scores(noise: LabelNoiseSpec, g: np.ndarray, band: float,
                        rng: np.random.Generator) -> np.ndarray:
    """The labeling oracle's rule on a batch of scores g.

    Adversarial noise answers sign(g), ties to +1, flipped where |g| < band,
    and draws nothing.  Otherwise the answer is +1 where a uniform draw falls
    below eta(g); one rng.random(m) for m scores is the same stream as m
    rng.random() draws, so a batch answers as one batch of one per score.
    """
    if noise.kind == ADVERSARIAL:
        y = np.where(g >= 0, 1, -1)
        return np.where(np.abs(g) < band, -y, y)
    # eta = P[Y = +1], 1/2 at g == 0; massart covers the kappa == 1 power law too
    sgn = np.sign(g)
    if noise.effective_kappa > 1.0:
        eta = 0.5 + sgn * np.minimum(0.5, 0.5 * (np.abs(g) / noise.mu) ** (noise.kappa - 1.0))
    else:
        eta = 0.5 + sgn * (0.5 - noise.beta)
    return np.where(rng.random(g.shape) < eta, 1, -1)


def _ranks_below(g, g_pivot, elem_first, band: float):
    """The comparison oracle's rule, seen from each pair's pivot.

    True where the oracle ranks an item scoring g below the pivot scoring
    g_pivot, asked as (item, pivot) where elem_first holds and as (pivot,
    item) elsewhere.  The answer to (a, b) is sign(g(a) - g(b)) with ties
    broken to +1, so a tie ranks whichever was asked first higher.  It is
    flipped when both scores lie within band of 0 on opposite sides; band 0
    means no flips.  g, g_pivot and elem_first hold one entry per pair, or
    are scalars that broadcast.
    """
    d = g - g_pivot  # g_pivot - g >= 0 exactly when d <= 0
    below = np.where(elem_first, d < 0, d <= 0)
    if band > 0:
        below ^= (np.abs(g) < band) & (np.abs(g_pivot) < band) & ((g >= 0) != (g_pivot >= 0))
    return below


def _rank(g, band: float) -> tuple[np.ndarray, np.ndarray]:
    """_ranks_below's answers on a batch of scores g, as one ranking.

    The rule orders every pair by g, except that it ranks an in-band positive
    (0 <= g < band) below an in-band negative (-band < g < 0).  So it ranks
    by g with those two runs swapped: g <= -band, then 0 <= g < band, then
    -band < g < 0, then g >= band.  Only exactly equal scores tie.  Returns
    (order, tie): order[r] is the index at rank r, lowest first, in any order
    within a tie, and tie[r] the number of r's tie class, counted from 0 up.
    """
    order = np.argsort(g)
    s = g[order]
    if band > 0:
        lo = s.searchsorted(-band, side="right")    # the first g > -band
        zero, hi = s.searchsorted([0.0, band])      # the first g >= 0, g >= band
        if lo < zero < hi:                          # both in-band runs hold scores
            order = np.concatenate((order[:lo], order[zero:hi], order[lo:zero], order[hi:]))
            s = g[order]
    tie = np.zeros(len(s), dtype=np.intp)
    (s[1:] != s[:-1]).cumsum(out=tie[1:])
    return order, tie


@dataclass(frozen=True)
class Ranking:
    """A batch ranked by the comparison oracle's answers, as _rank returns
    it: order[r] is the batch index at rank r, lowest first, and tie[r] the
    number of r's tie class (non-decreasing, from 0).  Two items of different
    classes answer as their ranks in either orientation; two of one class
    answer by which was asked first.  ask(pairs) counts pairs a caller asked
    of the ranking."""

    order: np.ndarray
    tie: np.ndarray
    ask: Callable[[int], None]


def calibrate_band(spec: ScenarioSpec, target_mass: float, which: str) -> float:
    """The band radius rho realizing a target corruption mass, exactly.

    For labels the mass is P[|g(X)| < rho]; for comparisons it is the
    flipped-pair probability P[|g(X)| < rho, |g(X')| < rho, h*(X) != h*(X')]
    over an i.i.d. pair.  g(X) is Uniform(-t, 1 - t) on the uniform world and
    N(0, 1) on the gaussian one, so each mass inverts in closed form.  A
    target of 0 gives 0.0; one outside [0, max) raises CalibrationError.
    """
    if which not in ("label", "comparison"):
        raise ValueError(f"unknown calibration target {which!r}")
    uniform = spec.ground_truth.kind == UNIFORM
    # distance from the boundary to the nearer end of the uniform world
    m = min(spec.ground_truth.threshold, 1.0 - spec.ground_truth.threshold)
    if which == "label":
        top = 1.0
    else:
        top = 2.0 * m * (1.0 - m) if uniform else 0.5
    if target_mass == 0.0:
        return 0.0
    if not 0.0 < target_mass < top:
        raise CalibrationError(f"target {which} mass {'nu' if which == 'label' else 'nu_prime'}"
                               f" = {target_mass!r} lies outside [0, {top:.6g})")
    if not uniform:
        # imported on first use: scipy.special is most of the package's
        # import time and memory, and only the gaussian world needs it
        from scipy.special import ndtri
        # label mass 2 Phi(rho) - 1; comparison mass 2 (Phi(rho) - 1/2)^2
        if which == "label":
            return float(ndtri(0.5 * (1.0 + target_mass)))
        return float(ndtri(0.5 + math.sqrt(0.5 * target_mass)))
    if which == "label":
        # mass min(rho, t) + min(rho, 1 - t)
        return 0.5 * target_mass if target_mass <= 2.0 * m else target_mass - m
    # mass 2 min(rho, t) min(rho, 1 - t)
    return math.sqrt(0.5 * target_mass) if target_mass <= 2.0 * m * m else target_mass / (2.0 * m)


def noise_bands(spec: ScenarioSpec) -> tuple[float, float]:
    """The world's (label band, comparison band): each calibrated to its
    corruption mass under adversarial or band-adversarial noise, else 0.0."""
    label, comp = spec.label_noise, spec.comparison_noise
    return (calibrate_band(spec, label.nu, "label") if label.kind == ADVERSARIAL else 0.0,
            calibrate_band(spec, comp.nu_prime, "comparison")
            if comp.kind == BAND_ADVERSARIAL else 0.0)


class Oracle:
    """The one query path: a trial's scenario, rng stream from its seed, counters and bands.

    The label and comparison bands are calibrated once, here, and every
    answer reads them.  State is per-trial: concurrent trials must each own
    their instance.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.counters = QueryCounters()
        self._label_band, self._comparison_band = noise_bands(spec)

    def sample(self, n: int) -> np.ndarray:
        return sample_unlabeled(self.spec, n, self.rng)

    def label(self, x) -> int:
        """label_many on the batch of one instance x; adds 1 to counters.labels."""
        return int(self.label_many(np.asarray(x, dtype=float)[None])[0])

    def label_many(self, xs) -> np.ndarray:
        """Ask the labeling oracle for the instances xs, shaped (m,) on 1-D
        worlds and (m, d) on gaussian ones.  Scores them once, adds m to
        counters.labels, and draws one rng.random(m) (none under adversarial
        noise), the stream of m batches of one.  Returns m ints in {-1, +1}.
        """
        g = score(self.spec, xs)
        self.counters.labels += len(g)
        return _labels_from_scores(self.spec.label_noise, g, self._label_band, self.rng)

    def compare(self, x, x_prime) -> int:
        """Ask the comparison oracle about the one pair (x, x_prime), by
        _ranks_below's rule: +1 when it ranks x higher, else -1; adds 1 to
        counters.comparisons."""
        g = score(self.spec, np.stack([x, x_prime]))
        self.counters.comparisons += 1
        return -1 if _ranks_below(g[0], g[1], True, self._comparison_band) else 1

    def ranking(self, S) -> Ranking:
        """The comparison oracle's answers about the dataset S, scored once,
        as one Ranking (_rank's rule).  Its ask(pairs) adds pairs to
        counters.comparisons; ranking asks nothing and draws nothing."""
        order, tie = _rank(score(self.spec, S), self._comparison_band)
        return Ranking(order, tie, self._count_comparisons)

    def _count_comparisons(self, pairs: int) -> None:
        self.counters.comparisons += pairs
