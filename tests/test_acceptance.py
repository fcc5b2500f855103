"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the tunable constants are the frozen
defaults shipped with the package.
"""

import dataclasses
import math
import time

import numpy as np

from adgac import a2, bench, core, margin as margin_mod, minimax
from adgac.bench import ExperimentConfig, run_trials
from adgac.hypotheses import ThresholdClass
from adgac.margin import MarginParams, MarginSchedule, minimize_hinge
from adgac.oracles import Oracle

C3 = bench.DEFAULT_CONSTANTS.C3


def _verdict(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_ac1_adgac_noiseless():
    started = time.perf_counter()
    cfg = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1, trials=100,
                           seed=42, n_samples=1000, k=5)
    reports, summary = run_trials(cfg)
    mismatches = [round(r.err * 1000) for r in reports]
    good = sum(m <= 50 for m in mismatches)
    max_labels = max(r.labels for r in reports)
    mean_comps = np.mean([r.comparisons for r in reports])
    comp_bound = 2.0 * 1000 * math.log(1000)
    elapsed = time.perf_counter() - started
    ok = (good >= 99 and max_labels <= 25 and mean_comps <= comp_bound
          and elapsed < 10.0)
    _verdict("AC-1", ok,
             f"mismatch<=50 in {good}/100, max labels {max_labels} <= 25, "
             f"mean comparisons {mean_comps:.0f} <= {comp_bound:.0f}, {elapsed:.1f}s < 10s")


def test_ac2_adgac_noise_gates():
    started = time.perf_counter()
    k = core.batch_size(0.05, 0.1, 1.0, C3)
    cfg = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1, trials=100,
                           seed=42, n_samples=1000, k=k,
                           label_noise="massart", beta=0.2,
                           comp_noise="band-adversarial", nu_prime=1e-4)
    reports, _ = run_trials(cfg)
    good = sum(round(r.err * 1000) <= 50 for r in reports)
    elapsed = time.perf_counter() - started
    ok = good >= 90 and elapsed < 30.0
    _verdict("AC-2", ok,
             f"k=batch_size={k}, mismatch<=50 in {good}/100 (need >= 90), {elapsed:.1f}s < 30s")


def test_ac3_a2_end_to_end():
    started = time.perf_counter()
    cfg = ExperimentConfig(method="a2-adgac", eps=0.05, delta=0.1, trials=100,
                           seed=7, grid=1001, label_noise="massart", beta=0.2)
    reports, summary = run_trials(cfg)
    # exact accounting on a representative trial
    oracle = Oracle(cfg.scenario(7))
    klass = ThresholdClass(np.linspace(0, 1, 1001))
    params = a2.RunParams(eps=0.05, delta=0.1)
    res = a2.run_a2_adgac(oracle, klass, params)
    accounting = (oracle.counters.labels == sum(t.call.label_queries for t in res.trace)
                  and oracle.counters.comparisons == sum(t.call.comparisons for t in res.trace))
    elapsed = time.perf_counter() - started
    ok = summary["success_rate"] >= 0.90 and accounting and elapsed < 120.0
    _verdict("AC-3", ok,
             f"success {summary['success_rate']:.2f} >= 0.90, accounting exact: "
             f"{accounting}, {elapsed:.1f}s < 120s")


def test_ac4_label_complexity_separation():
    started = time.perf_counter()

    def battery(method, eps, grid):
        cfg = ExperimentConfig(method=method, eps=eps, delta=0.1, trials=10,
                               seed=100, grid=grid, label_noise="massart", beta=0.2)
        _, summary = run_trials(cfg)
        return summary

    medians = {}
    for eps in (0.1, 0.05, 0.025):
        medians[("a2", eps)] = battery("a2-adgac", eps, 10_000)["labels_median"]
        medians[("base", eps)] = battery("baseline-a2", eps, 10_000)["labels_median"]
    small_grid = battery("a2-adgac", 0.05, 1000)["labels_median"]
    grid_change = abs(small_grid - medians[("a2", 0.05)]) / medians[("a2", 0.05)]
    ratio = medians[("base", 0.025)] / medians[("a2", 0.025)]
    elapsed = time.perf_counter() - started
    ok = grid_change <= 0.10 and ratio >= 3.0 and elapsed < 600.0
    _verdict("AC-4", ok,
             f"grid 1e3 vs 1e4 label change {grid_change:.3f} <= 0.10, "
             f"baseline/a2 ratio at eps=0.025 {ratio:.2f} >= 3, {elapsed:.0f}s < 600s")


def _hinge_grid_minimum(xs, ys, w_prev, radius, tau, angle_step=1e-3, n_radii=96):
    angles = np.arange(0.0, 2 * math.pi, angle_step)
    radii = np.linspace(0.05, 1.0, n_radii)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    best = np.inf
    for rho in radii:
        cand = rho * dirs
        feasible = np.linalg.norm(cand - w_prev, axis=1) <= radius
        if not feasible.any():
            continue
        margins = 1.0 - (ys[None, :] * (cand[feasible] @ xs.T)) / tau
        best = min(best, float(np.maximum(margins, 0.0).mean(axis=1).min()))
    return best


def test_ac5_margin_learner():
    started = time.perf_counter()
    # noiseless battery
    cfg = ExperimentConfig(method="margin-adgac", dist="isotropic-gaussian", d=2,
                           eps=0.1, delta=0.2, trials=100, seed=500)
    _, summary = run_trials(cfg)
    success = summary["success_rate"]

    # schedule identities, recomputed from the formula parts every round
    sched = MarginSchedule(MarginParams(eps=0.1, delta=0.2), d=2, label_kappa=1.0)
    identities = all(
        sched.z2(k) == sched.r(k) ** 2 + sched.b(k - 1) ** 2
        and sched.eps_k(k) == (sched.params.constants.c3 * sched.tau(k) ** 2 * sched.b(k)
                               * sched.kappa_prec ** 2
                               / (256.0 * sched.params.constants.c4 * sched.z2(k)))
        for k in range(0, sched.rounds + 1))

    # hinge minimizer quality against a dense polar grid oracle
    rng = np.random.default_rng(77)
    slack = sched.kappa_prec / 8.0
    quality_ok = 0
    for i in range(20):
        angle = rng.uniform(-0.4, 0.4)
        w_prev = np.array([math.cos(angle), math.sin(angle)])
        xs = rng.standard_normal((200, 2))
        ys = np.where(xs @ np.array([1.0, 0.0]) >= 0, 1, -1)
        flips = rng.random(200) < 0.05
        ys[flips] = -ys[flips]
        tau = rng.uniform(0.2, 0.8)
        radius = rng.uniform(0.4, 1.0)
        fit = minimize_hinge(xs, ys, w_prev, radius, tau)
        grid_min = _hinge_grid_minimum(xs, ys, w_prev, radius, tau)
        quality_ok += fit.loss <= grid_min + slack

    # label complexity is dimension-light under flipped labels
    med = {}
    for d in (5, 20):
        cfg_d = ExperimentConfig(method="margin-adgac", dist="isotropic-gaussian",
                                 d=d, eps=0.1, delta=0.2, trials=10, seed=900,
                                 label_noise="massart", beta=0.2)
        _, s = run_trials(cfg_d)
        med[d] = s["labels_median"]
    d_ratio = med[20] / med[5]
    elapsed = time.perf_counter() - started
    ok = (success >= 0.90 and identities and quality_ok == 20
          and d_ratio <= 1.5 and elapsed < 600.0)
    _verdict("AC-5", ok,
             f"noiseless success {success:.2f} >= 0.90, identities {identities}, "
             f"hinge quality {quality_ok}/20, d20/d5 labels {d_ratio:.2f} <= 1.5, "
             f"{elapsed:.0f}s < 600s")


def test_ac6_prefix_suffix_inequality():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        inst = minimax.make_lemma_instance(rng.random((1, n)), rng.random((1, n)), ns=[n])
        minimax.lemma_min_f(inst)  # raises if the bound fails
    tight = True
    for n in range(1, 9):
        inst = minimax.equality_instance(n)
        fmin, _ = minimax.lemma_min_f(inst)
        tight &= abs(fmin[0] - math.sqrt(2 * n * inst.t[0] / (n + 1))) <= 1e-9
    elapsed = time.perf_counter() - started
    ok = tight and elapsed < 5.0
    _verdict("AC-6", ok,
             f"10^4 random instances hold, equality tight to 1e-9 for n=1..8, "
             f"{elapsed:.1f}s < 5s")


def test_ac7_sqrt_identity_reproduction():
    started = time.perf_counter()
    base = minimax.ScoreDistribution("uniform")
    ghat = minimax.construct_ghat(base, 0.01)
    n = 10_000
    comp = minimax.comparison_error_of(ghat, base, n)
    best, _ = minimax.best_threshold_error(ghat, base, n)
    comp2 = minimax.comparison_error_of(ghat, base, 2 * n)
    best2, _ = minimax.best_threshold_error(ghat, base, 2 * n)
    tol = 4.0 / n
    gaps_half = (abs(comp2 - 0.01) <= 0.55 * abs(comp - 0.01) + 1e-9
                 and abs(best2 - 0.1) <= 0.55 * abs(best - 0.1) + 1e-9)
    elapsed = time.perf_counter() - started
    ok = (abs(comp - 0.01) <= tol and abs(best - 0.1) <= tol and gaps_half
          and elapsed < 30.0)
    _verdict("AC-7", ok,
             f"comparison error {comp:.6f} = 0.0100 +- {tol:.0e}, "
             f"best threshold {best:.6f} = 0.1000 +- {tol:.0e}, "
             f"refinement halves gaps: {gaps_half}, {elapsed:.1f}s < 30s")


def test_ac8_numerical_hygiene():
    started = time.perf_counter()
    # (a) hinge subgradient vs central finite differences
    rng = np.random.default_rng(3)
    grad_ok = 0
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 5))
        xs = rng.standard_normal((40, d))
        ys = rng.choice([-1, 1], 40)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        tau = rng.uniform(0.1, 1.0)
        if np.min(np.abs(1.0 - ys * (xs @ w) / tau)) <= 1e-4:
            continue
        g = margin_mod.hinge_subgradient(w, xs, ys, tau)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1e-6
            fd[j] = (margin_mod.hinge_loss_batch(w + e, xs, ys, tau)
                     - margin_mod.hinge_loss_batch(w - e, xs, ys, tau)) / 2e-6
        grad_ok += np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4
        checked += 1

    # (b) oracle-counter conservation across one battery of every method
    conserved = True
    small = [
        ExperimentConfig(method="adgac-only", trials=3, seed=1, n_samples=300, k=5),
        ExperimentConfig(method="a2-adgac", trials=2, seed=1, eps=0.1, grid=201),
        ExperimentConfig(method="baseline-a2", trials=2, seed=1, eps=0.1, grid=201),
        ExperimentConfig(method="margin-adgac", dist="isotropic-gaussian", d=2,
                         trials=2, seed=1, eps=0.2, delta=0.2),
        ExperimentConfig(method="passive-erm", trials=2, seed=1, n_samples=200, grid=101),
    ]
    for cfg in small:
        reports, summary = run_trials(cfg)
        conserved &= summary["labels_total"] == sum(r.labels for r in reports)
        conserved &= summary["comparisons_total"] == sum(r.comparisons for r in reports)
        conserved &= summary["failed_trials"] == 0

    # (c) bit-identical re-runs at fixed seeds (wall time excluded)
    def run_twice(cfg):
        outs = []
        for _ in range(2):
            reports, _ = run_trials(cfg)
            outs.append([
                {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_ms"}
                for r in reports])
        return outs[0] == outs[1]

    identical = all(run_twice(cfg) for cfg in small)
    elapsed = time.perf_counter() - started
    ok = grad_ok == 100 and conserved and identical
    _verdict("AC-8", ok,
             f"subgradient matches finite differences {grad_ok}/100 at rel 1e-4, "
             f"counter conservation {conserved}, bit-identical reruns {identical}, "
             f"{elapsed:.0f}s")
