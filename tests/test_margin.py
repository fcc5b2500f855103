"""Hinge machinery, the geometric schedule, and the banded learner."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from adgac import core, margin
from adgac.core import TunableConstants
from adgac.margin import (EmptyBandError, HingeFit, InfeasibleIterateError,
                          MarginParams, MarginSchedule, band_membership,
                          fit_initial_direction, hinge_loss_batch,
                          hinge_subgradient, minimize_hinge, project_to_feasible,
                          run_margin_adgac)
from adgac.oracles import LabelNoiseSpec, Oracle, gaussian_scenario, sample_unlabeled


def hinge_grid_minimum(xs, ys, w_prev, radius, tau, angle_step=1e-3, n_radii=96):
    """Dense polar grid search over the feasible set (d = 2 oracle)."""
    angles = np.arange(0.0, 2 * math.pi, angle_step)
    radii = np.linspace(0.05, 1.0, n_radii)
    best = np.inf
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for rho in radii:
        cand = rho * dirs
        feasible = np.linalg.norm(cand - w_prev, axis=1) <= radius
        if not feasible.any():
            continue
        margins = 1.0 - (ys[None, :] * (cand[feasible] @ xs.T)) / tau
        losses = np.maximum(margins, 0.0).mean(axis=1)
        best = min(best, float(losses.min()))
    return best


def rotate(w, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * w[0] - s * w[1], s * w[0] + c * w[1]])


def reference_project_to_feasible(v, center, radius, max_alternations=50, tol=1e-10):
    """The alternating projection as first written, with np.linalg.norm throughout."""
    center = np.asarray(center, dtype=float)
    for _ in range(max_alternations):
        offset = v - center
        dist = float(np.linalg.norm(offset))
        if dist > radius:
            v = center + offset * (radius / dist)
        nv = float(np.linalg.norm(v))
        if nv > 1.0:
            v = v / nv
        if (np.linalg.norm(v - center) <= radius + tol
                and np.linalg.norm(v) <= 1.0 + tol):
            break
    return v


def reference_minimize_hinge(xs, ys, w_prev, radius, tau, max_iters=1500, patience=200):
    """minimize_hinge's loop as first written: value and subgradient each
    recompute xs @ v.  Returns the fit and the number of level restarts."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)

    def value(v):
        return float(np.mean(np.maximum(tau - ys * (xs @ v), 0.0)))

    def grad(v):
        active = (tau - ys * (xs @ v)) > 0
        if not active.any():
            return np.zeros_like(v)
        return -(xs[active] * ys[active, None]).sum(axis=0) / len(ys)

    v = reference_project_to_feasible(w_prev.copy(), w_prev, radius)
    best_v = v.copy()
    best_f = value(v)
    target = 0.0
    since_improve = 0
    last_improve = 0
    iterations = 0
    restarts = 0
    for t in range(max_iters):
        iterations = t + 1
        fv = value(v)
        if fv < best_f - 1e-15:
            best_f = fv
            best_v = v.copy()
            since_improve = 0
            last_improve = iterations
        else:
            since_improve += 1
        if best_f <= 1e-15:
            break
        if since_improve > patience:
            target = 0.5 * (target + best_f)
            since_improve = 0
            v = best_v.copy()
            fv = best_f
            restarts += 1
        g = grad(v)
        gn2 = float(g @ g)
        if gn2 <= 1e-30:
            break
        step = (fv - target) / gn2
        if step <= 0:
            step = 0.1 * fv / gn2 if fv > 0 else 1e-12
        v = reference_project_to_feasible(v - step * g, w_prev, radius)

    degraded = (iterations >= max_iters and (iterations - last_improve) > patience
                and best_f > 1e-12)
    fit = HingeFit(v=best_v, loss=best_f / tau, iterations=iterations, degraded=degraded)
    return fit, restarts


def unit(v):
    return v / np.linalg.norm(v)


def noisy_batch(d, n, seed, flip=0.1):
    """Gaussian points labeled by a random w*, a fraction flipped, and a start
    direction perturbed away from w*."""
    rng = np.random.default_rng(seed)
    w_star = unit(rng.standard_normal(d))
    w_prev = unit(w_star + 0.5 * rng.standard_normal(d) / math.sqrt(d))
    xs = rng.standard_normal((n, d))
    ys = np.where(xs @ w_star >= 0, 1, -1)
    flips = rng.random(n) < flip
    ys[flips] = -ys[flips]
    return xs, ys, w_prev


def hinge_case(name):
    """(args, kwargs) of one minimize_hinge call."""
    if name.startswith("d="):
        d = int(name[2:])
        xs, ys, w_prev = noisy_batch(d, 15 * d + 120, seed=d)
        return (xs, ys, w_prev, 0.6, 0.05), {}
    if name == "initial-direction":
        # what fit_initial_direction passes: a seed batch, the unit mean of
        # y x as the start, and a radius-2 ball so only the norm binds
        xs, ys, _ = noisy_batch(5, 32, seed=11)
        start = unit((xs * ys[:, None]).mean(axis=0))
        return (xs, ys, start), dict(radius=2.0, tau=1.0, max_iters=margin.SEED_FIT_ITERS)
    if name == "stalled":
        xs = np.array([[1.0, 0.0], [1.0, 0.0]])
        ys = np.array([1, -1])
        return (xs, ys, np.array([1.0, 0.0]), 0.5, 0.5), dict(max_iters=50, patience=5)
    if name == "zero-loss":
        # separable with margin 0.3 about a w* inside the ball, but not by
        # the start: the loop takes steps, then stops at loss 0
        rng = np.random.default_rng(3)
        w_star = unit(np.array([1.0, 0.3]))
        xs = rng.standard_normal((100, 2))
        xs = xs[np.abs(xs @ w_star) >= 0.3]
        ys = np.where(xs @ w_star >= 0, 1, -1)
        return (xs, ys, np.array([1.0, 0.0]), 0.5, 0.2), {}
    if name == "level-restart":
        xs, ys, w_prev = noisy_batch(5, 150, seed=12, flip=0.2)
        return (xs, ys, w_prev, 0.6, 0.05), dict(patience=20)
    raise KeyError(name)


class TestHingeLoss:
    # one-row batches: the mean over one point is that point's hinge loss
    def test_flat_region(self):
        assert hinge_loss_batch(np.array([1.0, 0.0]), np.array([[2.0, 0.0]]), np.array([1]),
                                tau=1.0) == 0.0

    def test_boundary_point_loses_one(self):
        w = np.array([1.0, 0.0])
        x = np.array([[0.0, 3.0]])
        assert hinge_loss_batch(w, x, np.array([1]), tau=0.5) == 1.0
        assert hinge_loss_batch(w, x, np.array([-1]), tau=2.0) == 1.0

    def test_direct_value(self):
        assert hinge_loss_batch(np.array([1.0, 0.0]), np.array([[0.5, 0.0]]), np.array([-1]),
                                tau=1.0) == 1.5

    def test_batch_is_mean(self):
        xs = np.array([[0.5, 0.0], [2.0, 0.0]])
        ys = np.array([-1, 1])
        w = np.array([1.0, 0.0])
        assert hinge_loss_batch(w, xs, ys, 1.0) == pytest.approx((1.5 + 0.0) / 2)

    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError):
                hinge_loss_batch(np.array([1.0]), np.array([[1.0]]), np.array([1]), tau=tau)

    def test_dominates_zero_one_loss(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.standard_normal((50, 3))
            ys = rng.choice([-1, 1], 50)
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            tau = rng.uniform(0.05, 1.0)
            zero_one = np.mean(np.where(xs @ w >= 0, 1, -1) != ys)
            assert hinge_loss_batch(w, xs, ys, tau) >= zero_one - 1e-12


class TestHingeSubgradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 5))
            xs = rng.standard_normal((30, d))
            ys = rng.choice([-1, 1], 30)
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            tau = rng.uniform(0.1, 1.0)
            # skip batches with any point near the hinge kink
            if np.min(np.abs(1.0 - ys * (xs @ w) / tau)) <= 1e-4:
                continue
            g = hinge_subgradient(w, xs, ys, tau)
            h = 1e-6
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (hinge_loss_batch(w + e, xs, ys, tau)
                         - hinge_loss_batch(w - e, xs, ys, tau)) / (2 * h)
            scale = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(g - fd) / scale < 1e-4
            checked += 1


class TestProjection:
    def test_point_inside_unchanged(self):
        v = np.array([0.3, 0.1])
        out = project_to_feasible(v.copy(), np.array([0.5, 0.0]), 0.5)
        np.testing.assert_allclose(out, v)

    def test_lands_in_intersection(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            center = rng.standard_normal(d)
            center /= np.linalg.norm(center)
            radius = rng.uniform(0.1, 1.5)
            v = rng.standard_normal(d) * 3
            out = project_to_feasible(v, center, radius)
            assert np.linalg.norm(out - center) <= radius + 1e-9
            assert np.linalg.norm(out) <= 1.0 + 1e-9

    @pytest.mark.parametrize("case", ["inside-both", "outside-ball", "outside-unit",
                                      "outside-both"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_and_lands_in_both_balls(self, case, data):
        d = data.draw(st.integers(1, 6), label="d")
        direction = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d).map(np.array)
        c_dir = data.draw(direction.filter(lambda a: np.linalg.norm(a) >= 0.1), label="c_dir")
        u = unit(data.draw(direction.filter(lambda a: np.linalg.norm(a) >= 0.1), label="u"))
        center = data.draw(st.floats(0.0, 1.0), label="|center|") * unit(c_dir)
        radius = data.draw(st.floats(0.01, 2.0), label="radius")
        frac = data.draw(st.floats(0.01, 0.99), label="frac")
        # distance from center along u to the unit sphere
        cu = float(center @ u)
        rho_unit = -cu + math.sqrt(max(cu * cu + 1.0 - float(center @ center), 0.0))
        rho = {
            "inside-both": frac * min(radius, rho_unit),
            "outside-ball": radius + frac * (rho_unit - radius),
            "outside-unit": rho_unit + frac * (radius - rho_unit),
            "outside-both": max(radius, rho_unit) + 0.01 + 2.0 * frac,
        }[case]
        v = center + rho * u
        in_ball = np.linalg.norm(v - center) <= radius
        in_unit = np.linalg.norm(v) <= 1.0
        kind = {(True, True): "inside-both", (False, True): "outside-ball",
                (True, False): "outside-unit", (False, False): "outside-both"}
        assume(kind[in_ball, in_unit] == case)

        out = project_to_feasible(v.copy(), center, radius)
        ref = reference_project_to_feasible(v.copy(), center, radius)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert np.linalg.norm(out - center) <= radius + 1e-9
        assert np.linalg.norm(out) <= 1.0 + 1e-9
        if case == "inside-both":
            assert out.tobytes() == v.tobytes()


class TestMinimizeHinge:
    def test_zero_loss_fixed_point(self):
        rng = np.random.default_rng(3)
        w = np.array([1.0, 0.0])
        xs = rng.standard_normal((100, 2))
        tau = 0.2
        keep = np.abs(xs @ w) >= tau
        xs = xs[keep]
        ys = np.where(xs @ w >= 0, 1, -1)
        fit = minimize_hinge(xs, ys, w, radius=0.5, tau=tau)
        assert fit.loss == 0.0
        assert hinge_loss_batch(fit.v, xs, ys, tau) == 0.0

    @pytest.mark.parametrize("w_prev", [[1.2, 0.0], [0.6, 0.8 + 1e-9], [math.nan, 0.0]])
    def test_center_outside_unit_ball_rejected(self, w_prev):
        # the one-pass projection lands in both balls only for |w_prev| <= 1
        xs = np.array([[1.0, 0.5], [-0.3, 1.0]])
        with pytest.raises(ValueError, match="unit ball"):
            minimize_hinge(xs, np.array([1, -1]), np.array(w_prev), radius=0.5, tau=0.2)

    def test_normalized_center_accepted(self):
        # a vector divided by its norm may read an ulp above 1
        w = np.array([2.06, -0.82, 1.07])
        w = w / np.linalg.norm(w)
        assert np.linalg.norm(w) > 1.0
        xs = np.random.default_rng(11).standard_normal((20, 3))
        fit = minimize_hinge(xs, np.where(xs[:, 0] >= 0, 1, -1), w, radius=0.3, tau=0.2)
        assert np.linalg.norm(fit.v - w) <= 0.3 + 1e-9 and np.linalg.norm(fit.v) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quality_against_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        w_star = np.array([1.0, 0.0])
        w_prev = rotate(w_star, rng.uniform(-0.4, 0.4))
        xs = rng.standard_normal((200, 2))
        ys = np.where(xs @ w_star >= 0, 1, -1)
        flips = rng.random(200) < 0.05
        ys[flips] = -ys[flips]
        tau = rng.uniform(0.2, 0.8)
        radius = rng.uniform(0.4, 1.0)
        fit = minimize_hinge(xs, ys, w_prev, radius, tau)
        grid_min = hinge_grid_minimum(xs, ys, w_prev, radius, tau)
        kappa_prec = MarginSchedule(MarginParams(eps=0.1, delta=0.2), d=2).kappa_prec
        assert fit.loss <= grid_min + kappa_prec / 8.0

    def test_whole_ball_matches_unconstrained_then_normalized(self):
        rng = np.random.default_rng(4)
        w_star = np.array([0.6, 0.8])
        xs = rng.standard_normal((150, 2))
        ys = np.where(xs @ w_star >= 0, 1, -1)
        tau = 0.3
        start = np.array([1.0, 0.0])
        fit = minimize_hinge(xs, ys, start, radius=2.0, tau=tau)
        # second optimizer: plain subgradient descent, then pull back to the ball
        v = start.copy()
        for t in range(1, 2001):
            g = hinge_subgradient(v, xs, ys, tau)
            if not g.any():
                break
            v = v - (0.5 / math.sqrt(t)) * g
        v = v / max(1.0, np.linalg.norm(v))
        oracle_loss = hinge_loss_batch(v, xs, ys, tau)
        assert fit.loss <= oracle_loss + 1e-3

    @pytest.mark.parametrize("case", ["d=2", "d=5", "d=20", "initial-direction", "stalled",
                                      "zero-loss", "level-restart"])
    def test_matches_reference_loop(self, case):
        # the rewritten loop computes each iterate's margins once; every
        # iterate, and so the fit, must be the original loop's bit for bit
        args, kwargs = hinge_case(case)
        fit = minimize_hinge(*args, **kwargs)
        ref, restarts = reference_minimize_hinge(*args, **kwargs)
        np.testing.assert_array_equal(fit.v, ref.v)
        assert fit.loss == ref.loss
        assert fit.iterations == ref.iterations
        assert fit.degraded == ref.degraded
        max_iters = kwargs.get("max_iters", 1500)
        if case == "stalled":
            assert fit.degraded and fit.iterations == max_iters
        if case == "zero-loss":
            # the loop stops once the rescaled loss reaches 1e-15
            tau = args[4]
            assert fit.loss * tau <= 1e-15 and 1 < fit.iterations < max_iters
        if case == "level-restart":
            assert restarts > 0

    def test_degraded_flag_on_stalled_budget(self):
        # contradictory labels at a single point: the loss floor is 1 and no
        # step can improve it, so a tiny budget with a short window flags
        xs = np.array([[1.0, 0.0], [1.0, 0.0]])
        ys = np.array([1, -1])
        fit = minimize_hinge(xs, ys, np.array([1.0, 0.0]), radius=0.5, tau=0.5,
                             max_iters=50, patience=5)
        assert fit.degraded
        assert fit.loss >= 1.0 - 1e-9


class TestSchedule:
    def _schedule(self):
        return MarginSchedule(MarginParams(eps=0.1, delta=0.2), d=2)

    def test_growth_constant(self):
        sched = self._schedule()
        assert sched.M == pytest.approx(max(2.0 / (0.28 * math.pi), 2.0))
        assert sched.kappa_prec == pytest.approx(1.0 / (4.0 * sched.M))

    def test_identities_every_round(self):
        sched = self._schedule()
        for k in range(0, sched.rounds + 1):
            assert sched.z2(k) == pytest.approx(sched.r(k) ** 2 + sched.b(k - 1) ** 2)
            expected = (1.0 * sched.tau(k) ** 2 * sched.b(k) * sched.kappa_prec ** 2
                        / (256.0 * 2.0 * sched.z2(k)))
            assert sched.eps_k(k) == pytest.approx(expected)
            assert sched.b(k) > 0 and sched.r(k) > 0 and sched.tau(k) > 0
            assert sched.eps_k(k) > 0

    def test_geometric_decay(self):
        sched = self._schedule()
        for k in range(1, sched.rounds):
            assert sched.b(k + 1) == pytest.approx(sched.b(k) / sched.M)
            assert sched.r(k + 1) <= sched.r(k)

    def test_round_count(self):
        sched = self._schedule()
        assert sched.rounds == math.ceil(math.log2(4.0 / 0.1))


class TestBandMembership:
    def test_zero_width_band(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((1000, 2))
        w = np.array([1.0, 0.0])
        assert band_membership(w, xs, 0.0).sum() == 0

    def test_boundary_inclusive(self):
        w = np.array([1.0, 0.0])
        assert band_membership(w, 0.3 * w, 0.3)

    def test_gaussian_band_mass(self):
        spec = gaussian_scenario([1.0])
        xs = sample_unlabeled(spec, 200_000, np.random.default_rng(6))
        b = 0.25
        est = np.mean(np.abs(xs) <= b)
        target = 2 * norm.cdf(b) - 1
        se = math.sqrt(target * (1 - target) / xs.size)
        assert abs(est - target) <= 3 * se


class TestRunMargin:
    def test_noiseless_small_battery(self):
        params = MarginParams(eps=0.1, delta=0.2)
        hits = 0
        for seed in range(10):
            w_star = np.array([math.cos(seed), math.sin(seed)])
            res = run_margin_adgac(Oracle(gaussian_scenario(w_star, seed=seed)), params)
            angle = math.acos(float(np.clip(res.w_hat @ w_star, -1, 1)))
            hits += (angle / math.pi) <= 0.1
            assert abs(np.linalg.norm(res.w_hat) - 1.0) <= 1e-12
        assert hits >= 9

    def test_truth_start_stays_close(self):
        w_star = np.array([1.0, 0.0])
        params = MarginParams(eps=0.1, delta=0.2)
        res = run_margin_adgac(Oracle(gaussian_scenario(w_star, seed=21)), params, w0=w_star)
        sched = res.schedule
        for k, w_k in enumerate(res.iterates[1:], start=1):
            angle = math.acos(float(np.clip(w_k @ w_star, -1, 1)))
            assert angle <= sched.r(k) + 0.05
        final = math.acos(float(np.clip(res.w_hat @ w_star, -1, 1)))
        assert final / math.pi <= 0.1

    def test_empty_band_raises_advice(self, monkeypatch):
        monkeypatch.setattr(margin, "MIN_ROUND_SAMPLES", 2)
        w_star = np.array([1.0, 0.0])
        oracle = Oracle(gaussian_scenario(w_star, seed=2))
        params = MarginParams(eps=0.1, delta=0.2,
                              constants=TunableConstants(n_mult_margin=1e-9))
        with pytest.raises(EmptyBandError):
            run_margin_adgac(oracle, params, w0=w_star)

    @pytest.mark.parametrize("case", ["below-n1", "between", "below-last"])
    def test_round_sample_cap_raises_naming_the_round(self, monkeypatch, case):
        # round 0 asks n(1) and round k asks n(k), nondecreasing in k: a cap
        # below n(1) stops round 0, and a cap between n(1) and the last round's
        # n stops the first round whose n exceeds it.  Only rounds 0 to R-1
        # draw, so a cap below n(R) alone lets the run finish
        params = MarginParams(eps=0.2, delta=0.2)
        sched = MarginSchedule(params, d=2)
        ns = {k: sched.n(k) for k in range(1, sched.rounds + 1)}
        w_star = np.array([1.0, 0.0])
        if case == "below-last":
            assert list(ns.values()) == [64, 112, 370, 1074, 2911]
            monkeypatch.setattr(margin, "MAX_ROUND_SAMPLES", 2000)
            res = run_margin_adgac(Oracle(gaussian_scenario(w_star, seed=3)), params, w0=w_star)
            assert res.rounds_run == len(res.trace) == sched.rounds
            return
        if case == "between":
            cap = ns[(1 + sched.rounds) // 2]
            assert ns[1] < cap < ns[sched.rounds]
            first = min(k for k, n in ns.items() if n > cap)
        else:
            cap, first = ns[1] - 1, 0
        monkeypatch.setattr(margin, "MAX_ROUND_SAMPLES", cap)
        with pytest.raises(EmptyBandError,
                           match=rf"^round {first} needs n={ns[max(first, 1)]} > cap {cap}$"):
            run_margin_adgac(Oracle(gaussian_scenario(w_star, seed=3)), params, w0=w_star)

    @pytest.mark.parametrize("v,message", [
        # opposite to w: distance 2 exceeds every round's radius (at most pi/2)
        (np.array([-1.0, 0.0, 0.0]), "left the ball"),
        # inside the ball, but a half-precision fit cannot be normalized to 1e-12
        (np.array([0.7, 0.2, 0.2], dtype=np.float16), "is not 1"),
    ])
    def test_infeasible_iterate_raises(self, monkeypatch, v, message):
        monkeypatch.setattr(margin, "minimize_hinge",
                            lambda *args, **kwargs: HingeFit(v=v, loss=0.0, iterations=1))
        w_star = np.array([1.0, 0.0, 0.0])
        oracle = Oracle(gaussian_scenario(w_star, seed=5))
        with pytest.raises(InfeasibleIterateError, match=message):
            run_margin_adgac(oracle, MarginParams(eps=0.2, delta=0.2), w0=w_star)

    def test_requires_gaussian_scenario(self):
        from adgac.oracles import uniform_scenario
        with pytest.raises(ValueError):
            run_margin_adgac(Oracle(uniform_scenario()), MarginParams(eps=0.1, delta=0.2))

    def test_bad_initial_direction_flagged_not_dropped(self):
        w_star = np.array([1.0, 0.0])
        params = MarginParams(eps=0.2, delta=0.2)
        res = run_margin_adgac(Oracle(gaussian_scenario(w_star, seed=8)), params, w0=-w_star)
        assert "w0-angle" in res.flags
        assert res.rounds_run == res.schedule.rounds  # the run still completed

    def test_initial_direction_from_seed_batch(self):
        rng = np.random.default_rng(7)
        w_star = np.array([0.0, 1.0])
        xs = rng.standard_normal((32, 2))
        ys = np.where(xs @ w_star >= 0, 1, -1)
        w0 = fit_initial_direction(xs, ys)
        assert np.linalg.norm(w0) == pytest.approx(1.0)
        assert math.acos(float(np.clip(w0 @ w_star, -1, 1))) < math.pi / 2

    def test_initial_direction_is_seed_fit_from_unit_mean(self):
        args, kwargs = hinge_case("initial-direction")
        fit = minimize_hinge(*args, **kwargs)
        np.testing.assert_array_equal(fit_initial_direction(*args[:2]),
                                      fit.v / np.linalg.norm(fit.v))

    def test_initial_direction_zero_mean_falls_back_to_e1(self):
        w0 = fit_initial_direction(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, -1]))
        np.testing.assert_array_equal(w0, [1.0, 0.0])

    def test_massart_run_completes_with_accounting(self, monkeypatch):
        w_star = np.array([1.0, 0.0, 0.0])
        oracle = Oracle(gaussian_scenario(
            w_star, LabelNoiseSpec(kind="massart", beta=0.2), seed=4))
        params = MarginParams(eps=0.1, delta=0.2)
        per_call = []  # (labels, comparisons) each core.adgac call asks
        labeled = []   # (points, labels) of each core.adgac call
        fitted = []    # (points, labels) each minimize_hinge call reads
        real_adgac, real_hinge = core.adgac, margin.minimize_hinge

        def adgac_spy(S, n, eps, oracle, k):
            before = oracle.counters.snapshot()
            result = real_adgac(S, n, eps, oracle, k)
            after = oracle.counters.snapshot()
            per_call.append((after[0] - before[0], after[1] - before[1]))
            labeled.append((np.copy(S), np.copy(result.labels)))
            return result

        def hinge_spy(xs, ys, *args, **kwargs):
            fitted.append((np.copy(xs), np.copy(ys)))
            return real_hinge(xs, ys, *args, **kwargs)

        monkeypatch.setattr(core, "adgac", adgac_spy)
        monkeypatch.setattr(margin, "minimize_hinge", hinge_spy)
        res = run_margin_adgac(oracle, params)
        # one labeling per round, each traced; only the seed batch is labeled outside
        assert len(per_call) == len(res.trace) == res.rounds_run
        assert [(t.labels, t.comparisons) for t in res.trace] == per_call
        assert [t.sample_size for t in res.trace] == [len(S) for S, _ in labeled]
        assert oracle.counters.labels == margin.SEED_BATCH + sum(n for n, _ in per_call)
        assert oracle.counters.comparisons == sum(c for _, c in per_call)
        # the seed fit reads the seed batch, then fit k reads what call k labeled
        seed_fit, *round_fits = fitted
        assert len(seed_fit[0]) == margin.SEED_BATCH
        assert len(round_fits) == len(labeled)
        for (fit_xs, fit_ys), (S, labels) in zip(round_fits, labeled):
            np.testing.assert_array_equal(fit_xs, S)
            np.testing.assert_array_equal(fit_ys, labels)
