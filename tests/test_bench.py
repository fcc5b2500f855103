"""Trial batteries, reporting, config round-trips, and the passive baseline."""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from adgac import bench
from adgac.bench import (CSV_HEADER, DEFAULT_CONSTANTS, ExperimentConfig, TunableConstants,
                         emit_report, parse_report_csv, passive_erm, run_trials)
from adgac.hypotheses import ThresholdClass
from adgac.oracles import (Oracle, QueryCounters, gaussian_scenario, sample_unlabeled, score,
                           uniform_scenario)


class TestPassiveErm:
    def test_large_noiseless_sample_converges(self):
        spec = uniform_scenario(0.5, seed=0)
        klass = ThresholdClass(np.linspace(0, 1, 101))
        oracle = Oracle(spec)
        idx = passive_erm(oracle, klass, 5000)
        assert oracle.counters == QueryCounters(5000, 0)
        assert abs(klass.grid[idx] - 0.5) < 0.02

    def test_single_sample_picks_an_extreme_fit(self):
        spec = uniform_scenario(0.5, seed=1)
        klass = ThresholdClass(np.linspace(0, 1, 101))
        idx = passive_erm(Oracle(spec), klass, 1)
        counts = klass.error_counts(*_one_sample(spec, 1))
        # brute check: returned hypothesis attains the minimum count
        assert counts[idx] == counts.min()

    def test_tie_breaks_to_lower_index(self):
        spec = uniform_scenario(0.5, seed=2)
        klass = ThresholdClass([0.2, 0.8])
        idx = passive_erm(Oracle(spec), klass, 1)
        # a single labeled point in (0.2, 0.8] produces a tie; elsewhere the
        # counts are determined; either way argmin takes the lowest index
        assert idx == int(np.argmin(klass.error_counts(*_one_sample(spec, 1))))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            passive_erm(Oracle(uniform_scenario()), ThresholdClass([0.5]), 0)

    def test_single_sample_error_at_most_half_plus_slack(self):
        # with one labeled point an extreme threshold fits it, and under the
        # uniform marginal the resulting classifier errs on at most half the
        # mass plus the distance from the grid edge to the point
        klass = ThresholdClass(np.linspace(0, 1, 101))
        worst = 0.0
        for seed in range(20):
            spec = uniform_scenario(0.5, seed=seed)
            idx = passive_erm(Oracle(spec), klass, 1)
            err, _ = bench.measure_error(lambda pts: klass.positive(idx, pts), spec)
            worst = max(worst, err)
        assert worst <= 0.5 + 0.05


def _labels_error(predict_labels, spec):
    """measure_error as it scored +-1 label arrays: the same draws, the
    optimal labels np.where(g >= 0, 1, -1) and the share of unequal labels."""
    rng = np.random.default_rng([spec.seed, bench._ERR_MC_SALT])
    xs = sample_unlabeled(spec, bench._ERR_MC_SAMPLES, rng)
    truth = np.where(score(spec, xs) >= 0, 1, -1)
    n = len(truth)
    err = int(np.sum(np.asarray(predict_labels(xs)) != truth)) / n
    return err, math.sqrt(max(err * (1.0 - err), 1.0 / n) / n)


class TestMeasureError:
    GRID = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("idx", [0, 300, 500, 1000], ids=["t=0", "t=0.3", "t=t*", "t=1"])
    def test_threshold_mask_matches_the_labels_path(self, idx):
        spec = uniform_scenario(0.5, seed=7)
        klass = ThresholdClass(self.GRID)
        got = bench.measure_error(lambda pts: klass.positive(idx, pts), spec)
        assert got == _labels_error(lambda pts: klass.predict(idx, pts), spec)

    def test_the_tie_at_the_true_threshold_counts_once(self):
        # put t = t-hat on the 8th Monte Carlo draw: the hypothesis says -1
        # there (x > t fails) and the optimal rule +1 (g = 0), so exactly
        # that point is an error on both paths
        seed = 3
        rng = np.random.default_rng([seed, bench._ERR_MC_SALT])
        t = float(rng.random(bench._ERR_MC_SAMPLES)[7])
        spec = uniform_scenario(t, seed=seed)
        klass = ThresholdClass([t])
        got = bench.measure_error(lambda pts: klass.positive(0, pts), spec)
        assert got == _labels_error(lambda pts: klass.predict(0, pts), spec)
        assert got[0] == 1 / bench._ERR_MC_SAMPLES

    @pytest.mark.parametrize("name", ["w*", "near -w*", "random"])
    def test_halfspace_mask_matches_the_labels_path(self, name):
        rng = np.random.default_rng(11)
        w_star = rng.standard_normal(5)
        w_star /= np.linalg.norm(w_star)
        w_hat = {"w*": w_star, "near -w*": -w_star + 0.01 * rng.standard_normal(5),
                 "random": rng.standard_normal(5)}[name]
        spec = gaussian_scenario(w_star, seed=5)
        got = bench.measure_error(lambda pts: pts @ w_hat >= 0, spec)
        assert got == _labels_error(lambda pts: np.where(pts @ w_hat >= 0, 1, -1), spec)

    def test_labels_instead_of_a_mask_rejected(self):
        klass = ThresholdClass(self.GRID)
        with pytest.raises(TypeError, match="dtype int64"):
            bench.measure_error(lambda pts: klass.predict(500, pts), uniform_scenario(0.5))


def _one_sample(spec, seed_n):
    oracle = Oracle(spec)
    xs = oracle.sample(seed_n)
    return xs, oracle.label_many(xs)


class TestBatteryDeterminism:
    def _config(self, **kw):
        base = dict(method="adgac-only", eps=0.05, delta=0.1, trials=3, seed=11,
                    n_samples=400, k=5)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_identical_runs_identical_reports(self):
        r1, s1 = run_trials(self._config())
        r2, s2 = run_trials(self._config())
        for a, b in zip(r1, r2):
            da, db = dataclasses.asdict(a), dataclasses.asdict(b)
            da.pop("wall_ms"), db.pop("wall_ms")
            assert da == db
        assert s1["labels_total"] == s2["labels_total"]

    def test_accounting_conservation(self):
        reports, summary = run_trials(self._config())
        assert summary["labels_total"] == sum(r.labels for r in reports)
        assert summary["comparisons_total"] == sum(r.comparisons for r in reports)

    @pytest.mark.parametrize("method", [m for m, (world, *_) in bench.METHODS.items() if world])
    def test_incompatible_method_fails_fast(self, method):
        other = {"uniform-interval": "isotropic-gaussian", "isotropic-gaussian": "uniform-interval"}
        with pytest.raises(ValueError, match="batteries run on"):
            ExperimentConfig(method=method, dist=other[bench.METHODS[method][0]])

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError, match="unknown dist"):
            ExperimentConfig(method="adgac-only", dist="isotropic-gausian")

    @pytest.mark.parametrize("kw, key", [
        (dict(label_noise="adversarial", nu=2.0), "nu"),
        (dict(label_noise="adversarial", nu=1.0), "nu"),
        (dict(comp_noise="band-adversarial", nu_prime=0.9), "nu_prime"),
        (dict(comp_noise="band-adversarial", nu_prime=1e-4, threshold=0.0), "nu_prime"),
        (dict(comp_noise="band-adversarial", nu_prime=0.5, dist="isotropic-gaussian",
              d=3), "nu_prime"),
    ], ids=["nu-2", "nu-1", "nu-prime-0.9", "nu-prime-threshold-0", "nu-prime-gaussian-0.5"])
    def test_unrealizable_corruption_mass_rejected(self, kw, key):
        # every trial's oracle calibrates this band, so every trial failed there
        with pytest.raises(ValueError, match=f" mass {key} = "):
            self._config(**kw)

    def test_trial_error_recorded_not_fatal(self, monkeypatch):
        # a learner that raises inside every trial
        def broken(*args):
            raise FloatingPointError("learner failed")

        monkeypatch.setattr(bench.core, "adgac", broken)
        cfg = self._config(trials=2)
        reports, summary = run_trials(cfg)
        assert all(r.flags.startswith("error:") for r in reports)
        assert summary["failed_trials"] == 2
        assert summary["success_rate"] == 0.0

    def test_error_row_keeps_the_queries_its_trial_asked(self, monkeypatch):
        # a learner that asks 5 labels and then raises: the row counts them
        def broken(xs, plan, oracle):
            oracle.label_many(xs[:5])
            raise FloatingPointError("learner failed")

        monkeypatch.setattr(bench.core, "adgac", broken)
        reports, summary = run_trials(self._config(trials=2))
        assert [(r.labels, r.comparisons, r.rounds, r.flags) for r in reports] == [
            (5, 0, 0, "error:FloatingPointError")] * 2
        assert summary["labels_total"] == 10

    def test_error_before_the_oracle_exists_counts_nothing(self, monkeypatch):
        def no_oracle(spec):
            raise RuntimeError("no oracle")

        monkeypatch.setattr(bench, "Oracle", no_oracle)
        (report,), _ = run_trials(self._config(trials=1))
        assert (report.labels, report.comparisons, report.flags) == (0, 0, "error:RuntimeError")


class TestReportFiles:
    def _reports(self, tmp_path, trials=2):
        cfg = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1,
                               trials=trials, seed=3, n_samples=300, k=5,
                               out=str(tmp_path / "r.csv"))
        reports, summary = run_trials(cfg)
        return cfg, reports, summary

    def test_single_trial_two_line_csv(self, tmp_path):
        cfg, reports, summary = self._reports(tmp_path, trials=1)
        files = emit_report(reports, cfg.out, config=cfg, summary=summary)
        lines = Path(cfg.out).read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_header_order_exact(self, tmp_path):
        assert CSV_HEADER == ("seed,method,epsilon,delta,err,err_se,labels,"
                              "comparisons,rounds,wall_ms,flags")

    def test_round_trip(self, tmp_path):
        cfg, reports, summary = self._reports(tmp_path)
        emit_report(reports, cfg.out, config=cfg, summary=summary)
        parsed = parse_report_csv(cfg.out)
        assert [dataclasses.asdict(r) for r in parsed] == [
            dataclasses.asdict(r) for r in reports]

    @pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0],
                                      lambda row: row + ",extra"],
                             ids=["no-flags-column", "extra-column"])
    def test_row_with_wrong_column_count_names_its_line(self, tmp_path, edit):
        cfg, reports, summary = self._reports(tmp_path)
        emit_report(reports, cfg.out, summary)
        lines = Path(cfg.out).read_text().splitlines()
        lines[2] = edit(lines[2])
        Path(cfg.out).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_report_csv(cfg.out)

    def test_sidecars_written(self, tmp_path):
        cfg, reports, summary = self._reports(tmp_path)
        files = emit_report(reports, cfg.out, config=cfg, summary=summary)
        assert set(files) == {cfg.out, cfg.out + ".summary.txt", cfg.out + ".config.txt"}
        for f in files:
            assert os.path.exists(f)
        echoed = ExperimentConfig.from_text(Path(cfg.out + ".config.txt").read_text())
        assert echoed == cfg

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], str(tmp_path / "x.csv"), {})


class TestConfigFormat:
    def test_round_trip_through_text(self):
        cfg = ExperimentConfig(method="a2-adgac", eps=0.025, delta=0.1, trials=7,
                               seed=13, grid=2001, label_noise="massart", beta=0.2)
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    @pytest.mark.parametrize("out", ["runs#1.csv", r"C:\tmp\r.csv", "it's \"q\".csv"])
    def test_out_path_round_trip(self, out):
        # '#' inside quotes is not a comment, and repr's escapes are undone
        cfg = ExperimentConfig(method="adgac-only", out=out)
        assert ExperimentConfig.from_text(cfg.to_text()).out == out

    def test_comment_after_quoted_value(self):
        cfg = ExperimentConfig.from_text("method = adgac-only\nout = 'a#b.csv'  # note\n")
        assert cfg.out == "a#b.csv"

    @pytest.mark.parametrize("line", ["out = 'runs.csv", "out = 'a', 'b'"])
    def test_malformed_quoted_value_rejected(self, line):
        with pytest.raises(ValueError, match="line 2"):
            ExperimentConfig.from_text("method = adgac-only\n" + line + "\n")

    def test_every_field_parses_by_its_declared_type(self):
        cfg = ExperimentConfig(method="margin-adgac", eps=0.2, delta=0.3, trials=2, seed=5,
                               dist="isotropic-gaussian", d=3, threshold=0.25,
                               label_noise="tsybakov", beta=0.1, kappa=1.5, mu=0.5, nu=0.01,
                               comp_noise="band-adversarial", nu_prime=1e-3, grid=11,
                               n_samples=50, k=3, out="runs.csv")
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg
        for f in dataclasses.fields(ExperimentConfig):
            if f.name != "constants":
                assert type(getattr(again, f.name)).__name__ == f.type

    def test_comments_and_blanks_ignored(self):
        text = """
        # battery
        method = adgac-only
        eps = 0.1      # target
        trials = 2
        """
        cfg = ExperimentConfig.from_text(text)
        assert cfg.method == "adgac-only" and cfg.eps == 0.1 and cfg.trials == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("method = adgac-only\nbogus = 1\n")

    @pytest.mark.parametrize("key,first,second", [("eps", "0.1", "0.2"), ("C3", "1", "7")])
    def test_key_set_twice_rejected(self, key, first, second):
        # a field and a constant alike: the file names one value per key
        text = f"method = adgac-only\n{key} = {first}\n# note\n{key} = {second}\n"
        with pytest.raises(ValueError, match=f"'{key}' is set twice, on lines 2 and 4"):
            ExperimentConfig.from_text(text)

    def test_constants_round_trip(self):
        c = dataclasses.replace(DEFAULT_CONSTANTS, C3=7.5, n_mult=2.0)
        cfg = ExperimentConfig(method="a2-adgac", constants=c)
        assert ExperimentConfig.from_text(cfg.to_text()).constants == c

    def test_constants_inline_in_config(self):
        cfg = ExperimentConfig.from_text("method = adgac-only\nC3 = 9.0\n")
        assert cfg.constants.C3 == 9.0

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("method adgac-only\n")


class TestGateFlags:
    def test_comparison_gate_flag(self):
        cfg = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1, trials=1,
                               seed=0, n_samples=200, k=5,
                               comp_noise="band-adversarial", nu_prime=0.01)
        reports, _ = run_trials(cfg)
        assert "tolcomp-gate" in reports[0].flags

    def test_within_gate_no_flag(self):
        cfg = ExperimentConfig(method="adgac-only", eps=0.05, delta=0.1, trials=1,
                               seed=0, n_samples=200, k=5,
                               comp_noise="band-adversarial", nu_prime=1e-4)
        reports, _ = run_trials(cfg)
        assert "tolcomp-gate" not in reports[0].flags

    # each gate on both sides: a mass 1e-6 (relative) inside it raises no
    # flag, one as far past it does
    both_sides = pytest.mark.parametrize("side, past", [(1.0 - 1e-6, False), (1.0 + 1e-6, True)],
                                         ids=["inside", "past"])

    @both_sides
    @pytest.mark.parametrize("label_noise, kappa, gate_kappa, C2", [
        ("massart", 1.0, 1.0, 1.0),
        ("massart", 1.5, 1.0, 0.5),      # kappa counts only under tsybakov noise
        ("tsybakov", 1.5, 1.5, 1.0),
    ])
    def test_comparison_gate_is_C2_eps_to_2kappa_delta(self, label_noise, kappa, gate_kappa,
                                                       C2, side, past):
        # nu' <= C2 eps^(2 kappa) delta, kappa the label noise exponent
        eps, delta = 0.2, 0.1
        cfg = ExperimentConfig(method="adgac-only", eps=eps, delta=delta,
                               label_noise=label_noise, kappa=kappa,
                               comp_noise="band-adversarial",
                               nu_prime=C2 * eps ** (2 * gate_kappa) * delta * side,
                               constants=TunableConstants(C2=C2))
        assert bench._gate_flags(cfg) == (["tolcomp-gate"] if past else [])

    @both_sides
    @pytest.mark.parametrize("C4", [1.0, 2.0])
    def test_label_gate_is_C4_eps(self, C4, side, past):
        # nu <= C4 eps, whatever delta
        eps = 0.2
        cfg = ExperimentConfig(method="adgac-only", eps=eps, delta=0.1,
                               label_noise="adversarial", nu=C4 * eps * side,
                               constants=TunableConstants(C4=C4))
        assert bench._gate_flags(cfg) == (["tollabel-gate"] if past else [])
