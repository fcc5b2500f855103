"""Trial batteries, reporting, config round-trips, and the passive baseline."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from adgac import bench
from adgac.bench import (CSV_HEADER, DEFAULT_CONSTANTS, ExperimentConfig,
                         TunableConstants, emit_report, parse_report_csv,
                         passive_erm, run_trials)
from adgac.hypotheses import ThresholdClass
from adgac.oracles import LabelNoiseSpec, Oracle, uniform_scenario


class TestPassiveErm:
    def test_large_noiseless_sample_converges(self):
        spec = uniform_scenario(0.5, seed=0)
        klass = ThresholdClass(np.linspace(0, 1, 101))
        idx, labels = passive_erm(spec, klass, 5000)
        assert labels == 5000
        assert abs(klass.grid[idx] - 0.5) < 0.02

    def test_single_sample_picks_an_extreme_fit(self):
        spec = uniform_scenario(0.5, seed=1)
        klass = ThresholdClass(np.linspace(0, 1, 101))
        idx, _ = passive_erm(spec, klass, 1)
        counts = klass.error_counts(*_one_sample(spec, 1))
        # brute check: returned hypothesis attains the minimum count
        assert counts[idx] == counts.min()

    def test_tie_breaks_to_lower_index(self):
        spec = uniform_scenario(0.5, seed=2)
        klass = ThresholdClass([0.2, 0.8])
        rng = np.random.default_rng(2)
        oracle = Oracle(spec, rng)
        idx, _ = passive_erm(spec, klass, 1, rng=rng, oracle=oracle)
        # a single labeled point in (0.2, 0.8] produces a tie; elsewhere the
        # counts are determined; either way argmin takes the lowest index
        assert idx == int(np.argmin(klass.error_counts(*_one_sample(spec, 1))))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            passive_erm(uniform_scenario(), ThresholdClass([0.5]), 0)

    def test_single_sample_error_at_most_half_plus_slack(self):
        # with one labeled point an extreme threshold fits it, and under the
        # uniform marginal the resulting classifier errs on at most half the
        # mass plus the distance from the grid edge to the point
        klass = ThresholdClass(np.linspace(0, 1, 101))
        worst = 0.0
        for seed in range(20):
            spec = uniform_scenario(0.5, seed=seed)
            idx, _ = passive_erm(spec, klass, 1)
            err, _ = bench.measure_error(lambda pts: klass.predict(idx, pts), spec, seed)
            worst = max(worst, err)
        assert worst <= 0.5 + 0.05


def _one_sample(spec, seed_n):
    rng = np.random.default_rng(spec.seed)
    oracle = Oracle(spec, rng)
    xs = oracle.sample(seed_n)
    ys = np.array([oracle.label(x) for x in xs])
    return xs, ys


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
        with pytest.raises(ValueError, match="unknown world"):
            ExperimentConfig(method="adgac-only", dist="isotropic-gausian")

    def test_trial_error_recorded_not_fatal(self):
        # an unachievable comparison mass breaks calibration inside the trial
        cfg = self._config(comp_noise="band-adversarial", nu_prime=0.9, trials=2)
        reports, summary = run_trials(cfg)
        assert all(r.flags.startswith("error:") for r in reports)
        assert summary["failed_trials"] == 2
        assert summary["success_rate"] == 0.0


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
            emit_report([], str(tmp_path / "x.csv"))


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
                               dist="isotropic-gaussian", d=3, threshold=0.25, w_star="e1",
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

    def test_constants_round_trip(self):
        c = dataclasses.replace(DEFAULT_CONSTANTS, C3=7.5, n_mult=2.0)
        again = TunableConstants.from_text(c.to_text())
        assert again == c

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
