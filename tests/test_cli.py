"""Command-line surface: subcommands, config files, exit codes."""

import argparse
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adgac import bench, cli, minimax
from adgac.a2 import RunParams
from adgac.bench import CSV_HEADER, ExperimentConfig, parse_report_csv
from adgac.cli import EXIT_OK, EXIT_THRESHOLD, EXIT_USAGE, main
from adgac.margin import MarginParams
from adgac.minimax import ScoreDistribution
from adgac.oracles import ComparisonNoiseSpec, LabelNoiseSpec


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["not-a-command"]) == EXIT_USAGE

    def test_missing_bench_config_is_usage_error(self, capsys):
        assert main(["bench"]) == EXIT_USAGE

    def test_constants_flag_is_unrecognized(self, tmp_path, capsys):
        # constants are keys of the one --config file
        path = tmp_path / "constants.txt"
        path.write_text("C3 = 7.5\n")
        assert main(["a2", "--constants", str(path)]) == EXIT_USAGE
        assert "unrecognized arguments: --constants" in capsys.readouterr().err

    def test_w_star_flag_is_unrecognized(self, capsys):
        # every gaussian trial draws its own w*; the law is rotation-invariant,
        # so no setting picks it
        assert main(["margin", "--dist", "isotropic-gaussian", "--dim", "2",
                     "--w-star", "e1"]) == EXIT_USAGE
        assert "unrecognized arguments: --w-star" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["adgac-run", "--eps", "not-a-number"]) == EXIT_USAGE

    def test_lemma_check_ok(self, capsys):
        assert main(["lemma-check", "--instances", "500"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "bound holds" in out

    def test_minimax_check_ok(self, capsys):
        assert main(["minimax-check", "--grid", "4000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "comparison error" in out and "best threshold" in out

    @pytest.mark.parametrize("nu", ["nan", "-0.01", "0.5"])
    def test_minimax_check_bad_mass_is_usage_error(self, nu, capsys):
        # nan printed `interval [nan, nan]` and missed the threshold (exit 3)
        assert main(["minimax-check", "--grid", "100", "--nu-prime", nu]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_minimax_check_infinite_interval_is_usage_error(self, capsys):
        # the gaussian fold at nu' = 0.25 has interval [-inf, inf]: it printed
        # `t = nan` and missed the threshold (exit 3)
        argv = ["minimax-check", "--grid", "100", "--base", "gaussian", "--nu-prime", "0.25"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "interval" in captured.err

    @pytest.mark.parametrize("base,nu", [("uniform", "0.25"), ("gaussian", "0.2499")])
    def test_minimax_check_near_whole_class_fold_ok(self, base, nu, capsys):
        argv = ["minimax-check", "--grid", "4000", "--base", base, "--nu-prime", nu]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "nan" not in out and "inf" not in out

    @pytest.mark.parametrize("grid", ["0", "1", "-5"])
    def test_minimax_check_short_grid_is_usage_error(self, grid, capsys):
        # --grid 0 divided by zero before the grid was checked (exit 2)
        assert main(["minimax-check", "--grid", grid]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "need at least two grid cells" in captured.err

    @pytest.mark.parametrize("argv", [
        ["adgac-run", "--threshold", "1.5"],
        ["adgac-run", "--beta", "0.7"],
        ["margin", "--dist", "isotropic-gaussian", "--dim", "0"],
        ["erm", "--dist", "isotropic-gaussian", "--dim", "3"],
        ["margin", "--dist", "uniform-interval", "--dim", "2"],
        ["margin", "--dist", "isotropic-gaussian", "--dim", "-1"],
    ], ids=["threshold-1.5", "beta-0.7", "dim-0", "erm-gaussian", "margin-uniform",
            "dim-minus-1"])
    def test_invalid_world_is_usage_error(self, argv, capsys):
        assert main(argv + ["--trials", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err
        if "--dim" in argv and int(argv[argv.index("--dim") + 1]) < 1:
            assert f"d = {argv[argv.index('--dim') + 1]} must be at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["adgac-run", "--eps", "0.7", "--n", "200"],
        ["adgac-run", "--delta", "1.0", "--n", "200"],
        ["a2", "--eps", "0.9", "--delta", "0.7"],
        ["baseline-a2", "--eps", "0.9", "--delta", "0.7"],
        ["margin", "--dist", "isotropic-gaussian", "--eps", "0.95", "--delta", "0.7"],
        ["erm", "--eps", "nan"],
        ["erm", "--eps", "-3"],
        ["erm", "--delta", "1.5"],
        ["adgac-run", "--k", "3", "--n", "200", "--eps", "nan"],
        ["adgac-run", "--k", "3", "--n", "200", "--delta", "0"],
    ], ids=["adgac-eps-0.7", "adgac-delta-1", "a2-eps-0.9", "baseline-eps-0.9",
            "margin-eps-0.95", "erm-eps-nan", "erm-eps-minus-3", "erm-delta-1.5",
            "adgac-k-eps-nan", "adgac-k-delta-0"])
    def test_eps_delta_every_trial_rejects_is_usage_error(self, argv, capsys):
        assert main(argv + ["--trials", "2"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["--label-noise", "tsybakov", "--kappa", "nan"], "kappa"),
        (["--label-noise", "tsybakov", "--kappa", "inf"], "kappa"),
        (["--label-noise", "tsybakov", "--kappa", "1.5", "--mu", "nan"], "mu"),
        (["--label-noise", "adversarial", "--nu", "nan"], "nu"),
        (["--comp-noise", "band-adversarial", "--nu-prime", "nan"], "nu_prime"),
    ], ids=["kappa-nan", "kappa-inf", "mu-nan", "nu-nan", "nu-prime-nan"])
    def test_non_finite_noise_is_usage_error_naming_its_key(self, argv, key, capsys):
        # NaN passed the `<` checks, so the battery ran as if no noise were set
        assert main(["adgac-run", "--n", "200", "--k", "3"] + argv) == EXIT_USAGE
        assert f" {key} = {argv[-1]} must" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        # default_rng(-1) raised inside trial 0, one failed row in a run that exited 0
        assert main(["a2", "--seed", "-1", "--trials", "2", "--grid", "101",
                     "--eps", "0.2"]) == EXIT_USAGE
        assert "seed = -1 must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["adgac-run", "--n", "0"],
        ["erm", "--n", "0"],
        ["a2", "--grid", "0", "--eps", "0.2"],
        ["baseline-a2", "--grid", "0", "--eps", "0.2"],
        ["erm", "--grid", "0"],
    ], ids=["adgac-n-0", "erm-n-0", "a2-grid-0", "baseline-grid-0", "erm-grid-0"])
    def test_empty_sample_or_grid_is_usage_error(self, argv, capsys):
        assert main(argv + ["--trials", "2"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["a2", "margin"])
    @pytest.mark.parametrize("line", ["n_mult = 0", "c0 = -1", "C3 = nan", "tnc_mult = inf",
                                      "n_mult_margin = 0.0"])
    def test_invalid_constant_is_usage_error_naming_its_key(self, tmp_path, capsys,
                                                           command, line):
        path = tmp_path / "constants.txt"
        path.write_text(line + "\n")
        world = ["--dist", "isotropic-gaussian"] if command == "margin" else ["--grid", "101"]
        assert main([command, "--config", str(path), "--trials", "2"] + world) == EXIT_USAGE
        key = line.split(" = ")[0]
        assert f"constant {key} = " in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,text,named", [
        pytest.param("a2", "--config", "C3 = abc\n", "C3 = 'abc'", id="a2-config-C3"),
        ("bench", "--config", "method = a2-adgac\ntrials = two\n", "trials = 'two'"),
        ("bench", "--config", "method = adgac-only\nc1 = x\n", "c1 = 'x'"),
    ])
    def test_non_numeric_value_is_usage_error_naming_its_key(self, tmp_path, capsys,
                                                             command, flag, text, named):
        path = tmp_path / "values.txt"
        path.write_text(text)
        assert main([command, flag, str(path), "--grid", "101"]) == EXIT_USAGE
        assert named in capsys.readouterr().err

    def test_unknown_w_star_in_config_is_usage_error(self, tmp_path, capsys):
        # w_star is no config key: a sidecar that still holds it is rejected,
        # naming it, as the --w-star flag is
        path = tmp_path / "bench.txt"
        path.write_text('method = "margin-adgac"\ndist = "isotropic-gaussian"\nd = 3\n'
                        "eps = 0.2\ndelta = 0.2\nw_star = 'random'\n")
        assert main(["bench", "--config", str(path)]) == EXIT_USAGE
        assert "unknown config key 'w_star'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['label_noise = "tsybakov-ish"', 'comp_noise = "band"'])
    def test_unknown_choice_in_config_names_its_key(self, tmp_path, capsys, line):
        path = tmp_path / "bench.txt"
        path.write_text(f'method = "adgac-only"\n{line}\n')
        assert main(["bench", "--config", str(path)]) == EXIT_USAGE
        assert f"unknown {line.split()[0]} " in capsys.readouterr().err

    def test_given_batch_size_lifts_the_half_eps_limit(self, capsys):
        # with --k the batch-size formula, and its eps < 1/2, is never used
        assert main(["adgac-run", "--eps", "0.7", "--k", "3", "--n", "200"]) == EXIT_OK

    def test_negative_instance_count_is_usage_error(self, capsys):
        assert main(["lemma-check", "--instances", "-5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_zero_max_n_is_usage_error(self, capsys):
        assert main(["lemma-check", "--max-n", "0"]) == EXIT_USAGE

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("gate", ["nan", "-0.1", "1.5"])
    def test_min_success_outside_unit_interval_is_usage_error(self, gate, capsys):
        # nan never tripped the gate, and 1.5 ran the battery only to exit 3
        assert main(["adgac-run", "--n", "200", "--k", "3", "--min-success", gate]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--min-success" in captured.err

    @pytest.mark.parametrize("argv, key", [
        (["adgac-run", "--n", "200", "--k", "3", "--label-noise", "adversarial", "--nu", "2"],
         "nu"),
        (["a2", "--comp-noise", "band-adversarial", "--nu-prime", "0.6", "--grid", "101",
          "--eps", "0.2", "--delta", "0.2"], "nu_prime"),
    ], ids=["adgac-nu-2", "a2-nu-prime-0.6"])
    def test_unrealizable_corruption_mass_is_usage_error(self, argv, key, capsys):
        # each trial failed in calibration, and the run printed `failed trials 1` and exited 0
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f" mass {key} = " in captured.err

    def test_min_success_gate(self, capsys):
        # a gate no trial can meet trips the acceptance exit code: adversarial
        # labels of mass nu = 0.2 hold ADGAC's error near nu/2 = 0.1, far above eps
        rc = main(["adgac-run", "--trials", "1", "--n", "200", "--k", "3",
                   "--eps", "0.01", "--delta", "0.1", "--seed", "1",
                   "--label-noise", "adversarial", "--nu", "0.2",
                   "--min-success", "1.0"])
        assert rc == EXIT_THRESHOLD


class TestFailureShare:
    """Each learner splits delta over its labeling rounds, A² by 4 log2(1/eps)
    and Margin-ADGAC by 8 log2(1/eps); a share of 1 or more is rejected when
    the parameters are built, and by the CLI as a usage error naming the rule."""

    A2_RULE = "per-round failure share delta / (4 log2(1/eps)) must be below 1"
    MARGIN_RULE = "per-round failure share delta / (8 log2(1/eps)) must be below 1"

    def test_a2_share_at_or_above_one_rejected(self):
        # 0.9 / (4 log2(1/0.9)) is about 1.48
        with pytest.raises(ValueError, match=re.escape(self.A2_RULE)):
            RunParams(0.9, 0.9)

    def test_margin_share_below_one_builds(self):
        # 0.9 / (8 log2(1/0.9)) is about 0.74
        assert MarginParams(0.9, 0.9).gamma == 0.9 / (8 * math.log2(1 / 0.9))

    def test_margin_share_at_or_above_one_rejected(self):
        # 0.9 / (8 log2(1/0.95)) is about 1.52
        with pytest.raises(ValueError, match=re.escape(self.MARGIN_RULE)):
            MarginParams(0.95, 0.9)

    @pytest.mark.parametrize("command", ["a2", "baseline-a2"])
    def test_a2_batteries_reject_the_share(self, command, capsys):
        assert main([command, "--eps", "0.9", "--delta", "0.9"]) == EXIT_USAGE
        assert self.A2_RULE in capsys.readouterr().err

    def test_margin_battery_runs_below_one(self, capsys):
        assert main(["margin", "--eps", "0.9", "--delta", "0.9", "--trials", "1"]) == EXIT_OK

    def test_margin_battery_rejects_the_share(self, capsys):
        assert main(["margin", "--eps", "0.95", "--delta", "0.9"]) == EXIT_USAGE
        assert self.MARGIN_RULE in capsys.readouterr().err


class TestOnePassConfig:
    """A battery's config is built once: the file, then the flags and the
    subcommand's method over it."""

    def test_battery_config_without_method_runs_that_battery(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 0.2\ndelta = 0.2\ngrid = 101\nseed = 2\n")
        assert main(["a2", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("method a2-adgac ")

    @pytest.mark.parametrize("with_file", [True, False], ids=["config", "bare"])
    def test_bench_without_method_is_usage_error_naming_it(self, tmp_path, capsys, with_file):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 0.2\n")
        argv = ["bench", "--config", str(cfg)] if with_file else ["bench"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "method" in captured.err

    def test_flag_overrides_a_file_value_that_fails_alone(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = adgac-only\neps = 0.7\nn_samples = 200\n")
        assert main(["bench", "--config", str(cfg), "--eps", "0.1"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("method adgac-only  eps 0.1 ")

    def test_margin_runs_on_its_world_when_dist_is_unset(self, capsys):
        # margin-adgac runs only on the gaussian world, which the subcommand names
        assert main(["margin", "--eps", "0.3", "--delta", "0.3", "--dim", "2"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("method margin-adgac ")

    def test_bench_config_method_sets_the_default_world(self, tmp_path, capsys):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "o.csv"
        cfg.write_text(f"method = margin-adgac\neps = 0.3\ndelta = 0.3\nd = 2\nout = {out}\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_OK
        assert "dist = 'isotropic-gaussian'\n" in (tmp_path / "o.csv.config.txt").read_text()

    @pytest.mark.parametrize("method, dist", [("adgac-only", "uniform-interval"),
                                              ("margin-adgac", "isotropic-gaussian"),
                                              ("passive-erm", "uniform-interval")])
    def test_default_world_is_the_method_world(self, method, dist):
        # adgac-only runs on either world and keeps the uniform default
        assert ExperimentConfig.from_text("", method=method).dist == dist

    @pytest.mark.parametrize("argv, floor", [
        (["erm", "--trials", "0"], "trials = 0 must be at least 1"),
        (["baseline-a2", "--seed", "-1"], "seed = -1 must be at least 0"),
        (["adgac-run", "--dim", "0"], "d = 0 must be at least 1"),
        (["adgac-run", "--k", "-1"], "k = -1 must be at least 0"),
        (["a2", "--n", "0"], "n_samples = 0 must be at least 1"),
        (["adgac-run", "--grid", "0"], "grid = 0 must be at least 1"),
    ], ids=["trials-0", "seed-minus-1", "dim-0", "k-minus-1", "a2-n-0", "adgac-grid-0"])
    def test_integer_floor_is_usage_error_naming_its_key(self, argv, floor, capsys):
        # n, grid and d are checked on batteries that ignore them, as k is on every one
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and floor in captured.err


BATTERIES = ["adgac-run", "a2", "margin", "baseline-a2", "erm"]


class TestFlagsAreFields:
    @pytest.mark.parametrize("command", BATTERIES + ["bench"])
    def test_every_config_field_is_a_flag_dest(self, command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests == fields - {"method", "constants"} | {"config", "min_success"}

    @pytest.mark.parametrize("flag, value", [("--trials", "2.5"), ("--grid", "1e3")])
    def test_flag_parses_by_its_field_type(self, flag, value, capsys):
        assert main(["a2", flag, value]) == EXIT_USAGE
        assert f"argument {flag}: invalid int value" in capsys.readouterr().err

    def test_renamed_flags_set_their_fields(self):
        args = cli.build_parser().parse_args(
            ["margin", "--dist", "isotropic-gaussian", "--dim", "3", "--n", "50"])
        config = cli._build_config(args)
        assert (config.d, config.n_samples) == (3, 50)

    def test_batteries_run_exactly_the_method_table(self):
        parser = cli.build_parser()
        assert {parser.parse_args([c]).method for c in BATTERIES} == set(bench.METHODS)

    # ids are pytest's positional ones from when each command also had a
    # --w-star row (position 1 of 4), so every row keeps its id
    @pytest.mark.parametrize("command, flag, allowed", [
        *[pytest.param(c, flag, allowed, id=f"{c}-{flag}-allowed{4 * i + j}")
          for i, c in enumerate(BATTERIES + ["bench"]) for j, flag, allowed in [
              (0, "--dist", ExperimentConfig.CHOICES["dist"]),
              (2, "--label-noise", LabelNoiseSpec.KINDS),
              (3, "--comp-noise", ComparisonNoiseSpec.KINDS)]],
        pytest.param("minimax-check", "--base", ScoreDistribution.KINDS,
                     id="minimax-check---base-allowed24"),
    ])
    def test_choices_are_the_checkers_tuple(self, command, flag, allowed):
        # a restated set of allowed values drifts from the one its checker reads
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
        assert action.choices is allowed


SIDECAR = (
    "# experiment config\n"
    "method = 'passive-erm'\n"
    "eps = 0.05\n"
    "delta = 0.1\n"
    "trials = 1\n"
    "seed = 9\n"
    "dist = 'uniform-interval'\n"
    "d = 1\n"
    "threshold = 0.3\n"
    "label_noise = 'massart'\n"
    "beta = 0.1\n"
    "kappa = 1.0\n"
    "mu = 1.0\n"
    "nu = 0.0\n"
    "comp_noise = 'band-adversarial'\n"
    "nu_prime = 0.001\n"
    "grid = 101\n"
    "n_samples = 50\n"
    "k = 0\n"
    "out = 'erm.csv'\n"
    "\n"
    "# tunable constants\n"
    "C2 = 1.0\n"
    "C3 = 7.5\n"
    "C4 = 1.0\n"
    "c0 = 1.0\n"
    "c1 = 0.2\n"
    "c2 = 0.28\n"
    "c3 = 1.0\n"
    "c4 = 2.0\n"
    "c1p = 0.125\n"
    "n_mult = 1.0\n"
    "n_mult_margin = 0.4\n"
    "tnc_mult = 1.0\n"
)


class TestBatteries:
    def test_adgac_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["adgac-run", "--trials", "2", "--n", "300", "--k", "5",
                   "--eps", "0.05", "--delta", "0.1", "--seed", "4",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert (tmp_path / "run.csv.config.txt").exists()
        assert (tmp_path / "run.csv.summary.txt").exists()

    def test_bench_from_config_file(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# tiny battery\n"
            "method = passive-erm\n"
            "eps = 0.1\n"
            "trials = 2\n"
            "seed = 5\n"
            "grid = 101\n"
            "n_samples = 500\n"
            f"out = {out}\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_OK
        reports = parse_report_csv(str(out))
        assert len(reports) == 2
        assert all(r.method == "passive-erm" for r in reports)

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("method = passive-erm\ntrials = 9\nn_samples = 100\n")
        out = tmp_path / "o.csv"
        rc = main(["erm", "--config", str(cfg), "--trials", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert len(parse_report_csv(str(out))) == 1

    def test_constants_file_applied(self, tmp_path, capsys):
        consts = tmp_path / "c.cfg"
        consts.write_text("C3 = 2.0\n")
        out = tmp_path / "o.csv"
        rc = main(["adgac-run", "--trials", "1", "--n", "200",
                   "--eps", "0.05", "--delta", "0.1",
                   "--config", str(consts), "--out", str(out)])
        assert rc == EXIT_OK
        sidecar = (tmp_path / "o.csv.config.txt").read_text()
        assert "C3 = 2.0" in sidecar

    def test_config_sidecar_bytes_pinned(self, tmp_path, monkeypatch, capsys):
        # the flat format's bytes, as the writer wrote them before it moved into core
        monkeypatch.chdir(tmp_path)
        (tmp_path / "consts.txt").write_text("C3 = 7.5\nc1p = 0.125\n")
        assert main(["erm", "--trials", "1", "--n", "50", "--grid", "101", "--seed", "9",
                     "--threshold", "0.3", "--label-noise", "massart", "--beta", "0.1",
                     "--comp-noise", "band-adversarial", "--nu-prime", "0.001",
                     "--config", "consts.txt", "--out", "erm.csv"]) == EXIT_OK
        assert (tmp_path / "erm.csv.config.txt").read_text() == SIDECAR

    def test_config_sidecar_replays_the_battery(self, tmp_path, capsys):
        # a battery's .config.txt is a --config file: bench reruns it at its
        # constants, row for row but wall_ms, with the same summary
        consts = tmp_path / "consts.txt"
        consts.write_text("C3 = 7.5\nn_mult = 2.0\n")
        first, again, plain = (tmp_path / f"{name}.csv" for name in ("first", "again", "plain"))
        battery = ["a2", "--grid", "1001", "--eps", "0.1", "--seed", "7", "--trials", "2"]
        assert main(battery + ["--config", str(consts), "--out", str(first)]) == EXIT_OK
        assert main(["bench", "--config", f"{first}.config.txt", "--out", str(again)]) == EXIT_OK
        assert main(battery + ["--out", str(plain)]) == EXIT_OK
        assert rows_but_wall_ms(again) == rows_but_wall_ms(first)
        assert (Path(f"{again}.summary.txt").read_text()
                == Path(f"{first}.summary.txt").read_text())
        # the constants were read: every trial asks another number of labels
        labels = [[r.labels for r in parse_report_csv(str(path))] for path in (first, plain)]
        assert all(a != b for a, b in zip(*labels))

    def test_a2_battery_small(self, capsys):
        rc = main(["a2", "--trials", "1", "--eps", "0.1", "--delta", "0.2",
                   "--grid", "101", "--seed", "2"])
        assert rc == EXIT_OK
        assert "success rate" in capsys.readouterr().out

    def test_margin_battery_small(self, capsys):
        rc = main(["margin", "--trials", "1", "--eps", "0.2", "--delta", "0.2",
                   "--dist", "isotropic-gaussian", "--dim", "2", "--seed", "3"])
        assert rc == EXIT_OK

    def test_baseline_battery_small(self, capsys):
        rc = main(["baseline-a2", "--trials", "1", "--eps", "0.1", "--delta", "0.2",
                   "--grid", "101", "--seed", "2"])
        assert rc == EXIT_OK

    def test_optimized_interpreter_writes_the_same_csv(self, tmp_path):
        # python -O strips assert statements, so a check written as one would
        # stop guarding a trial; one small noisy battery of each method must
        # write the same CSV, every byte but wall_ms, with and without -O.  A
        # plain `python -O -m pytest` cannot check this: the suite's
        # filterwarnings = error stops it at startup
        script = "\n".join([
            "import sys",
            "from adgac import cli",
            "codes = [cli.main([method, *flags, '--out', f'{sys.argv[1]}/{method}.csv'])",
            "         for method, *flags in " + repr(OPTIMIZED_BATTERIES) + "]",
            "print(__debug__, codes)",
        ])
        src = str(Path(cli.__file__).resolve().parent.parent)
        csvs = {}
        for mode in ([], ["-O"]):
            out_dir = tmp_path / ("O" if mode else "plain")
            out_dir.mkdir()
            out = subprocess.run(
                [sys.executable, *mode, "-c", script, str(out_dir)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                check=True, timeout=120)
            codes = [EXIT_OK] * len(OPTIMIZED_BATTERIES)
            assert out.stdout.splitlines()[-1] == f"{not mode} {codes}"
            csvs[bool(mode)] = {method: rows_but_wall_ms(out_dir / f"{method}.csv")
                                for method, *_ in OPTIMIZED_BATTERIES}
        assert csvs[True] == csvs[False]
        assert all(len(rows) == 3 for rows in csvs[False].values())


WALL_MS = CSV_HEADER.split(",").index("wall_ms")


def rows_but_wall_ms(path):
    """A report CSV's rows, each without its wall_ms column."""
    return [line.split(",")[:WALL_MS] + line.split(",")[WALL_MS + 1:]
            for line in Path(path).read_text().splitlines()]


NOISY = ["--trials", "2", "--seed", "6", "--label-noise", "massart", "--beta", "0.2"]
OPTIMIZED_BATTERIES = [
    ("adgac-run", *NOISY, "--n", "300", "--comp-noise", "band-adversarial",
     "--nu-prime", "1e-4"),
    ("a2", *NOISY, "--eps", "0.1", "--delta", "0.2", "--grid", "201",
     "--comp-noise", "band-adversarial", "--nu-prime", "1e-3"),
    ("margin", *NOISY, "--eps", "0.2", "--delta", "0.2", "--dim", "3"),
    ("baseline-a2", *NOISY, "--eps", "0.1", "--delta", "0.2", "--grid", "201"),
    ("erm", *NOISY, "--grid", "201", "--n", "300"),
]


def _equality_lines(max_n):
    gaps = ["0.000e+00"] * 6 + ["2.220e-16", "0.000e+00"]
    return "".join(f"equality n={n}: |min - bound| = {gaps[n - 1]}\n"
                   for n in range(1, max_n + 1))


class _CountingRng:
    """A Generator that records the name of each method called on it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)
        return counted


class TestLemmaDraws:
    """lemma-check draws its random instances from default_rng(seed) in three
    calls: ns = integers(1, max_n + 1, size=instances), then
    xs = random((instances, max_n)), then ys = random((instances, max_n)),
    each row zeroed past its n."""

    @staticmethod
    def _documented_stack(seed, instances, max_n):
        rng = np.random.default_rng(seed)
        ns = rng.integers(1, max_n + 1, size=instances)
        xs = rng.random((instances, max_n))
        ys = rng.random((instances, max_n))
        padding = np.arange(max_n) >= ns[:, None]
        xs[padding] = 0.0
        ys[padding] = 0.0
        return xs, ys, ns

    @pytest.mark.parametrize("instances", ["1", "1000", "1001"])
    def test_three_draw_calls(self, instances, monkeypatch, capsys):
        made = []
        real = np.random.default_rng

        def counting(seed=None):
            made.append(_CountingRng(real(seed)))
            return made[-1]
        monkeypatch.setattr(np.random, "default_rng", counting)
        assert main(["lemma-check", "--instances", instances, "--seed", "3"]) == EXIT_OK
        assert [rng.calls for rng in made] == [["integers", "random", "random"]]

    @pytest.mark.parametrize("max_n", [1, 3, 8])
    def test_slack_line_is_the_documented_stack(self, max_n, monkeypatch, capsys):
        seed, instances = 11, 1000
        seen = []
        real = minimax.make_lemma_instance

        def spy(xs, ys, ns=None):
            seen.append((np.array(xs), np.array(ys), ns))
            return real(xs, ys, ns=ns)
        monkeypatch.setattr(minimax, "make_lemma_instance", spy)
        argv = ["lemma-check", "--instances", str(instances), "--max-n", str(max_n),
                "--seed", str(seed)]
        assert main(argv) == EXIT_OK
        first_line = capsys.readouterr().out.splitlines()[0]

        xs, ys, ns = self._documented_stack(seed, instances, max_n)
        cli_xs, cli_ys, cli_ns = seen[0]  # the random stack; the equality rows follow
        np.testing.assert_array_equal(cli_ns, ns)
        np.testing.assert_array_equal(cli_xs, xs)
        np.testing.assert_array_equal(cli_ys, ys)
        assert set(ns.tolist()) == set(range(1, max_n + 1))  # every n in [1, max_n] is drawn
        padding = np.arange(max_n) >= ns[:, None]
        assert not cli_xs[padding].any() and not cli_ys[padding].any()
        assert (cli_xs[~padding] > 0).all() and (cli_ys[~padding] > 0).all()

        stack = real(xs, ys, ns=ns)
        fmin, _ = minimax.lemma_min_f(stack)
        slack = (stack.bound - fmin).min()
        assert first_line == f"{instances} random instances: bound holds, worst slack {slack:.3e}"


class TestCheckGoldens:
    """stdout pinned byte for byte. The lemma slack lines are those of the
    three whole-stack draws (every n, then every x, then every y; see
    TestLemmaDraws), which name other instances than the earlier per-instance
    draws at the same seed; the equality lines and the minimax lines are as
    printed by the per-instance lemma loop and the scipy.stats gaussian."""

    @pytest.mark.parametrize("seed,slack", [("0", "1.817e-03"), ("7", "5.185e-03"),
                                            ("12345", "5.380e-04")])
    def test_lemma_check(self, seed, slack, capsys):
        assert main(["lemma-check", "--instances", "1000", "--seed", seed]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"1000 random instances: bound holds, worst slack {slack}\n" + _equality_lines(8))

    @pytest.mark.parametrize("max_n", ["8", "3"])
    def test_lemma_check_no_instances(self, max_n, capsys):
        argv = ["lemma-check", "--instances", "0", "--max-n", max_n]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "0 random instances: bound holds, worst slack inf\n" + _equality_lines(int(max_n)))

    @pytest.mark.parametrize("base,nu,out", [
        ("uniform", "0.01",
         "interval [-0.1, 0.1]  grid 4000\n"
         "comparison error  0.009977  (target 0.010000 +- 1.0e-03)\n"
         "best threshold    0.099750 at t = -0.09975  (target 0.100000 +- 1.0e-03)\n"),
        ("uniform", "0.0025",
         "interval [-0.05, 0.05]  grid 4000\n"
         "comparison error  0.002491  (target 0.002500 +- 1.0e-03)\n"
         "best threshold    0.049750 at t = -0.04975  (target 0.050000 +- 1.0e-03)\n"),
        ("gaussian", "0.01",
         "interval [-0.253347, 0.253347]  grid 4000\n"
         "comparison error  0.009977  (target 0.010000 +- 1.0e-03)\n"
         "best threshold    0.099750 at t = -0.252714  (target 0.100000 +- 1.0e-03)\n"),
        ("gaussian", "0.0025",
         "interval [-0.125661, 0.125661]  grid 4000\n"
         "comparison error  0.002491  (target 0.002500 +- 1.0e-03)\n"
         "best threshold    0.049750 at t = -0.125033  (target 0.050000 +- 1.0e-03)\n"),
    ])
    def test_minimax_check(self, base, nu, out, capsys):
        argv = ["minimax-check", "--grid", "4000", "--nu-prime", nu, "--base", base]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == out
