"""Command-line surface: subcommands, config files, exit codes."""

import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adgac import bench, cli
from adgac.bench import CSV_HEADER, ExperimentConfig, parse_report_csv
from adgac.cli import EXIT_OK, EXIT_THRESHOLD, EXIT_USAGE, main
from adgac.minimax import ScoreDistribution
from adgac.oracles import ComparisonNoiseSpec, LabelNoiseSpec


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["not-a-command"]) == EXIT_USAGE

    def test_missing_bench_config_is_usage_error(self, capsys):
        assert main(["bench"]) == EXIT_USAGE

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
        ["margin", "--dist", "isotropic-gaussian", "--dim", "0", "--w-star", "e1"],
        ["margin", "--dist", "isotropic-gaussian", "--dim", "-1", "--w-star", "e1"],
    ], ids=["threshold-1.5", "beta-0.7", "dim-0", "erm-gaussian", "margin-uniform", "dim-0-e1",
            "dim-minus-1-e1"])
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
        assert main([command, "--constants", str(path), "--trials", "2"] + world) == EXIT_USAGE
        key = line.split(" = ")[0]
        assert f"constant {key} = " in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,text,named", [
        ("a2", "--constants", "C3 = abc\n", "C3 = 'abc'"),
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
        # the --w-star flag has choices; a config file's value is checked the same
        path = tmp_path / "bench.txt"
        path.write_text('method = "margin-adgac"\ndist = "isotropic-gaussian"\nd = 3\n'
                        'eps = 0.2\ndelta = 0.2\nw_star = "e2"\n')
        assert main(["bench", "--config", str(path)]) == EXIT_USAGE
        assert "w_star" in capsys.readouterr().err

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
        # an impossible gate trips the acceptance exit code
        rc = main(["adgac-run", "--trials", "1", "--n", "200", "--k", "3",
                   "--eps", "0.01", "--delta", "0.1", "--seed", "1",
                   "--label-noise", "massart", "--beta", "0.4",
                   "--min-success", "1.0"])
        assert rc == EXIT_THRESHOLD


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
        assert dests == fields - {"method", "constants"} | {"config", "constants_file",
                                                            "min_success"}

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

    @pytest.mark.parametrize("command, flag, allowed", [
        *[(c, flag, allowed) for c in BATTERIES + ["bench"] for flag, allowed in [
            ("--dist", ExperimentConfig.DISTS),
            ("--w-star", ExperimentConfig.W_STARS),
            ("--label-noise", LabelNoiseSpec.KINDS),
            ("--comp-noise", ComparisonNoiseSpec.KINDS)]],
        ("minimax-check", "--base", ScoreDistribution.KINDS),
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
    "w_star = 'random'\n"
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
                   "--constants", str(consts), "--out", str(out)])
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
                     "--constants", "consts.txt", "--out", "erm.csv"]) == EXIT_OK
        assert (tmp_path / "erm.csv.config.txt").read_text() == SIDECAR

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
            csvs[bool(mode)] = {
                method: [line.split(",")[:WALL_MS] + line.split(",")[WALL_MS + 1:]
                         for line in (out_dir / f"{method}.csv").read_text().splitlines()]
                for method, *_ in OPTIMIZED_BATTERIES}
        assert csvs[True] == csvs[False]
        assert all(len(rows) == 3 for rows in csvs[False].values())


WALL_MS = CSV_HEADER.split(",").index("wall_ms")
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


class TestCheckGoldens:
    """stdout pinned byte for byte, as printed by the per-instance lemma loop
    and the scipy.stats gaussian before the batched scan replaced them."""

    @pytest.mark.parametrize("seed,slack", [("0", "1.983e-03"), ("7", "1.316e-03"),
                                            ("12345", "4.453e-04")])
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
