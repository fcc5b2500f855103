"""Command-line front end for trial batteries and numerical checks.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 an acceptance
threshold was missed (CI gate).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import bench, minimax

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_THRESHOLD = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the fields whose flag is not --<field>, and the methods whose battery
# subcommand is not the method's name: the short names README and the tests use
_FLAG_NAMES = {"d": "--dim", "n_samples": "--n"}
_BATTERY_NAMES = {"adgac-only": "adgac-run", "a2-adgac": "a2", "margin-adgac": "margin",
                  "passive-erm": "erm"}


def _add_scenario_flags(p: argparse.ArgumentParser):
    cls = bench.ExperimentConfig
    parsers = bench.field_parsers(cls)
    for f in dataclasses.fields(cls):
        if f.name in ("method", "constants"):
            continue
        p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                       type=parsers[f.name], choices=cls.CHOICES.get(f.name), default=None,
                       help=f.metadata.get("help"))
    p.add_argument("--config", default=None,
                   help="flat key = value config file; constants are keys too")
    p.add_argument("--min-success", type=float, default=None,
                   help="fail (exit 3) when the success rate falls below this")


def _build_config(args) -> bench.ExperimentConfig:
    # each scenario flag's dest, and a battery's method, is the ExperimentConfig field it sets
    fields = {f.name for f in dataclasses.fields(bench.ExperimentConfig)}
    given = {name: val for name, val in vars(args).items() if name in fields and val is not None}
    text = Path(args.config).read_text() if args.config else ""
    return bench.ExperimentConfig.from_text(text, **given)


def _run_battery(args) -> int:
    if args.min_success is not None and not 0.0 <= args.min_success <= 1.0:
        raise _UsageError(f"--min-success {args.min_success} must lie in [0, 1]")
    config = _build_config(args)
    reports, summary = bench.run_trials(config)
    if config.out:
        files = bench.emit_report(reports, config.out, config=config, summary=summary)
        print(f"wrote {', '.join(files)}")
    print(f"method {config.method}  eps {config.eps}  delta {config.delta}  "
          f"trials {config.trials}  seed {config.seed}")
    print(bench.summary_table(summary), end="")
    if args.min_success is not None and summary["success_rate"] < args.min_success:
        print(f"success rate {summary['success_rate']:.3f} below gate {args.min_success}")
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_lemma_check(args) -> int:
    if args.instances < 0 or args.max_n < 1:
        raise _UsageError("need --instances >= 0 and --max-n >= 1")
    # three whole-stack draws in README's order (ns, xs, ys): a seed names its instances
    rng = np.random.default_rng(args.seed)
    ns = rng.integers(1, args.max_n + 1, size=args.instances)
    xs = rng.random((args.instances, args.max_n))
    ys = rng.random((args.instances, args.max_n))
    padding = np.arange(args.max_n) >= ns[:, None]
    xs[padding] = ys[padding] = 0.0
    stack = minimax.make_lemma_instance(xs, ys, ns=ns)
    fmin, _ = minimax.lemma_min_f(stack)  # raises on violation
    worst_slack = (stack.bound - fmin).min(initial=float("inf"))
    print(f"{args.instances} random instances: bound holds, worst slack {worst_slack:.3e}")
    for n in range(1, args.max_n + 1):
        inst = minimax.equality_instance(n)
        fmin, _ = minimax.lemma_min_f(inst)
        gap = abs(fmin[0] - inst.bound[0])
        print(f"equality n={n}: |min - bound| = {gap:.3e}")
        if gap > 1e-9:
            print("equality configuration missed the bound")
            return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_minimax_check(args) -> int:
    base = minimax.ScoreDistribution(args.base)
    ghat = minimax.construct_ghat(base, args.nu_prime)
    comp = minimax.comparison_error_of(ghat, base, args.grid)  # rejects a grid below 2
    tol = 4.0 / args.grid
    best, thr = minimax.best_threshold_error(ghat, base, args.grid)
    target = args.nu_prime ** 0.5
    print(f"interval [{ghat.a:.6g}, {ghat.b:.6g}]  grid {args.grid}")
    print(f"comparison error  {comp:.6f}  (target {args.nu_prime:.6f} +- {tol:.1e})")
    print(f"best threshold    {best:.6f} at t = {thr:.6g}  (target {target:.6f} +- {tol:.1e})")
    ok = abs(comp - args.nu_prime) <= tol and abs(best - target) <= tol
    if not ok:
        print("estimates fell outside the grid tolerance")
        return EXIT_THRESHOLD
    return EXIT_OK


def build_parser() -> _Parser:
    """The whole argument tree; ``main`` builds it once per process."""
    parser = _Parser(prog="adgac",
                     description="interactive-learning trial batteries and numerical checks")
    sub = parser.add_subparsers(dest="command", required=True)

    for method in bench.METHODS:
        p = sub.add_parser(_BATTERY_NAMES.get(method, method), help=f"run the {method} battery")
        _add_scenario_flags(p)
        p.set_defaults(func=_run_battery, method=method)

    p = sub.add_parser("bench", help="run a battery described by a config file")
    _add_scenario_flags(p)
    p.set_defaults(func=_run_battery)

    p = sub.add_parser("lemma-check", help="verify the prefix-suffix inequality numerically")
    p.add_argument("--instances", type=int, default=10_000)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("minimax-check", help="verify the sqrt comparison-noise identity")
    p.add_argument("--nu-prime", type=float, default=0.01)
    p.add_argument("--grid", type=int, default=10_000)
    p.add_argument("--base", default="uniform", choices=minimax.ScoreDistribution.KINDS)
    p.set_defaults(func=_cmd_minimax_check)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
