"""The four benchmark workloads: seeded op inputs, the timed call, per-op checks.

Each workload turns a workload seed into a list of op inputs (``ExperimentConfig``
objects or CLI argument lists) and knows how to run one op through the public
API and how to check what came back.  Sizes that vary between ops are drawn
from a van der Corput sequence with a seeded shift, folded by the tent map:
every draw is still uniform on its range, but any prefix of the sequence
covers the range evenly, so two seeds give runs with the same mix of sizes
and comparable throughput.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from adgac import bench, cli, minimax

WALL_MS_COLUMN = bench.CSV_HEADER.split(",").index("wall_ms")


def balanced_uniform(j: int, shift: float) -> float:
    """The j-th point of a shifted base-2 van der Corput sequence, in [0, 1].

    The tent fold 1 - |2u - 1| keeps each point uniform and removes the jump
    that the shift would otherwise put between the smallest and largest size,
    so the average cost of any prefix hardly depends on the shift.
    """
    x, f = 0.0, 0.5
    while j:
        if j & 1:
            x += f
        j >>= 1
        f *= 0.5
    return 1.0 - abs(2.0 * ((x + shift) % 1.0) - 1.0)


def strip_wall_ms(csv_row: str) -> str:
    """A report CSV row without its wall-clock column: the deterministic part."""
    parts = csv_row.split(",")
    del parts[WALL_MS_COLUMN]
    return ",".join(parts)


def opposite_pairs(base: minimax.ScoreDistribution, grid: int) -> int:
    """Score pairs ``comparison_error_of`` compares: negative cells times positive cells."""
    neg = int(np.sum(base.quantile_grid(grid) < 0))
    return neg * (grid - neg)


@dataclass
class Outcome:
    """What the checks made of one op."""

    errs: list[float] = field(default_factory=list)
    successes: list[bool] = field(default_factory=list)
    labels: int = 0
    comparisons: int = 0
    reports: list = field(default_factory=list)   # bench.TrialReport, learner ops only
    key: str = ""                                 # deterministic output, for the digest
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # printed, but not failures


class LearnerWorkload:
    """An op is one or more ``bench.run_single_trial`` calls on fixed-world configs."""

    methods: tuple[str, ...] = ()
    world: dict = {}

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, self.salt])
        self.shift = float(self.rng.random())

    def varied(self, j: int) -> dict:
        """Config fields that change from op to op, besides the trial seed."""
        return {}

    def inputs(self, count: int) -> list[list[bench.ExperimentConfig]]:
        seeds = self.rng.integers(0, 2**31 - 1, size=count)
        return [[bench.ExperimentConfig(method=m, seed=int(s), **self.world, **self.varied(j))
                 for m in self.methods]
                for j, s in enumerate(seeds)]

    @staticmethod
    def run(op):
        # looked up through the module on every call, so the tracer's rebinding is seen
        return [bench.run_single_trial(cfg, 0) for cfg in op]

    @staticmethod
    def check(op, reports) -> Outcome:
        out = Outcome(reports=list(reports))
        for cfg, rep in zip(op, reports):
            where = f"{cfg.method} seed {cfg.seed}"
            if "error:" in rep.flags:
                out.problems.append(f"{where}: error flag {rep.flags!r}")
            # an error rate; a learner may return any hypothesis in its probability-delta
            # failure event, worse than a coin flip included, so err > 1/2 is no fault
            if not (math.isfinite(rep.err) and 0.0 <= rep.err <= 1.0):
                out.problems.append(f"{where}: err {rep.err!r} not a finite value in [0, 1]")
            elif rep.err > 0.5:
                out.notes.append(f"{where}: err {rep.err!r} > 1/2, an unsuccessful learner run")
            if rep.labels < 0 or rep.comparisons < 0:
                out.problems.append(f"{where}: negative query count")
            if cfg.method == "baseline-a2" and rep.comparisons != 0:
                out.problems.append(f"{where}: label-only baseline made {rep.comparisons} comparisons")
            out.errs.append(rep.err)
            out.successes.append(math.isfinite(rep.err) and rep.err <= cfg.eps)
            out.labels += rep.labels
            out.comparisons += rep.comparisons
        out.key = "\n".join(strip_wall_ms(r.to_csv_row()) for r in reports)
        return out


class AdgacSort(LearnerWorkload):
    """ADGAC batch labeling alone on the AC-2 world; n is log-uniform in [1e3, 1e4]."""

    name = "adgac-sort"
    salt = 0xAD6AC
    methods = ("adgac-only",)
    world = dict(eps=0.05, delta=0.1, threshold=0.5, label_noise="massart", beta=0.2,
                 comp_noise="band-adversarial", nu_prime=1e-4, k=0)

    def varied(self, j):
        u = balanced_uniform(j, self.shift)
        return {"n_samples": int(round(10.0 ** (3.0 + u)))}


class A2Threshold(LearnerWorkload):
    """A2-ADGAC then the label-only baseline at the same seed, on the AC-4 world."""

    name = "a2-threshold"
    salt = 0xA2
    methods = ("a2-adgac", "baseline-a2")
    world = dict(eps=0.025, delta=0.1, grid=10_000, label_noise="massart", beta=0.2)


class MarginHalfspace(LearnerWorkload):
    """Margin-ADGAC on the AC-5 d = 5 world (random w* per trial)."""

    name = "margin-halfspace"
    salt = 0x3A261
    methods = ("margin-adgac",)
    world = dict(dist="isotropic-gaussian", d=5, eps=0.1, delta=0.2,
                 label_noise="massart", beta=0.2)


_BEST_LINE = re.compile(r"^best threshold\s+(\S+) at t = ", re.MULTILINE)
_GRID_LINE = re.compile(r"grid (\d+)$", re.MULTILINE)


class MinimaxVerify:
    """``minimax-check --grid 20000`` then ``lemma-check --instances 1000``, through cli.main.

    nu' is log-uniform in [1e-3, 0.04]; the base distribution alternates
    between uniform and gaussian, each base getting its own balanced nu' run.
    No oracle exists here, so the per-op query counts are the verification's
    own work: ``comparisons`` are the opposite-class score pairs that
    ``comparison_error_of`` compares, ``labels`` the grid cells it labels.
    """

    name = "minimax-verify"
    salt = 0x313A
    grid = 20_000
    nu_range = (1e-3, 0.04)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, self.salt])
        self.shift = float(self.rng.random())

    def inputs(self, count: int) -> list[tuple[list[str], list[str]]]:
        lo, hi = (math.log10(v) for v in self.nu_range)
        seeds = self.rng.integers(0, 2**31 - 1, size=count)
        ops = []
        for j, s in enumerate(seeds):
            u = balanced_uniform(j // 2, self.shift)
            nu = 10.0 ** (lo + u * (hi - lo))
            base = "uniform" if j % 2 == 0 else "gaussian"
            ops.append((["minimax-check", "--grid", str(self.grid), "--nu-prime", repr(nu),
                         "--base", base],
                        ["lemma-check", "--instances", "1000", "--seed", str(int(s))]))
        return ops

    @staticmethod
    def run(op):
        results = []
        for argv in op:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            results.append((code, buf.getvalue()))
        return results

    def check(self, op, results) -> Outcome:
        out = Outcome()
        for argv, (code, text) in zip(op, results):
            if code != 0:
                out.problems.append(f"{' '.join(argv)}: exit code {code}: {text.strip()[-200:]}")
        code, text = results[0]
        best = _BEST_LINE.search(text)
        grid = _GRID_LINE.search(text)
        if best is None or grid is None:
            out.problems.append(f"minimax-check output not understood: {text.strip()[-200:]}")
            out.errs.append(float("nan"))
            out.successes.append(False)
        else:
            err = float(best.group(1))
            if not (math.isfinite(err) and 0.0 <= err <= 0.5):
                out.problems.append(f"best threshold error {err!r} not a finite value in [0, 1/2]")
            out.errs.append(err)
            # exit code 0: both estimates landed within the grid tolerance of their targets
            out.successes.append(code == 0)
            cells = int(grid.group(1))
            out.labels = cells
            base = minimax.ScoreDistribution(op[0][op[0].index("--base") + 1])
            out.comparisons = opposite_pairs(base, cells)
        out.key = "\n".join(f"{' '.join(argv)}\n{code}\n{text}"
                            for argv, (code, text) in zip(op, results))
        return out


WORKLOADS = {w.name: w for w in (AdgacSort, A2Threshold, MarginHalfspace, MinimaxVerify)}
