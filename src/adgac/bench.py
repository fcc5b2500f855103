"""Seeded trial batteries, baselines, and CSV reporting.

A battery is a scenario plus a method plus trial count; trial i runs fully
independently at seed base + i with its own oracle, counters, and rng stream,
so re-running a config reproduces every output byte except wall-clock times.
Reports go to a diff-able CSV with a human-readable summary table and the
echoed config as sidecar files.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import a2, core, margin as margin_mod
from .hypotheses import ThresholdClass
from .oracles import (ADVERSARIAL, BAND_ADVERSARIAL, GAUSSIAN, MASSART, PERFECT,
                      UNIFORM, ComparisonNoiseSpec, LabelNoiseSpec, Oracle,
                      ScenarioSpec, bayes_label, gaussian_scenario,
                      sample_unlabeled, uniform_scenario)

CSV_HEADER = "seed,method,epsilon,delta,err,err_se,labels,comparisons,rounds,wall_ms,flags"

_ERR_MC_SAMPLES = 100_000
_ERR_MC_SALT = 0x5A17


@dataclass(frozen=True)
class TunableConstants:
    """Leading constants left unstated by the guarantees, frozen by a one-time
    calibration battery (see README); serialized with every report."""

    C2: float = 1.0      # comparison-noise gate nu' <= C2 eps^(2 kappa) delta
    C3: float = 5.0      # label batch multiplier in k formulas
    C4: float = 1.0      # adversarial label gate nu <= C4 eps
    c0: float = 1.0      # deviation bound constant
    c1: float = 0.2      # log-concave: 1-D density floor
    c2: float = 0.28     # log-concave: angle-to-disagreement
    c3: float = 1.0      # log-concave: band mass
    c4: float = 2.0      # log-concave: band second moment
    c1p: float = 1.0     # band width constant
    n_mult: float = 1.0         # leading multiplier for disagreement rounds
    n_mult_margin: float = 0.4  # leading multiplier for margin rounds
    tnc_mult: float = 1.0       # multiplier on the power-law sample term

    def to_text(self) -> str:
        lines = ["# tunable constants"]
        for f in dataclasses.fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TunableConstants":
        values = _parse_flat(text)
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - names
        if unknown:
            raise ValueError(f"unknown constant keys: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in values.items()})


DEFAULT_CONSTANTS = TunableConstants()


@dataclass
class TrialReport:
    seed: int
    method: str
    epsilon: float
    delta: float
    err: float
    err_se: float
    labels: int
    comparisons: int
    rounds: int
    wall_ms: float
    flags: str = ""

    def to_csv_row(self) -> str:
        return ",".join([
            str(self.seed), self.method, repr(self.epsilon), repr(self.delta),
            repr(self.err), repr(self.err_se), str(self.labels),
            str(self.comparisons), str(self.rounds), repr(self.wall_ms), self.flags,
        ])


# field type (a string under postponed annotations) -> parser of its raw text
_FROM_TEXT = {"str": str, "int": int, "float": float}


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    eps: float = 0.05
    delta: float = 0.1
    trials: int = 1
    seed: int = 0
    dist: str = UNIFORM
    d: int = 1
    threshold: float = 0.5
    w_star: str = "random"          # "random" (per-trial) or "e1"
    label_noise: str = MASSART
    beta: float = 0.0
    kappa: float = 1.0
    mu: float = 1.0
    nu: float = 0.0
    comp_noise: str = PERFECT
    nu_prime: float = 0.0
    grid: int = 1001
    n_samples: int = 1000           # adgac-only / passive-erm sample size
    k: int = 0                      # adgac-only batch size; 0 derives from eps/delta
    constants: TunableConstants = DEFAULT_CONSTANTS
    out: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {list(METHODS)}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.dist not in (UNIFORM, GAUSSIAN):
            raise ValueError(f"unknown world {self.dist!r}; choose from {[UNIFORM, GAUSSIAN]}")
        world, params, _ = METHODS[self.method]
        if world not in (None, self.dist):
            raise ValueError(f"{self.method} batteries run on the {world} scenario")
        # an invalid world, or an eps or delta the method's parameters reject,
        # is a usage error here, not one failed row per trial
        self.scenario(self.seed)
        params(self)

    def label_noise_spec(self) -> LabelNoiseSpec:
        return LabelNoiseSpec(kind=self.label_noise, beta=self.beta, kappa=self.kappa,
                              mu=self.mu, nu=self.nu)

    def comparison_noise_spec(self) -> ComparisonNoiseSpec:
        return ComparisonNoiseSpec(kind=self.comp_noise, nu_prime=self.nu_prime)

    def scenario(self, seed: int) -> ScenarioSpec:
        if self.dist == UNIFORM:
            return uniform_scenario(self.threshold, self.label_noise_spec(),
                                    self.comparison_noise_spec(), seed=seed)
        if self.w_star == "e1":
            w = np.zeros(self.d)
            w[0] = 1.0
        else:
            w_rng = np.random.default_rng([seed, 0xD12])
            w = w_rng.standard_normal(self.d)
            w = w / np.linalg.norm(w)
        return gaussian_scenario(w, self.label_noise_spec(),
                                 self.comparison_noise_spec(), seed=seed)

    def to_text(self) -> str:
        lines = ["# experiment config"]
        skip = {"constants"}
        for f in dataclasses.fields(self):
            if f.name in skip:
                continue
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        lines.append("")
        lines.append(self.constants.to_text().rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, constants: TunableConstants | None = None) -> "ExperimentConfig":
        """Parse a flat config; each key converts by its field's declared type."""
        values = _parse_flat(text)
        kwargs: dict = {}
        const_kwargs: dict = {}
        field_types = {f.name: f.type for f in dataclasses.fields(cls)}
        const_fields = {f.name for f in dataclasses.fields(TunableConstants)}
        for key, raw in values.items():
            if key in const_fields:
                const_kwargs[key] = float(raw)
            elif field_types.get(key) in _FROM_TEXT:
                kwargs[key] = _FROM_TEXT[field_types[key]](raw)
            else:
                raise ValueError(f"unknown config key {key!r}")
        base = constants or DEFAULT_CONSTANTS
        if const_kwargs:
            base = dataclasses.replace(base, **const_kwargs)
        kwargs["constants"] = base
        return cls(**kwargs)


def _parse_flat(text: str) -> dict[str, str]:
    """Parse the flat `key = value` config format with `#` comments; a quoted
    value is a Python string literal, which may hold `#` and escapes."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if val.startswith(("'", '"')):
            try:
                val = ast.literal_eval(val)
            except (SyntaxError, ValueError):
                val = None
            if not isinstance(val, str):
                raise ValueError(f"line {lineno}: bad quoted value in {line!r}")
        else:
            val = val.split("#", 1)[0].rstrip()
        out[key] = val
    return out


def measure_error(predict_fn, spec: ScenarioSpec, seed: int,
                  n_mc: int = _ERR_MC_SAMPLES) -> tuple[float, float]:
    """Monte Carlo disagreement with the optimal labels on fresh samples."""
    rng = np.random.default_rng([seed, _ERR_MC_SALT])
    xs = sample_unlabeled(spec, n_mc, rng)
    truth = bayes_label(spec, xs)
    preds = np.asarray(predict_fn(xs))
    err = float(np.mean(preds != truth))
    se = math.sqrt(max(err * (1.0 - err), 1.0 / n_mc) / n_mc)
    return err, se


def passive_erm(spec: ScenarioSpec, klass, n: int,
                rng: np.random.Generator | None = None,
                oracle: Oracle | None = None) -> tuple[int, int]:
    """Label n i.i.d. samples directly and return the empirical-risk minimizer.

    Ties resolve to the lowest hypothesis index.  Returns (index, labels used).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    if oracle is None:
        oracle = Oracle(spec, rng)
    xs = oracle.sample(n)
    counts = klass.error_counts(xs, oracle.label_many(xs))
    return int(np.argmin(counts)), oracle.counters.labels


def _gate_flags(config: ExperimentConfig) -> list[str]:
    """Advisory flags when the configured noise exceeds the theory gates."""
    flags = []
    c = config.constants
    kappa = config.label_noise_spec().effective_kappa
    if config.comp_noise == BAND_ADVERSARIAL and config.nu_prime > (
            c.C2 * config.eps ** (2 * kappa) * config.delta):
        flags.append("tolcomp-gate")
    if config.label_noise == ADVERSARIAL and config.nu > c.C4 * config.eps:
        flags.append("tollabel-gate")
    return flags


def _at_least_one(config: ExperimentConfig, *names: str) -> None:
    """Reject a sample size or threshold grid below 1 before any trial runs."""
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1")


def _adgac_only_params(config: ExperimentConfig) -> core.AdgacParams:
    _at_least_one(config, "n_samples")
    n = config.n_samples
    k = config.k or core.batch_size(config.eps, config.delta,
                                    config.label_noise_spec().effective_kappa,
                                    config.constants.C3)
    return core.AdgacParams(n=n, m=n, eps=config.eps, delta=config.delta, k=k)


def _run_adgac_only(config: ExperimentConfig, params: core.AdgacParams, spec: ScenarioSpec,
                    rng, oracle: Oracle):
    n = params.n
    xs = oracle.sample(n)
    result = core.adgac(xs, n, params.eps, params.delta, oracle, rng, k=params.k)
    err = int(np.sum(result.labels != bayes_label(spec, xs))) / n
    return err, math.sqrt(max(err * (1 - err), 1.0 / n) / n), 1, []


def _disagreement_params(config: ExperimentConfig) -> a2.RunParams:
    _at_least_one(config, "grid")
    cst = config.constants
    return a2.RunParams(eps=config.eps, delta=config.delta, c0=cst.c0, c3=cst.C3,
                        n_mult=cst.n_mult, tnc_mult=cst.tnc_mult)


def _run_disagreement(learner, config: ExperimentConfig, params: a2.RunParams,
                      spec: ScenarioSpec, rng, oracle: Oracle):
    klass = ThresholdClass(np.linspace(0.0, 1.0, config.grid))
    result = learner(spec, klass, params, rng=rng, oracle=oracle)
    idx = result.hypothesis_index
    err, err_se = measure_error(lambda pts: klass.predict(idx, pts), spec, spec.seed)
    return err, err_se, result.rounds_run, result.flags


def _margin_params(config: ExperimentConfig) -> margin_mod.MarginParams:
    cst = config.constants
    return margin_mod.MarginParams(eps=config.eps, delta=config.delta,
                                   c1=cst.c1, c2=cst.c2, c3=cst.c3, c4=cst.c4,
                                   c1p=cst.c1p, batch_c3=cst.C3, n_mult=cst.n_mult_margin)


def _run_margin(config: ExperimentConfig, params: margin_mod.MarginParams,
                spec: ScenarioSpec, rng, oracle: Oracle):
    result = margin_mod.run_margin_adgac(spec, params, rng=rng, oracle=oracle,
                                         w_star=spec.ground_truth.w)
    w_hat = result.w_hat
    err, err_se = measure_error(
        lambda pts: np.where(np.asarray(pts) @ w_hat >= 0, 1, -1), spec, spec.seed)
    return err, err_se, result.rounds_run, result.flags


def _run_passive_erm(config: ExperimentConfig, params: None, spec: ScenarioSpec, rng,
                     oracle: Oracle):
    klass = ThresholdClass(np.linspace(0.0, 1.0, config.grid))
    idx, _ = passive_erm(spec, klass, config.n_samples, rng=rng, oracle=oracle)
    err, err_se = measure_error(lambda pts: klass.predict(idx, pts), spec, spec.seed)
    return err, err_se, 1, []


# method -> (the world it runs on, None for either; its learner parameters,
# built from the config and checked there; its runner).  A runner returns
# (err, err_se, rounds, flags) and reaches every learner through its module at
# call time, so a rebound module attribute is the one it calls.
METHODS = {
    "adgac-only": (None, _adgac_only_params, _run_adgac_only),
    "a2-adgac": (UNIFORM, _disagreement_params,
                 lambda *args: _run_disagreement(a2.run_a2_adgac, *args)),
    "margin-adgac": (GAUSSIAN, _margin_params, _run_margin),
    "baseline-a2": (UNIFORM, _disagreement_params,
                    lambda *args: _run_disagreement(a2.run_baseline_a2, *args)),
    "passive-erm": (UNIFORM, lambda config: _at_least_one(config, "n_samples", "grid"),
                    _run_passive_erm),
}


def run_single_trial(config: ExperimentConfig, trial_index: int) -> TrialReport:
    """Run one fully independent trial at seed = base seed + trial index."""
    seed = config.seed + trial_index
    spec = config.scenario(seed)
    rng = np.random.default_rng(seed)
    oracle = Oracle(spec, rng)
    flags = _gate_flags(config)
    _, params, runner = METHODS[config.method]
    started = time.perf_counter()
    err, err_se, rounds, run_flags = runner(config, params(config), spec, rng, oracle)
    wall_ms = (time.perf_counter() - started) * 1e3
    return TrialReport(seed=seed, method=config.method, epsilon=config.eps,
                       delta=config.delta, err=err, err_se=err_se,
                       labels=oracle.counters.labels,
                       comparisons=oracle.counters.comparisons,
                       rounds=rounds, wall_ms=wall_ms, flags=";".join(flags + run_flags))


def run_trials(config: ExperimentConfig) -> tuple[list[TrialReport], dict]:
    """Run the battery; per-trial failures are recorded, never fatal."""
    reports: list[TrialReport] = []
    for i in range(config.trials):
        try:
            reports.append(run_single_trial(config, i))
        except Exception as exc:  # noqa: BLE001 - battery must survive any trial
            reports.append(TrialReport(
                seed=config.seed + i, method=config.method, epsilon=config.eps,
                delta=config.delta, err=float("nan"), err_se=float("nan"),
                labels=0, comparisons=0, rounds=0, wall_ms=0.0,
                flags=f"error:{type(exc).__name__}"))
    return reports, summarize(reports, config.eps)


def summarize(reports: list[TrialReport], eps: float) -> dict:
    errs = np.array([r.err for r in reports], dtype=float)
    labels = np.array([r.labels for r in reports], dtype=float)
    comps = np.array([r.comparisons for r in reports], dtype=float)
    ok = ~np.isnan(errs)
    # failed trials count against the battery, not just the valid ones
    succ = float(np.sum(errs[ok] <= eps)) / len(reports) if len(reports) else 0.0
    out = {"trials": len(reports), "failed_trials": int(np.sum(~ok)), "success_rate": succ}
    for name, v in (("err", errs[ok]), ("labels", labels), ("comparisons", comps)):
        q = np.percentile(v, [25, 50, 75]) if v.size else [float("nan")] * 3
        out[f"{name}_q25"], out[f"{name}_median"], out[f"{name}_q75"] = map(float, q)
    out["labels_total"] = int(labels.sum())
    out["comparisons_total"] = int(comps.sum())
    return out


def summary_table(summary: dict) -> str:
    rows = [
        ("trials", summary["trials"]),
        ("failed trials", summary["failed_trials"]),
        ("success rate", f"{summary['success_rate']:.3f}"),
        ("error median [q25, q75]",
         f"{summary['err_median']:.5f} [{summary['err_q25']:.5f}, {summary['err_q75']:.5f}]"),
        ("labels median [q25, q75]",
         f"{summary['labels_median']:.1f} [{summary['labels_q25']:.1f}, {summary['labels_q75']:.1f}]"),
        ("comparisons median [q25, q75]",
         f"{summary['comparisons_median']:.1f} [{summary['comparisons_q25']:.1f}, {summary['comparisons_q75']:.1f}]"),
        ("labels total", summary["labels_total"]),
        ("comparisons total", summary["comparisons_total"]),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows) + "\n"


def _atomic_write(path: str, text: str):
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(reports: list[TrialReport], path: str,
                config: ExperimentConfig | None = None,
                summary: dict | None = None) -> list[str]:
    """Write the CSV, the summary table, and the config sidecar atomically.

    Returns the list of files written.  I/O failures surface with the path.
    """
    if not reports:
        raise ValueError("nothing to report")
    written = []
    try:
        body = "\n".join([CSV_HEADER] + [r.to_csv_row() for r in reports]) + "\n"
        _atomic_write(path, body)
        written.append(path)
        if summary is not None:
            spath = path + ".summary.txt"
            _atomic_write(spath, summary_table(summary))
            written.append(spath)
        if config is not None:
            cpath = path + ".config.txt"
            _atomic_write(cpath, config.to_text())
            written.append(cpath)
    except OSError as exc:
        raise OSError(f"failed writing report near {path!r}: {exc}") from exc
    return written


def parse_report_csv(path: str) -> list[TrialReport]:
    """Reload an emitted CSV; round-trips the in-memory reports."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected header in {path!r}")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        out.append(TrialReport(
            seed=int(parts[0]), method=parts[1], epsilon=float(parts[2]),
            delta=float(parts[3]), err=float(parts[4]), err_se=float(parts[5]),
            labels=int(parts[6]), comparisons=int(parts[7]), rounds=int(parts[8]),
            wall_ms=float(parts[9]), flags=parts[10] if len(parts) > 10 else ""))
    return out
