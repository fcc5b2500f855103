"""Seeded trial batteries, baselines, the flat config format, and CSV reporting.

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
from .core import DEFAULT_CONSTANTS, TunableConstants
from .hypotheses import ThresholdClass
from .oracles import (ADVERSARIAL, BAND_ADVERSARIAL, GAUSSIAN, MASSART, PERFECT,
                      UNIFORM, ComparisonNoiseSpec, GroundTruth, LabelNoiseSpec, Oracle,
                      QueryCounters, ScenarioSpec, bayes_positive, gaussian_scenario, noise_bands,
                      sample_unlabeled, uniform_scenario)

_ERR_MC_SAMPLES = 100_000
_ERR_MC_SALT = 0x5A17


_FROM_TEXT = {"str": str, "int": int, "float": float}


def field_parsers(cls) -> dict:
    """Each field of dataclass cls declared str, int or float (a string under
    postponed annotations) -> the parser of its raw text: the flat fields."""
    return {f.name: _FROM_TEXT[f.type] for f in dataclasses.fields(cls) if f.type in _FROM_TEXT}


def _format_flat(obj, heading: str) -> str:
    """The flat fields of obj under a `# heading` line, as _parse_flat reads them."""
    lines = [f"# {heading}"] + [f"{name} = {getattr(obj, name)!r}"
                                for name in field_parsers(type(obj))]
    return "\n".join(lines) + "\n"


def _parse_flat(text: str, types: dict) -> dict:
    """Parse the flat `key = value` config format with `#` comments; a quoted
    value is a Python string literal, which may hold `#` and escapes.

    types maps each known key to the converter of its raw text; an unknown
    key, a key set twice, or a value its converter rejects, is a ValueError
    naming the key.
    """
    out: dict = {}
    set_on: dict = {}
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
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"config key {key!r} is set twice, on lines {set_on[key]} "
                             f"and {lineno}")
        set_on[key] = lineno
        try:
            out[key] = types[key](val)
        except ValueError:
            raise ValueError(f"config key {key} = {val!r} is not a valid "
                             f"{types[key].__name__}") from None
    return out


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
        return ",".join((repr if parse is float else str)(getattr(self, name))
                        for name, parse in _CSV_PARSERS.items())


_CSV_PARSERS = field_parsers(TrialReport)
CSV_HEADER = ",".join(_CSV_PARSERS)


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
    label_noise: str = MASSART
    beta: float = 0.0
    kappa: float = 1.0
    mu: float = 1.0
    nu: float = 0.0
    comp_noise: str = PERFECT
    nu_prime: float = 0.0
    grid: int = 1001
    n_samples: int = field(default=1000, metadata={"help": "sample size for adgac-run / erm"})
    # 0 derives the batch size from eps and delta
    k: int = field(default=0, metadata={"help": "label batch size for adgac-run"})
    constants: TunableConstants = DEFAULT_CONSTANTS
    out: str = field(default="", metadata={"help": "CSV output path"})

    # field -> its allowed values, read by the check below and by the flag's choices
    CHOICES = {"dist": GroundTruth.KINDS, "label_noise": LabelNoiseSpec.KINDS,
               "comp_noise": ComparisonNoiseSpec.KINDS}
    # integer field -> its least value, checked for every method
    INT_FLOORS = {"trials": 1, "seed": 0, "d": 1, "n_samples": 1, "grid": 1, "k": 0}

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {list(METHODS)}")
        for name, low in self.INT_FLOORS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} = {getattr(self, name)} must be at least {low}")
        for name in ("eps", "delta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} = {getattr(self, name)!r} must lie in (0, 1)")
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; "
                                 f"choose from {list(allowed)}")
        world, params, _ = METHODS[self.method]
        if world not in (None, self.dist):
            raise ValueError(f"{self.method} batteries run on the {world} scenario")
        # an invalid world, a corruption mass it cannot realize, or an eps or
        # delta the method's parameters reject is a usage error here, not one
        # failed row per trial
        noise_bands(self.scenario(self.seed))
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
        w = np.random.default_rng([seed, 0xD12]).standard_normal(self.d)
        w = w / np.linalg.norm(w)
        return gaussian_scenario(w, self.label_noise_spec(),
                                 self.comparison_noise_spec(), seed=seed)

    def to_text(self) -> str:
        return (_format_flat(self, "experiment config") + "\n"
                + _format_flat(self.constants, "tunable constants"))

    @classmethod
    def from_text(cls, text: str, **fields) -> "ExperimentConfig":
        """Parse a flat config, each key by its field's declared type and each
        constant over the frozen defaults, then lay fields over it: the flags
        and a battery's method.  A method that runs on one world takes it as
        `dist` when nothing sets `dist`."""
        const_types = field_parsers(TunableConstants)
        kwargs = _parse_flat(text, field_parsers(cls) | const_types)
        constants = {key: kwargs.pop(key) for key in const_types.keys() & kwargs.keys()}
        kwargs.update(fields)
        if "method" not in kwargs:
            raise ValueError("no method: set `method` in the config file or run a battery")
        kwargs.setdefault("dist", METHODS.get(kwargs["method"], (None,))[0] or UNIFORM)
        return cls(constants=TunableConstants(**constants), **kwargs)


def measure_error(predict_fn, spec: ScenarioSpec,
                  n_mc: int = _ERR_MC_SAMPLES) -> tuple[float, float]:
    """Monte Carlo disagreement with the optimal labels on fresh samples,
    drawn from a stream seeded by the world's seed.

    predict_fn maps a batch to the bool mask of the points its hypothesis
    labels +1; any other dtype, a +-1 label array included, is a TypeError.
    """
    rng = np.random.default_rng([spec.seed, _ERR_MC_SALT])
    xs = sample_unlabeled(spec, n_mc, rng)
    positive = np.asarray(predict_fn(xs))
    if positive.dtype != bool:
        raise TypeError(f"predict_fn must return a bool mask of the +1 points, "
                        f"not dtype {positive.dtype}")
    return _mismatch_rate(positive, bayes_positive(spec, xs))


def _mismatch_rate(positive: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """The share of points where the +1 masks positive and truth differ, and
    its standard error."""
    n = len(truth)
    err = int(np.count_nonzero(positive != truth)) / n
    return err, math.sqrt(max(err * (1.0 - err), 1.0 / n) / n)


def passive_erm(oracle: Oracle, klass, n: int) -> int:
    """Label n i.i.d. samples directly and return the empirical-risk minimizer's
    index; ties resolve to the lowest hypothesis index."""
    if n < 1:
        raise ValueError("need at least one sample")
    xs = oracle.sample(n)
    return int(np.argmin(klass.error_counts(xs, oracle.label_many(xs))))


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


def _adgac_only_params(config: ExperimentConfig) -> int:
    """The label batch size: k, or the derived one when k is 0."""
    return config.k or core.batch_size(config.eps, config.delta,
                                       config.label_noise_spec().effective_kappa,
                                       config.constants.C3)


def _run_adgac_only(config: ExperimentConfig, k: int, oracle: Oracle):
    xs = oracle.sample(config.n_samples)
    result = core.adgac(xs, core.RoundPlan(config.eps, config.n_samples, k), oracle)
    return *_mismatch_rate(result.labels > 0, bayes_positive(oracle.spec, xs)), 1, []


def _learner_params(cls):
    """The builder of a learner's parameters of class cls from a config."""
    return lambda config: cls(eps=config.eps, delta=config.delta, constants=config.constants)


def _run_disagreement(learner, config: ExperimentConfig, params: a2.RunParams,
                      oracle: Oracle):
    klass = ThresholdClass(np.linspace(0.0, 1.0, config.grid))
    result = learner(oracle, klass, params)
    idx = result.hypothesis_index
    err, err_se = measure_error(lambda pts: klass.positive(idx, pts), oracle.spec)
    return err, err_se, len(result.trace), result.flags


def _run_margin(config: ExperimentConfig, params: margin_mod.MarginParams, oracle: Oracle):
    result = margin_mod.run_margin_adgac(oracle, params)
    w_hat = result.trace[-1].w
    err, err_se = measure_error(lambda pts: np.asarray(pts) @ w_hat >= 0, oracle.spec)
    return err, err_se, len(result.trace), result.flags


def _run_passive_erm(config: ExperimentConfig, params: None, oracle: Oracle):
    klass = ThresholdClass(np.linspace(0.0, 1.0, config.grid))
    idx = passive_erm(oracle, klass, config.n_samples)
    err, err_se = measure_error(lambda pts: klass.positive(idx, pts), oracle.spec)
    return err, err_se, 1, []


# method -> (the world it runs on, None for either; its learner parameters,
# built from the config and checked there; its runner).  A runner returns
# (err, err_se, rounds, flags) and reaches every learner through its module at
# call time, so a rebound module attribute is the one it calls.
METHODS = {
    "adgac-only": (None, _adgac_only_params, _run_adgac_only),
    "a2-adgac": (UNIFORM, _learner_params(a2.RunParams),
                 lambda *args: _run_disagreement(a2.run_a2_adgac, *args)),
    "margin-adgac": (GAUSSIAN, _learner_params(margin_mod.MarginParams), _run_margin),
    "baseline-a2": (UNIFORM, _learner_params(a2.RunParams),
                    lambda *args: _run_disagreement(a2.run_baseline_a2, *args)),
    "passive-erm": (UNIFORM, lambda config: None, _run_passive_erm),
}


def run_single_trial(config: ExperimentConfig, trial_index: int) -> TrialReport:
    """Run one fully independent trial at seed = base seed + trial index.

    A trial that raises is recorded, never fatal: its row is flagged
    error:<exception type> and keeps the queries its oracle counted.
    """
    seed = config.seed + trial_index
    oracle, started = None, time.perf_counter()
    try:
        oracle = Oracle(config.scenario(seed))
        _, params, runner = METHODS[config.method]
        started = time.perf_counter()
        err, err_se, rounds, run_flags = runner(config, params(config), oracle)
        flags = ";".join(_gate_flags(config) + run_flags)
    except Exception as exc:  # noqa: BLE001 - a battery must survive any trial
        err, err_se, rounds, flags = float("nan"), float("nan"), 0, f"error:{type(exc).__name__}"
    wall_ms = (time.perf_counter() - started) * 1e3
    counters = oracle.counters if oracle else QueryCounters()
    return TrialReport(seed=seed, method=config.method, epsilon=config.eps,
                       delta=config.delta, err=err, err_se=err_se, labels=counters.labels,
                       comparisons=counters.comparisons, rounds=rounds, wall_ms=wall_ms,
                       flags=flags)


def run_trials(config: ExperimentConfig) -> tuple[list[TrialReport], dict]:
    """Run the battery, one run_single_trial row per trial."""
    reports = [run_single_trial(config, i) for i in range(config.trials)]
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


def emit_report(reports: list[TrialReport], path: str, summary: dict,
                config: ExperimentConfig | None = None) -> list[str]:
    """Write the CSV, the summary table, and the config sidecar (when config
    is given) atomically.

    Returns the list of files written.  I/O failures surface with the path.
    """
    if not reports:
        raise ValueError("nothing to report")
    written = []
    try:
        body = "\n".join([CSV_HEADER] + [r.to_csv_row() for r in reports]) + "\n"
        _atomic_write(path, body)
        written.append(path)
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
        lines = [(no, line.rstrip("\n")) for no, line in enumerate(fh, 1) if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"unexpected header in {path!r}")
    out = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_CSV_PARSERS):
            raise ValueError(f"{path!r} line {lineno}: {len(parts)} columns, "
                             f"the header has {len(_CSV_PARSERS)}")
        out.append(TrialReport(**{name: parse(raw)
                                  for (name, parse), raw in zip(_CSV_PARSERS.items(), parts)}))
    return out
