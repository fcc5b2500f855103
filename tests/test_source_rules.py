"""Rules on the package source itself, checked by parsing it."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import adgac
from adgac import a2, bench, core, margin
from adgac.bench import TunableConstants
from adgac.oracles import Oracle

SOURCES = sorted(Path(adgac.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def defaulted(fn) -> list[str]:
    """The names of fn's parameters that carry a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    return [arg.arg for arg in positional[len(positional) - len(a.defaults):]] + [
        arg.arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "oracles.py"}


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant checked by one
    # silently stops holding; raise a named error instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_level_scipy_import():
    # scipy.special alone is most of the package's import time and about half
    # its memory after import; only the gaussian cdf and ppf need it, so the
    # function that calls it imports it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in in_function:
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules
                      if m == "scipy" or m.startswith("scipy.")]
    assert found == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes tens of MB and scipy.special most of the start-up;
    # a uniform trial and a massart gaussian trial calibrate no band and
    # evaluate no gaussian cdf, so neither loads.  This process has loaded
    # scipy already, so ask a fresh interpreter.
    src = str(Path(adgac.__file__).resolve().parent.parent)
    script = "\n".join([
        "import sys",
        "import adgac, adgac.cli",
        "from adgac.bench import ExperimentConfig, run_single_trial",
        "print('scipy.stats' in sys.modules)",
        "run_single_trial(ExperimentConfig('adgac-only', n_samples=200), 0)",
        "run_single_trial(ExperimentConfig('margin-adgac', dist='isotropic-gaussian', d=2,",
        "                                  eps=0.3, delta=0.3, beta=0.1), 0)",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines() == ["False", "[]"]


def test_constant_defaults_live_only_in_tunable_constants():
    # a second default for a constant drifts from the frozen one, as a batch
    # default c3 = 1.0 once disagreed with C3 = 5.0; a learner takes a
    # TunableConstants instead, and a function may take a constant only as a
    # required argument
    names = {f.name for f in dataclasses.fields(TunableConstants)}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name != "TunableConstants":
                found += [f"{path.name}:{node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          and stmt.target.id in names]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.name}({arg}=...)" for arg in defaulted(node)
                          if arg in names]
    assert found == []


# every defaulted parameter in src/, and why it keeps its default
KEPT_DEFAULTS = {
    "bench.py:measure_error(n_mc)": "the benchmark's tracer reads the default",
    "bench.py:emit_report(config)": "the benchmark's worker leaves out config",
    "cli.py:main(argv)": "the console entry point passes nothing",
    "hypotheses.py:VersionSpace.__init__(alive)": "src/ builds both a whole and a cut space",
    "margin.py:minimize_hinge(max_iters)": "1500 for a round's fit; the seed fit passes 800",
    "oracles.py:uniform_scenario(threshold, label_noise, comparison_noise, seed)":
        "a world constructor: bench passes every argument, so no run reads a default",
    "oracles.py:gaussian_scenario(label_noise, comparison_noise, seed)":
        "a world constructor: bench passes every argument, so no run reads a default",
}


def test_every_parameter_default_is_kept_on_purpose():
    # a default that only tests leave out is a second way into a call: the
    # tests then run a path that no run takes
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(fn): f"{cls.name}." for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        found += [f"{path.name}:{owner.get(id(node), '')}{node.name}({', '.join(args)})"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (args := defaulted(node))]
    assert sorted(found) == sorted(KEPT_DEFAULTS)


def test_learners_take_the_oracle_alone():
    # the oracle holds a trial's world, rng stream and counters; a function
    # that takes it and also a spec or an rng lets a caller pass a second
    # world or stream, which then drives part of the trial
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if "oracle" in names and names & {"rng", "spec"}:
                    found.append(f"{path.name}:{node.name}")
    assert found == []


def test_oracle_takes_the_world_alone():
    # the world's seed starts the trial's one stream; a generator passed
    # beside it would be a second source for the same stream
    assert list(inspect.signature(Oracle).parameters) == ["spec"]


def test_entry_points_take_the_paper_inputs_alone():
    # each entry point README names takes its budget (params, plan or n),
    # its data or class, and the oracle: a parameter that only a test sets
    # is a second way into a run
    entry_points = {core.adgac: ["S", "plan", "oracle"],
                    a2.run_a2_adgac: ["oracle", "klass", "params"],
                    a2.run_baseline_a2: ["oracle", "klass", "params"],
                    margin.run_margin_adgac: ["oracle", "params"],
                    bench.passive_erm: ["oracle", "klass", "n"]}
    assert {fn.__name__: list(inspect.signature(fn).parameters) for fn in entry_points} == {
        fn.__name__: names for fn, names in entry_points.items()}


def test_one_learner_target_type():
    # eps and delta are a learner's target, declared once by
    # core.LearnerParams and once by the config the CLI fills; a second
    # class holding both restates the target and its checks
    found = sorted(f"{path.name}:{node.name}"
                   for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.ClassDef)
                   and {"eps", "delta"} <= {stmt.target.id for stmt in node.body
                                            if isinstance(stmt, ast.AnnAssign)
                                            and isinstance(stmt.target, ast.Name)})
    assert found == ["bench.py:ExperimentConfig", "core.py:LearnerParams"]


def test_no_single_query_calls():
    # learners ask in batches, through label_many and ranking;
    # Oracle.label and Oracle.compare remain only because the benchmark's
    # tracer wraps them, so no package code may ask one instance or one pair
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("label", "compare")]
    assert found == []


def test_every_tunable_constant_is_read():
    # a constant no code reads lets a constants file set it to no effect
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "TunableConstants"
                for node in ast.walk(cls)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in skip}
    fields = {f.name for f in dataclasses.fields(TunableConstants)}
    assert sorted(fields - read) == []


def test_learners_read_the_counters_only_against_the_budgets():
    # a call's record says what it asked, so QueryCounters is plain data and
    # a learner reads oracle.counters only to hold a run's total to its
    # budget; a reading before and after a call would count the call again
    tree = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    counters = next(node for node in ast.walk(tree["oracles.py"])
                    if isinstance(node, ast.ClassDef) and node.name == "QueryCounters")
    assert [stmt.name for stmt in counters.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))] == []
    found = []
    for name in ("a2.py", "margin.py"):
        budgeted = {id(node) for cmp in ast.walk(tree[name]) if isinstance(cmp, ast.Compare)
                    and {"MAX_LABELS", "MAX_COMPARISONS"} & {
                        n.id for n in ast.walk(cmp) if isinstance(n, ast.Name)}
                    for node in ast.walk(cmp)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree[name])
                  if isinstance(node, ast.Attribute) and node.attr == "counters"
                  and id(node) not in budgeted]
    assert found == []


# public names that no run reads, and why each stays
KEPT_FOR_TESTS = {
    "ExplicitClass": "A² over a general finite class, as the paper states it; test_a2 runs it",
    "hinge_loss_batch": "the hinge loss on one w, which AC-8 checks against finite differences",
    "hinge_subgradient": "its subgradient, which AC-8 checks against finite differences",
}


def test_every_public_name_is_read_outside_the_tests():
    # a public function, class or method that only tests read is a path no
    # run takes; the benchmark and the tools count as runs, and the package's
    # __init__ only re-exports
    public = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public |= {fn.name for fn in node.body
                           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    public = {name for name in public if not name.startswith("_")}
    runs = ([p for p in SOURCES if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py")))
    read = set()
    for path in runs:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(public - read) == sorted(KEPT_FOR_TESTS)
