"""The benchmark tracer (perfbench/tracing.py) sees every learner call.

The tracer rebinds module attributes, so a name it wraps that is deleted or
renamed, or a learner that the method table captures at import, leaves a
layer reading zero; one tiny trial of each method shows either at once.
"""

import contextlib
import importlib
import io
from pathlib import Path

from adgac import bench, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY = {
    "adgac-only": dict(eps=0.1, n_samples=200, k=3),
    "a2-adgac": dict(eps=0.2, delta=0.2, grid=101),
    "margin-adgac": dict(eps=0.2, delta=0.2, dist="isotropic-gaussian", d=2),
    "baseline-a2": dict(eps=0.2, delta=0.2, grid=101),
    "passive-erm": dict(n_samples=100, grid=101),
}


def test_tracer_counts_every_method(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert set(TINY) == set(bench.METHODS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [bench.run_single_trial(bench.ExperimentConfig(method=m, seed=3, **kw), 0)
                   for m, kw in TINY.items()]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["minimax-check", "--grid", "2000"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert [r.flags for r in reports if "error:" in r.flags] == []
    for name in ("core.adgac", "a2.run", "a2.run_baseline", "margin.run",
                 "bench.measure_error", "minimax.comparison_error"):
        assert tracer.calls[name] > 0, name
