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
    reports, items = [], {}
    try:
        for m, kw in TINY.items():
            before = tracer.counts["quicksort.items"]
            reports.append(bench.run_single_trial(bench.ExperimentConfig(method=m, seed=3, **kw),
                                                  0))
            items[m] = tracer.counts["quicksort.items"] - before
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["minimax-check", "--grid", "2000"])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert [r.flags for r in reports if "error:" in r.flags] == []
    for name in ("core.adgac", "a2.run", "a2.run_baseline", "margin.run",
                 "bench.measure_error", "minimax.comparison_error"):
        assert tracer.calls[name] > 0, name
    # the sort's counts are read from its items argument and its result's
    # comparison count: every comparison a trial asks is the sort's, and an
    # adgac-only trial sorts its whole sample once
    assert tracer.counts["quicksort.comparisons"] == sum(r.comparisons for r in reports) > 0
    assert items["adgac-only"] == TINY["adgac-only"]["n_samples"]
