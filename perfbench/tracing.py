"""Per-layer tracing by rebinding the package's public functions and methods.

The wrappers work because of how the package looks names up at call time:
``core.adgac`` calls ``noisy_quicksort`` and ``group_binary_search`` as module
globals; ``a2``, ``margin`` and ``bench`` call ``core.adgac`` through the
module; ``margin`` calls the module-global ``minimize_hinge``,
``fit_initial_direction`` and ``band_membership``; ``Oracle.__init__`` calls
``oracles.calibrate_band``; learners call ``Oracle`` and ``VersionSpace``
methods through the class; ``cli`` calls ``minimax.*`` through the module.

Every wrapped call adds its duration to its caller's child time, so a span's
self time is its duration minus the time its wrapped callees took.  Hot calls
(comparisons, labels, lemma instances; about 50k per op) are aggregated into a
count and busy time instead of one span per call.  Spans are timed with
``perf_counter``: a CPU-time read is a system call, and a traced op makes about
100k clock reads.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

from adgac import a2, bench, cli, core, hypotheses, margin, minimax, oracles
from workloads import opposite_pairs


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)    # seconds inside the call
        self.self_ = defaultdict(float)    # seconds minus wrapped callees
        self.counts = defaultdict(float)   # work counted from arguments and results
        self._stack = [0.0]                # child seconds accumulated per open span
        self._leaves = {}                  # name -> [calls, seconds] of unnested hot calls
        self._saved = []

    # -- installing -----------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None, leaf=False):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        calls, total, self_, stack = self.calls, self.total, self.self_, self._stack
        clock = time.perf_counter

        if leaf:
            cell = self._leaves.setdefault(name, [0, 0.0])

            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                cell[0] += 1
                cell[1] += dt
                stack[-1] += dt
                return result
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    calls[name] += 1
                    total[name] += dt
                    self_[name] += dt - child
                    stack[-1] += dt
                if after is not None:
                    # bookkeeping time is charged to no layer's self time
                    h0 = clock()
                    after(result, args, kwargs)
                    stack[-1] += clock() - h0
                return result
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def install(self):
        counts = self.counts
        Oracle, VersionSpace = oracles.Oracle, hypotheses.VersionSpace

        def quicksort_done(result, args, kwargs):
            m = len(args[0])
            counts["quicksort.items"] += m
            counts["quicksort.comparisons"] += result[1]
            if m > 1:
                counts["quicksort.mlog2m"] += m * math.log2(m)

        def search_done(result, args, kwargs):
            counts["group_search.labels"] += result[1]
            counts["group_search.probes"] += result[3]

        def dis_mask_done(mask, args, kwargs):
            counts["dis_mask.hits"] += int(mask.sum())
            counts["dis_mask.seen"] += mask.size

        def rounds_done(result, args, kwargs):
            counts["a2.rounds"] += result.rounds_run

        def hinge_done(fit, args, kwargs):
            counts["hinge.iters"] += fit.iterations
            counts["hinge.degraded"] += bool(fit.degraded)

        def band_done(mask, args, kwargs):
            counts["band.kept"] += int(mask.sum())
            counts["band.seen"] += mask.size

        def pairs_done(result, args, kwargs):
            _, base, n = args[:3]
            counts["comparison_error.pairs"] += opposite_pairs(base, n)

        n_mc_default = inspect.signature(bench.measure_error).parameters["n_mc"].default

        def measure_done(result, args, kwargs):
            counts["measure_error.samples"] += kwargs.get(
                "n_mc", args[3] if len(args) > 3 else n_mc_default)

        w = self._wrap
        w(Oracle, "compare", "oracles.compare", leaf=True)
        w(Oracle, "label", "oracles.label", leaf=True)
        w(Oracle, "sample", "oracles.sample", leaf=True)
        w(Oracle, "__init__", "oracles.oracle_init")
        w(oracles, "calibrate_band", "oracles.calibrate", leaf=True)
        w(core, "noisy_quicksort", "core.quicksort", after=quicksort_done)
        w(core, "group_binary_search", "core.group_search", after=search_done)
        w(core, "adgac", "core.adgac")
        w(hypotheses.ThresholdClass, "error_counts", "hypotheses.error_counts", leaf=True)
        w(VersionSpace, "filter_by_counts", "hypotheses.filter", leaf=True)
        w(VersionSpace, "dis_mask", "hypotheses.dis_mask", after=dis_mask_done)
        w(a2, "run_a2_adgac", "a2.run", after=rounds_done)
        w(a2, "run_baseline_a2", "a2.run_baseline", after=rounds_done)
        w(margin, "minimize_hinge", "margin.hinge", after=hinge_done)
        w(margin, "fit_initial_direction", "margin.init")
        w(margin, "band_membership", "margin.band", after=band_done)
        w(margin, "run_margin_adgac", "margin.run")
        w(minimax, "comparison_error_of", "minimax.comparison_error", after=pairs_done)
        w(minimax, "best_threshold_error", "minimax.best_threshold")
        w(minimax, "make_lemma_instance", "minimax.lemma_instance", leaf=True)
        w(minimax, "equality_instance", "minimax.lemma_equality", leaf=True)
        w(minimax, "lemma_min_f", "minimax.lemma_min_f", leaf=True)
        w(bench, "run_single_trial", "bench.trial")
        w(bench, "measure_error", "bench.measure_error", after=measure_done)
        w(bench, "summarize", "bench.summarize")
        w(bench, "emit_report", "bench.emit_report")
        w(cli, "main", "cli.main")

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        for name, (n, seconds) in self._leaves.items():
            self.calls[name] += n
            self.total[name] += seconds
        self._leaves.clear()

    # -- reading --------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer costs: ms and counts divided by the traced op count."""
        c, t, s, k = self.calls, self.total, self.self_, self.counts

        def ms(v):
            return v * 1e3 / ops

        def per_op(v):
            return v / ops

        def us_per_call(name):
            return t[name] * 1e6 / c[name] if c[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        lemma_s = t["minimax.lemma_instance"] + t["minimax.lemma_equality"] + t["minimax.lemma_min_f"]
        return {
            "oracles.compare.calls": per_op(c["oracles.compare"]),
            "oracles.compare.us_per_call": us_per_call("oracles.compare"),
            "oracles.label.calls": per_op(c["oracles.label"]),
            "oracles.label.us_per_call": us_per_call("oracles.label"),
            "oracles.calibrate.calls": per_op(c["oracles.calibrate"]),
            "oracles.calibrate.ms": ms(t["oracles.calibrate"]),
            "oracles.oracle_init.ms": ms(t["oracles.oracle_init"]),
            "oracles.sample.ms": ms(t["oracles.sample"]),
            "core.quicksort.ms": ms(t["core.quicksort"]),
            "core.quicksort.self_ms": ms(s["core.quicksort"]),
            "core.quicksort.items": per_op(k["quicksort.items"]),
            "core.quicksort.cmp_per_mlog2m": ratio(k["quicksort.comparisons"], k["quicksort.mlog2m"]),
            "core.group_search.ms": ms(t["core.group_search"]),
            "core.group_search.labels": per_op(k["group_search.labels"]),
            "core.group_search.probes": per_op(k["group_search.probes"]),
            "core.adgac.calls": per_op(c["core.adgac"]),
            "core.adgac.self_ms": ms(s["core.adgac"]),
            "hypotheses.error_counts.ms": ms(t["hypotheses.error_counts"]),
            "hypotheses.filter.ms": ms(t["hypotheses.filter"]),
            "hypotheses.dis_mask.ms": ms(t["hypotheses.dis_mask"]),
            "hypotheses.dis_mask.hit_frac": ratio(k["dis_mask.hits"], k["dis_mask.seen"]),
            "a2.rounds": per_op(k["a2.rounds"]),
            "a2.run.ms": ms(t["a2.run"] + t["a2.run_baseline"]),
            "a2.run.self_ms": ms(s["a2.run"] + s["a2.run_baseline"]),
            "margin.hinge.ms": ms(t["margin.hinge"]),
            "margin.hinge.calls": per_op(c["margin.hinge"]),
            "margin.hinge.iters": per_op(k["hinge.iters"]),
            "margin.hinge.degraded_frac": ratio(k["hinge.degraded"], c["margin.hinge"]),
            "margin.init.ms": ms(t["margin.init"]),
            "margin.band.keep_frac": ratio(k["band.kept"], k["band.seen"]),
            "margin.run.self_ms": ms(s["margin.run"]),
            "minimax.comparison_error.ms": ms(t["minimax.comparison_error"]),
            "minimax.comparison_error.pairs": per_op(k["comparison_error.pairs"]),
            "minimax.best_threshold.ms": ms(t["minimax.best_threshold"]),
            "minimax.lemma.ms": ms(lemma_s),
            "minimax.lemma.instances": per_op(c["minimax.lemma_min_f"]),
            "bench.measure_error.ms": ms(t["bench.measure_error"]),
            "bench.measure_error.samples": per_op(k["measure_error.samples"]),
            "bench.trial.self_ms": ms(s["bench.trial"]),
            # once per run, not per op
            "bench.report.ms": (t["bench.summarize"] + t["bench.emit_report"]) * 1e3,
            "cli.main.self_ms": ms(s["cli.main"]),
        }
