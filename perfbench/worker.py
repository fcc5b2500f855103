"""One benchmark run in one process: set up, run ops in a closed loop, check, report.

Started by run.py, which times its set-up from outside: the worker writes
READY on stdout once ``adgac`` is imported and the inputs are built.  The
last stdout line is a JSON object with the run's metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import adgac  # noqa: E402
from adgac import bench  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, strip_wall_ms  # noqa: E402

READY = "PERFBENCH-READY"
OPS_PER_SECOND_CAP = 50  # no op takes under 20 ms; bounds the inputs built up front
# Every run starts with the same PANEL_OPS ops, built from PANEL_SEED, which no
# workload seed (taken mod 2**63) equals; the ops after them come from the workload
# seed.  The quality metrics (success_rate, err_median, labels_per_op,
# comparisons_per_op) are taken over the panel, so they are exact functions of the
# program and any change to its rng stream moves them.  Over a seed-dependent set
# of ~55 margin trials err_median would spread by about 0.22 between seeds, as
# much as its bound.  A run goes on until the panel is done, whatever --seconds says,
# so the panel's digest is the same in every run of one program.
PANEL_OPS = 40
PANEL_SEED = 2**63
PANEL_METRICS = ("success_rate", "err_median", "labels_per_op", "comparisons_per_op")

# the layer each workload is built around, and the share of the op it should exceed
DOMINANT = {
    "adgac-sort": ("core.quicksort", 0.80),
    "a2-threshold": ("oracles.label", 0.15),
    "margin-halfspace": ("margin.hinge", 0.60),
    "minimax-verify": ("minimax.comparison_error", 0.40),
}

LAYER_UNITS = {"calls": "count", "items": "count", "labels": "count", "probes": "count",
               "rounds": "count", "iters": "count", "pairs": "count", "instances": "count",
               "samples": "count", "us_per_call": "us", "cmp_per_mlog2m": "ratio",
               "hit_frac": "frac", "keep_frac": "frac", "degraded_frac": "frac",
               "overhead_frac": "frac"}


class Run:
    """Ops run so far, with their times, check outcomes and problems."""

    def __init__(self, workload):
        self.workload = workload
        self.ms: list[float] = []         # CPU time of each op
        self.wall_ms: list[float] = []    # wall time of each op, steal included
        self.outcomes = []          # workloads.Outcome, or None for an op that raised
        self.problems: list[str] = []
        self.notes: list[str] = []

    def op(self, j: int, op) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = self.workload.run(op)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, the run goes on
            raw = exc
        self.ms.append((time.process_time() - c0) * 1e3)
        self.wall_ms.append((time.perf_counter() - w0) * 1e3)
        if isinstance(raw, Exception):
            self.outcomes.append(None)
            self.problems.append(f"op {j}: {type(raw).__name__}: {raw}")
            return
        outcome = self.workload.check(op, raw)
        self.outcomes.append(outcome)
        self.problems.extend(f"op {j}: {p}" for p in outcome.problems)
        self.notes.extend(f"op {j}: {n}" for n in outcome.notes)

    def loop(self, ops, seconds: float) -> None:
        start = time.perf_counter()
        for j, op in enumerate(ops):
            if j >= PANEL_OPS and time.perf_counter() - start >= seconds:
                break
            self.op(j, op)

    @property
    def failed_ops(self) -> int:
        return sum(o is None or bool(o.problems) for o in self.outcomes)

    def report(self, out_dir: str) -> tuple[list[str], list[str]]:
        """Emit the run's trial reports through ``bench`` and read them back.

        Returns each op's deterministic output (its CSV rows without wall_ms
        for learners, its CLI output otherwise) and any counter-conservation
        violation: the summary totals must equal the per-report sums.
        """
        reports = [r for o in self.outcomes if o is not None for r in o.reports]
        if not reports:
            return [o.key if o is not None else "failed" for o in self.outcomes], []
        summary = bench.summarize(reports, reports[0].epsilon)
        path = os.path.join(out_dir, "ops.csv")
        bench.emit_report(reports, path, summary=summary)
        violations = []
        for kind in ("labels", "comparisons"):
            total = sum(getattr(r, kind) for r in reports)
            if summary[f"{kind}_total"] != total:
                violations.append(f"summary {kind}_total {summary[f'{kind}_total']} "
                                  f"!= per-report sum {total}")
        with open(path) as fh:
            rows = [strip_wall_ms(line.rstrip("\n")) for line in fh][1:]
        keys, i = [], 0
        for o in self.outcomes:
            if o is None:
                keys.append("failed")
                continue
            keys.append("\n".join(rows[i:i + len(o.reports)]))
            i += len(o.reports)
        return keys, violations


def digest(keys: list[str]) -> str:
    return hashlib.sha256("\n\x00".join(keys).encode()).hexdigest()[:16]


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    ms = np.asarray(run.ms)
    ops = len(run.ms)
    panel = run.outcomes[:PANEL_OPS]
    ok = [o for o in panel if o is not None]
    errs = [e for o in ok for e in o.errs]
    # an op that raised counts as one unsuccessful learner run
    learner_runs = sum(len(o.successes) for o in ok) + (len(panel) - len(ok))
    successes = sum(s for o in ok for s in o.successes)
    return {
        "ops_per_s": (ops / float(ms.sum() / 1e3), "1/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (successes / learner_runs, "frac"),
        "err_median": (float(np.median(errs)) if errs else float("nan"), "frac"),
        "labels_per_op": (sum(o.labels for o in ok) / len(panel), "count"),
        "comparisons_per_op": (sum(o.comparisons for o in ok) / len(panel), "count"),
    }


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "ms" if last == "ms" or last.endswith("_ms") else LAYER_UNITS[last]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not Path(adgac.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"adgac imported from {adgac.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed % 2**63)
    ops = (WORKLOADS[args.workload](PANEL_SEED).inputs(PANEL_OPS)
           + workload.inputs(int(args.seconds * OPS_PER_SECOND_CAP) + 16))
    print(READY, flush=True)
    if args.setup_only:
        return 0

    print(f"versions python={sys.version.split()[0]} numpy={np.__version__} "
          f"scipy={scipy.__version__} threads OPENBLAS/OMP/MKL="
          + "/".join(os.environ.get(v, "unset") for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")))
    print("loop: closed, 1 caller, 1 op in flight, 1 process, no threads; "
          "wait time: none, no layer has a queue")

    run = Run(workload)
    traced = tracer = None
    violations: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        if args.trace:
            # each op runs untraced and traced, in alternating order, so that warm-up
            # and machine drift fall on both sides of the overhead estimate
            traced = Run(workload)
            tracer = tracing.Tracer()
            start = time.perf_counter()
            for j, op in enumerate(ops):
                if j and time.perf_counter() - start >= args.seconds:
                    break
                for side in ((run, traced) if j % 2 == 0 else (traced, run)):
                    if side is traced:
                        tracer.install()
                    try:
                        side.op(j, op)
                    finally:
                        tracer.uninstall()
            tracer.install()
            try:
                traced_keys, found = traced.report(out_dir)
            finally:
                tracer.uninstall()
            violations += found
        else:
            run.loop(ops, args.seconds)
        keys, found = run.report(out_dir)
        violations += found
        if traced is not None and traced_keys != keys:
            violations.append("traced ops gave other outputs than the untraced ones")

        first = Run(workload)
        first.op(0, ops[0])
        rerun_same = first.report(out_dir)[0] == keys[:1]
        if not rerun_same:
            violations.append("re-run of op 0 gave another report")

    print(f"digest panel {PANEL_OPS} ops sha256 {digest(keys[:PANEL_OPS])}; "
          f"all {len(keys)} ops sha256 {digest(keys)}")
    print(f"re-run of op 0: {'identical' if rerun_same else 'DIFFERENT'}")
    runs = [run] + ([traced] if traced else [])
    for note in [n for r in runs for n in r.notes]:
        print(f"NOTE {note}")
    for problem in [p for r in runs for p in r.problems] + violations:
        print(f"FAILURE {problem}")

    attempted = sum(len(r.ms) for r in runs)
    failed = sum(r.failed_ops for r in runs) + len(violations)
    wall = np.asarray(run.wall_ms)
    print(f"wall clock, hypervisor steal included: {len(wall) / float(wall.sum() / 1e3)!r} ops/s, "
          f"p50 {float(np.percentile(wall, 50))!r} ms, p90 {float(np.percentile(wall, 90))!r} ms")
    print(f"metric op_fail_frac {failed / attempted!r} frac ({failed} failed of {attempted})")

    metrics: dict[str, dict] = {}
    if traced is None:
        for name, (value, unit) in end_to_end(run).items():
            n = (f" (n={len(run.ms)} ops)" if name.startswith("op_ms") else
                 f" (over the {PANEL_OPS}-op panel)"
                 if name in PANEL_METRICS else "")
            print(f"metric {name} {value!r} {unit}{n}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        n = len(traced.ms)
        layers = tracer.layer_metrics(n)
        layers["trace.overhead_frac"] = sum(traced.ms) / sum(run.ms) - 1.0
        op_wall_ms = sum(traced.wall_ms) / n
        print(f"traced {n} ops: {sum(traced.ms) / n!r} CPU ms per traced op, "
              f"{sum(run.ms) / n!r} CPU ms per untraced op, {op_wall_ms!r} wall ms per traced op")
        for name, value in layers.items():
            print(f"layer {name} {value!r} {layer_unit(name)}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        layer, floor = DOMINANT[args.workload]
        # layer spans are wall-clock (a CPU-time read is a system call), so compare to wall
        share = tracer.total[layer] * 1e3 / n / op_wall_ms
        print(f"dominant layer {layer}: {share:.3f} of the traced op "
              f"(expected over {floor}: {'yes' if share > floor else 'NO'})")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
