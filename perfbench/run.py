"""adgac-lab benchmark: one command, one workload, one closed-loop run.

    python3 perfbench/run.py --workload adgac-sort --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` it prints the per-layer costs of a traced run.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.

This launcher imports nothing heavy.  It pins BLAS threading, records the
machine, times the worker's set-up from process start to READY (several
times, reporting the median as ``setup_s``), and relays the worker's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
READY = "PERFBENCH-READY"
WORKLOADS = ("adgac-sort", "a2-threshold", "margin-halfspace", "minimax-verify")
SETUP_SAMPLES = 3       # worker start-ups timed per untraced run; the last one measures
SETUP_TIMEOUT_S = 60
RESULT_GRACE_S = 100    # beyond --seconds, for the last op, re-run and report

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def steal_seconds() -> float | None:
    """Machine-wide CPU steal time so far, from /proc/stat (None where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up seconds."""
    t0 = time.perf_counter()
    # unbuffered, so readline takes no bytes beyond READY away from communicate()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, bufsize=0)
    line = proc.stdout.readline().decode()
    setup = time.perf_counter() - t0
    if line.strip() != READY:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line.strip()!r}, "
                           f"exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker still running after {timeout:.0f} s; killed") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.decode()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "adgac" / "__init__.py").is_file():
        print(f"error: no adgac package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED_ENV)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine nproc={os.cpu_count()} cpu={cpu_model()!r}")
    steal_before = steal_seconds()
    try:
        setups = []
        # set-up probes run one at a time and exit after READY; only the last worker measures
        for _ in range(SETUP_SAMPLES - 1 if args.trace == 0 else 0):
            probe, setup = start_worker(worker_argv + ["--setup-only"], env)
            setups.append(setup)
            finish(probe, SETUP_TIMEOUT_S)
        proc, setup = start_worker(worker_argv, env)
        setups.append(setup)
        out = finish(proc, args.seconds + RESULT_GRACE_S)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    steal_after = steal_seconds()

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: worker printed no result: {lines[-1]!r}", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    if steal_before is not None and steal_after is not None:
        print(f"machine steal_s before={steal_before:.2f} after={steal_after:.2f} "
              f"during={steal_after - steal_before:.2f}")
    if args.trace == 0:
        setup_s = statistics.median(setups)
        print(f"metric setup_s {setup_s!r} s (median of {len(setups)} start-ups: "
              + ", ".join(f"{s:.3f}" for s in setups) + ")")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
