"""Self-test of the benchmark: a few ops per workload, every named metric, output that parses.

    python3 perfbench/selftest.py

Runs each workload for one second untraced and traced, and checks that the
last stdout line is the result object, that it carries exactly the metrics
BENCHMARK.json names with their units, that every metric also appears on a
human-readable line with its unit, and that nothing failed.  Last, it copies
only BENCHMARK.json and perfbench/ into a scratch directory and checks that
the benchmark refuses to run there: non-zero exit, no result printed.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
        if not any(line.split()[1:2] == [name] and f" {unit}" in line for line in lines[:-1]):
            problems.append(f"{name}: no human-readable line with its unit")
    if "(n=" not in proc.stdout and "op_ms_p90" in expected:
        problems.append("op_ms_p90 printed without its sample count")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            problems = check_result(run(ROOT, workload, trace), expected)
            print(f"{'PASS' if not problems else 'FAIL'} {workload} --trace {trace}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        refused = proc.returncode != 0 and not last.startswith("{")
        print(f"{'PASS' if refused else 'FAIL'} refuses to run without the program "
              f"(exit code {proc.returncode})")
        failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
