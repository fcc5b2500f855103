"""Pair two report CSVs trial by trial and test the difference.

    PYTHONPATH=src python tools/paired.py PARENT.csv CHANGE.csv

Both files are battery reports (`adgac.bench.emit_report`) of one method,
epsilon and delta, over the same seeds: the parent's and a change's run of
one config.  A seed present on one side only, a repeated seed, or a pair
whose method, epsilon or delta differ is an error.  The script prints

- the success counts, the discordant pairs (a seed that succeeds on one side
  only) and the exact two-sided McNemar p over them;
- for labels and for comparisons, over the pairs without an error row on
  either side, each side's median, the median paired difference (change
  minus parent) and the exact two-sided sign test;
- the error medians over the same pairs;
- the seeds with an error row on one side only, and each flag seen on one
  side only, with its count;
- how many pairs are identical in every column but wall_ms.

A trial succeeds when its err is finite and at most epsilon, as in
`adgac.bench.summarize`.  Exit status 0 on a printed report, 2 on a usage
or pairing error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import bdtr

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from adgac.bench import CSV_HEADER, TrialReport, parse_report_csv  # noqa: E402

WALL_MS = CSV_HEADER.split(",").index("wall_ms")


def pair(parent: list[TrialReport], change: list[TrialReport]):
    """The (parent, change) report pairs, by seed in ascending order."""
    sides = []
    for name, reports in (("parent", parent), ("change", change)):
        by_seed = {r.seed: r for r in reports}
        if len(by_seed) != len(reports):
            raise ValueError(f"{name}: a seed occurs more than once")
        sides.append(by_seed)
    only = sorted(sides[0].keys() ^ sides[1].keys())
    if only:
        raise ValueError(f"unpaired seeds: {only[:10]}")
    pairs = [(sides[0][s], sides[1][s]) for s in sorted(sides[0])]
    for a, b in pairs:
        for attr in ("method", "epsilon", "delta"):
            if getattr(a, attr) != getattr(b, attr):
                raise ValueError(f"seed {a.seed}: {attr} {getattr(a, attr)!r} "
                                 f"against {getattr(b, attr)!r}")
    return pairs


def two_sided_binomial_p(k: int, n: int) -> float:
    """Exact two-sided p of k successes or fewer in n fair coin flips, doubled,
    with k the smaller count; 1 when n is 0."""
    return 1.0 if n == 0 else min(1.0, 2.0 * float(bdtr(min(k, n - k), n, 0.5)))


def succeeded(report: TrialReport) -> bool:
    return math.isfinite(report.err) and report.err <= report.epsilon


def has_error(report: TrialReport) -> bool:
    return "error:" in report.flags


def _flags(reports) -> Counter:
    return Counter(f for r in reports for f in r.flags.split(";") if f)


def _strip_wall_ms(report: TrialReport) -> str:
    parts = report.to_csv_row().split(",")
    del parts[WALL_MS]
    return ",".join(parts)


def compare(pairs) -> list[str]:
    """The report's lines for the (parent, change) pairs."""
    n = len(pairs)
    ok = np.array([[succeeded(a), succeeded(b)] for a, b in pairs], dtype=bool)
    lost = int(np.sum(ok[:, 0] & ~ok[:, 1]))
    gained = int(np.sum(~ok[:, 0] & ok[:, 1]))
    lines = [f"pairs {n}: {pairs[0][0].method}, epsilon {pairs[0][0].epsilon!r}, "
             f"delta {pairs[0][0].delta!r}",
             f"success parent {int(ok[:, 0].sum())}/{n}, change {int(ok[:, 1].sum())}/{n}",
             f"discordant: {gained} gained, {lost} lost; "
             f"McNemar p = {two_sided_binomial_p(gained, gained + lost):.4f}"]
    done = [(a, b) for a, b in pairs if not (has_error(a) or has_error(b))]
    lines.append(f"pairs without an error row on either side: {len(done)}")
    if done:
        parent_done, change_done = zip(*done)
        for column in ("labels", "comparisons"):
            va = np.array([getattr(r, column) for r in parent_done], dtype=float)
            vb = np.array([getattr(r, column) for r in change_done], dtype=float)
            diff = vb - va
            up, down = int(np.sum(diff > 0)), int(np.sum(diff < 0))
            lines.append(f"{column}: median parent {np.median(va):g}, change {np.median(vb):g}; "
                         f"median difference {np.median(diff):+g}; {up} up, {down} down, "
                         f"sign test p = {two_sided_binomial_p(up, up + down):.4f}")
        lines.append(f"err: median parent {np.median([r.err for r in parent_done]):g}, "
                     f"change {np.median([r.err for r in change_done]):g}")
    for name, side in (("parent", 0), ("change", 1)):
        seeds = [p[side].seed for p in pairs if has_error(p[side]) and not has_error(p[1 - side])]
        lines.append(f"error rows on the {name} only: {len(seeds)}"
                     + (f" (seeds {seeds[:10]})" if seeds else ""))
    fa, fb = _flags(a for a, _ in pairs), _flags(b for _, b in pairs)
    for name, mine, other in (("parent", fa, fb), ("change", fb, fa)):
        for flag in sorted(mine.keys() - other.keys()):
            lines.append(f"flag on the {name} only: {flag} x{mine[flag]}")
    same = sum(_strip_wall_ms(a) == _strip_wall_ms(b) for a, b in pairs)
    lines.append(f"identical but for wall_ms: {same}/{n}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's report CSV")
    parser.add_argument("change", help="the change's report CSV")
    args = parser.parse_args(argv)
    try:
        pairs = pair(parse_report_csv(args.parent), parse_report_csv(args.change))
        if not pairs:
            raise ValueError("no trials to pair")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(compare(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
