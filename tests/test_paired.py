"""The paired comparison script (tools/paired.py) on synthetic report CSVs."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from adgac.bench import TrialReport, emit_report, summarize

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def paired(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    yield importlib.import_module("paired")
    sys.modules.pop("paired", None)


def _report(seed, err=0.01, labels=100, comparisons=1000, flags=""):
    return TrialReport(seed=seed, method="a2-adgac", epsilon=0.05, delta=0.1, err=err,
                       err_se=0.001, labels=labels, comparisons=comparisons, rounds=4,
                       wall_ms=float(seed), flags=flags)


def _csv(tmp_path, name, reports):
    path = tmp_path / name
    emit_report(reports, str(path), summarize(reports, reports[0].epsilon))
    return str(path)


def _run(paired, capsys, parent, change):
    code = paired.main([parent, change])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def test_identical_files_give_p_one(paired, tmp_path, capsys):
    path = _csv(tmp_path, "a.csv", [_report(s, labels=100 + s) for s in range(5)])
    code, lines, _ = _run(paired, capsys, path, path)
    assert code == 0
    assert "discordant: 0 gained, 0 lost; McNemar p = 1.0000" in lines
    assert any(line.startswith("labels:") and line.endswith("sign test p = 1.0000")
               for line in lines)
    assert "identical but for wall_ms: 5/5" in lines


def test_seven_against_nine_discordant_failures(paired, tmp_path, capsys):
    # 7 seeds fail on the parent only, 9 on the change only, 4 on neither
    fail = dict(err=0.2)
    parent = ([_report(s, **fail) for s in range(7)] + [_report(s) for s in range(7, 20)])
    change = ([_report(s) for s in range(7)] + [_report(s, **fail) for s in range(7, 16)]
              + [_report(s) for s in range(16, 20)])
    code, lines, _ = _run(paired, capsys, _csv(tmp_path, "a.csv", parent),
                          _csv(tmp_path, "b.csv", change))
    assert code == 0
    assert "discordant: 7 gained, 9 lost; McNemar p = 0.8036" in lines
    assert paired.two_sided_binomial_p(7, 16) == pytest.approx(0.8036, abs=5e-5)
    assert paired.two_sided_binomial_p(9, 16) == paired.two_sided_binomial_p(7, 16)


def test_seed_missing_on_one_side_is_an_error(paired, tmp_path, capsys):
    parent = _csv(tmp_path, "a.csv", [_report(s) for s in range(4)])
    change = _csv(tmp_path, "b.csv", [_report(s) for s in range(3)])
    code, lines, err = _run(paired, capsys, parent, change)
    assert code == 2 and lines == []
    assert "unpaired seeds: [3]" in err


def test_mismatched_epsilon_is_an_error(paired, tmp_path, capsys):
    parent = _csv(tmp_path, "a.csv", [_report(s) for s in range(3)])
    change = _csv(tmp_path, "b.csv", [dataclasses.replace(_report(s), epsilon=0.1)
                                      for s in range(3)])
    code, _, err = _run(paired, capsys, parent, change)
    assert code == 2 and "epsilon" in err


def test_paired_differences_and_one_sided_flags(paired, tmp_path, capsys):
    parent = [_report(0, labels=10), _report(1, labels=20),
              _report(2, err=float("nan"), flags="error:EmptyVersionSpaceError")]
    change = [_report(0, labels=13), _report(1, labels=26, flags="early-exit-round-2"),
              _report(2, labels=7)]
    code, lines, _ = _run(paired, capsys, _csv(tmp_path, "a.csv", parent),
                          _csv(tmp_path, "b.csv", change))
    assert code == 0
    assert "pairs without an error row on either side: 2" in lines
    assert ("labels: median parent 15, change 19.5; median difference +4.5; 2 up, 0 down, "
            "sign test p = 0.5000") in lines
    assert "error rows on the parent only: 1 (seeds [2])" in lines
    assert "error rows on the change only: 0" in lines
    assert "flag on the parent only: error:EmptyVersionSpaceError x1" in lines
    assert "flag on the change only: early-exit-round-2 x1" in lines
    assert "identical but for wall_ms: 0/3" in lines
