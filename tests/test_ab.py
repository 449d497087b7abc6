"""The exit status of `tools/ab.py`: 0 when the two sides print the same
lines in every run, 1 when any run finds them different; its one line per
item after each run's total; and its summary line after the last run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exit_status(monkeypatch, capsys, outputs: dict, items: int = 1) -> tuple[int, str]:
    """ab's exit status with fake sides, named parent and child, whose
    items each print outputs[side]."""
    ab = _ab()
    monkeypatch.setattr(ab, "load", lambda root, mode, seed: (
        {}, [(f"item{i}", lambda: list(outputs[root.name])) for i in range(items)]))
    status = ab.main(["parent", "child", "--passes", "2", "--runs", "2"])
    return status, capsys.readouterr().out


def test_equal_outputs_exit_zero(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["a"]})
    assert status == 0
    assert out.count("digests equal") == 3 and "DIFFER" not in out
    assert out.splitlines()[-1].endswith("digests equal in every run")


def test_differing_outputs_exit_one(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["b"]})
    assert status == 1
    assert out.count("digests DIFFER") == 3
    assert out.splitlines()[-1].endswith("digests DIFFER in some run")


def test_each_run_prints_one_line_per_item(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["a"]}, 3)
    lines = out.splitlines()
    assert status == 0 and len(lines) == 2 * 4 + 1
    for run in (lines[:4], lines[4:8]):
        assert "digests equal" in run[0]
        assert [line.split(":")[0] for line in run[1:]] == ["  item0", "  item1", "  item2"]
        assert all("parent " in line and "change " in line for line in run[1:])


def test_the_last_line_sums_up_the_runs(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["a"]})
    ratios = [float(line.split("change/parent time ")[1].split(",")[0])
              for line in out.splitlines() if " run " in line]
    summary = out.splitlines()[-1]
    assert status == 0 and len(ratios) == 2
    assert summary.startswith("protocols over 2 runs: change/parent time ")
    lo, mid, hi = (float(summary.split(f"{word} ")[1].split(",")[0])
                   for word in ("min", "median", "max"))
    assert abs(lo - min(ratios)) < 2e-3 and abs(hi - max(ratios)) < 2e-3
    assert abs(mid - sum(ratios) / 2) < 2e-3
