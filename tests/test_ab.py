"""The exit status of `tools/ab.py`: 0 when the two sides print the same
lines in every run, 1 when any run finds them different."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


def _ab():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exit_status(monkeypatch, capsys, outputs: dict) -> tuple[int, str]:
    """ab's exit status with fake sides, named parent and child, whose one
    item prints outputs[side]."""
    ab = _ab()
    monkeypatch.setattr(ab, "load", lambda root, mode, seed: (
        {}, [lambda: list(outputs[root.name])]))
    status = ab.main(["parent", "child", "--passes", "2", "--runs", "2"])
    return status, capsys.readouterr().out


def test_equal_outputs_exit_zero(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["a"]})
    assert status == 0
    assert out.count("digests equal") == 2 and "DIFFER" not in out


def test_differing_outputs_exit_one(monkeypatch, capsys):
    status, out = _exit_status(monkeypatch, capsys, {"parent": ["a"], "child": ["b"]})
    assert status == 1
    assert out.count("digests DIFFER") == 2
