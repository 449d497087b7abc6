"""The benchmark's output digests, pinned.

`perfbench/run.py` prints a sha256 over every verdict, proof check, trace
and anonymity report of a workload.  A change meant only to make the program
faster must leave that digest as it is, so both workloads are run here on a
short setting (two passes) and their digests compared with the recorded ones.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "sequents": "f56dc088d27a9fd029aeb9ee319f60026ac46d97bdcaae99ea213a2d4717d371",
    "protocols": "d4bc267ac87ffe220babae2ce37d971278032f912a1e27e1dc83346115ff5d5a",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_digest_is_unchanged(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "601", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = [l for l in out.stdout.splitlines() if l.startswith("digest sha256:")]
    assert out.returncode == 0, out.stdout + out.stderr
    assert lines == [f"digest sha256:{DIGESTS[workload]}"], out.stdout
