"""The benchmark's output digests, pinned.

`perfbench/run.py` prints a sha256 over every verdict, proof check, trace
and anonymity report of a workload.  A change meant only to make the program
faster must leave that digest as it is, so both workloads are run here on a
short setting (two passes), at two seeds, and their digests compared with
the recorded ones.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (workload, seed) -> digest.  Seed 601 is the benchmark's own; 777 is a
# second seed, whose inputs differ.  A seed-601 test keeps the workload as
# its id.
DIGESTS = {
    ("sequents", 601): "f56dc088d27a9fd029aeb9ee319f60026ac46d97bdcaae99ea213a2d4717d371",
    ("protocols", 601): "d4bc267ac87ffe220babae2ce37d971278032f912a1e27e1dc83346115ff5d5a",
    ("sequents", 777): "ccc622a2b7c8ab40f2c54418c2d131f4159d1f79a8f065922e63f69fc36586b6",
    ("protocols", 777): "8e1e31791e4f1d256f548121511fa675e14ce9d7697041eff783f9e1813cde68",
}


@pytest.mark.parametrize("workload, seed", sorted(DIGESTS),
                         ids=[w if s == 601 else f"{w}-{s}" for w, s in sorted(DIGESTS)])
def test_benchmark_digest_is_unchanged(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = [l for l in out.stdout.splitlines() if l.startswith("digest sha256:")]
    assert out.returncode == 0, out.stdout + out.stderr
    assert lines == [f"digest sha256:{DIGESTS[workload, seed]}"], out.stdout
