"""protassert benchmark: one workload per process, closed loop, checked answers.

    python3 perfbench/run.py --workload {sequents,protocols} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a protassert checkout; the program is imported from
``src/`` and the flat-context oracle from ``tests/oracles.py``.

Set-up imports the program, parses the builtins and generates the run's
items from the seed; each workload runs a fixed number of rounds of items.
One caller then runs the items back to back, the next starting when the
previous verdict has been checked, in passes over all of them.  The number
of passes is S divided by the workload's PASS_S (at least two): it depends
on S only, not on how fast the program runs, so every version of the program
gets the same number of tries.  An item's time is the fastest of its
passes, because a shared machine's speed changes by up to 2x for seconds
or minutes at a time; passes are short and many, so that every item is
sampled in every spell of the run.  Every pass must give the same output as
the first.
No pass starts once 1.5 S seconds have gone, so a very slow machine or
program still ends the command in bounded time.
Every item is compared with its known answer: a definite wrong answer, a
crash, a proof the checker rejects or an output that changes between passes
makes the command exit 1.  An item whose answer rests on a search that ran
out of budget is counted as failed, whatever its known answer, and does not
stop the run.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` every item runs untraced and traced back to back (see
tracing.py); the last line reports the per-layer metrics and the tracing
overhead, and the spans are written to ``.perfbench_out/``.  The line
before the last carries a sha256 over every item's output (verdict lines,
traces, anonymity reports), which is the same for the same seed and program
output.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sequents", "protocols")
MIN_PASSES = 2
STOP_AFTER = 1.5  # times --seconds: no pass starts after this
SETUP_SAMPLES = 8  # set-ups timed in fresh processes, besides the run's own


def _check_checkout() -> str | None:
    for need in ("src/protassert/__init__.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from a protassert checkout"
    return None


def setup(workload: str, seed: int):
    """Import the program, parse the builtins and generate the items.
    Returns the items and the seconds this took since the process started."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    items = workloads.WORKLOADS[workload](seed).items()
    return items, time.perf_counter() - _STARTED


def setup_in_fresh_process(workload: str, seed: int) -> float:
    """The set-up time of a new process for the same workload and seed.
    Imports are only paid once per process, so this is the only way to
    time the whole set-up again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_item(item, tracer=None):
    """Run and time one item.  The heap is collected first, so that every
    item starts from the same garbage-collector state, as a fresh command
    would, and does not pay for its predecessor's garbage."""
    import workloads

    if tracer is not None:
        tracer.item = item.label
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = item.run()
    except Exception as e:  # a crash is a wrong answer, reported with its cause
        tb = traceback.format_exc(limit=-3).strip().splitlines()
        out = workloads.Outcome(workloads.WRONG, [f"{item.label} crashed"],
                                f"{item.label}: {type(e).__name__}: {e} ({tb[-2].strip()})")
    return time.perf_counter() - t0, out


class Measurement:
    """The items of one run, every time each took, and their outcomes."""

    def __init__(self, items):
        self.items = items
        self.times: list[list[float]] = [[] for _ in items]
        self.outcomes: list = [None] * len(items)
        self.pass_s: list[float] = []  # wall time of each pass

    def run_pass(self) -> None:
        t0 = time.perf_counter()
        for i in range(len(self.items)):
            self.run(i)
        self.pass_s.append(time.perf_counter() - t0)

    def run(self, i: int, tracer=None) -> None:
        """Run item i once, keep its time and check its output."""
        import workloads

        t, out = run_item(self.items[i], tracer)
        self.times[i].append(t)
        first = self.outcomes[i]
        if first is None:
            self.outcomes[i] = out
        elif first.status != workloads.WRONG and \
                (out.status, out.lines) != (first.status, first.lines):
            self.outcomes[i] = workloads.Outcome(
                workloads.WRONG, first.lines,
                f"{self.items[i].label}: output differs between passes: "
                f"{out.why or out.lines[:1]}")

    def best(self) -> list[float]:
        """Per item, the fastest of its runs."""
        return [min(ts) for ts in self.times]

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outcomes:
            for line in out.lines:
                h.update(line.encode())
                h.update(b"\n")
        return h.hexdigest()


def planned_passes(workload: str, seconds: float) -> int:
    import workloads

    return max(MIN_PASSES, round(seconds / workloads.WORKLOADS[workload].PASS_S))


def end_to_end(m: Measurement, args, setup_s: float) -> tuple[dict, str]:
    """Set-up time is the median of the run's own set-up and SETUP_SAMPLES
    more in fresh processes, spread evenly between the passes: a single
    set-up lasts a fraction of a second and reads whatever speed the machine
    has in that moment."""
    import workloads

    samples = [setup_s]
    planned = planned_passes(args.workload, args.seconds)
    stop = time.perf_counter() + STOP_AFTER * args.seconds
    passes = 0
    while passes < planned and (passes < MIN_PASSES or time.perf_counter() < stop):
        m.run_pass()
        passes += 1
        if passes % max(1, planned // SETUP_SAMPLES) == 0 and len(samples) <= SETUP_SAMPLES:
            samples.append(setup_in_fresh_process(args.workload, args.seed))

    times = m.best()
    ok = sum(out.status == workloads.OK for out in m.outcomes)
    return {
        "setup_s": (statistics.median(samples), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        # inclusive: interpolates within the samples, never beyond the slowest
        "verdict_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ok_ratio": (ok / len(times), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, (f"passes={passes} pass_s={[round(t, 2) for t in m.pass_s]} "
        f"setup_s={[round(t, 3) for t in samples]}")


def per_layer(m: Measurement, args) -> tuple[dict, str]:
    """Passes in which every item runs twice back to back, once untraced
    and once traced, half as many passes as an untraced run makes (at least
    two).  Which of the two goes first alternates from item to item and from
    pass to pass, so that both meet nearly the same machine speed.  Layer
    figures come from the traced runs; the overhead compares each item's
    fastest traced time with its fastest untraced time."""
    from tracing import Tracer

    tracer = Tracer()
    traced_at: list[list[bool]] = [[] for _ in m.items]  # per item, per run
    stop = time.perf_counter() + STOP_AFTER * args.seconds
    passes = 0
    while passes < max(MIN_PASSES, planned_passes(args.workload, args.seconds) // 2) and \
            (passes < MIN_PASSES or time.perf_counter() < stop):
        t0 = time.perf_counter()
        for i in range(len(m.items)):
            for traced in ((False, True) if (passes + i) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        m.run(i, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    m.run(i)
                traced_at[i].append(traced)
        m.pass_s.append(time.perf_counter() - t0)
        passes += 1

    def fastest(traced: bool) -> float:
        return sum(min(t for t, tr in zip(ts, flags) if tr == traced)
                   for ts, flags in zip(m.times, traced_at))

    metrics = tracer.layer_metrics(passes * len(m.items))
    untraced, traced = fastest(False), fastest(True)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    return metrics, (f"passes={passes} spans={len(tracer.spans)} "
                     f"untraced_s={untraced:.3f} traced_s={traced:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    args = ap.parse_args(argv)
    problem = _check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    items, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0

    m = Measurement(items)
    if args.trace:
        metrics, summary = per_layer(m, args)
    else:
        metrics, summary = end_to_end(m, args, setup_s)

    import workloads

    failed = sum(out.status != workloads.OK for out in m.outcomes)
    wrong = [out.why for out in m.outcomes if out.status == workloads.WRONG]
    for why in wrong[:10]:
        print(f"wrong: {why}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} items={len(m.items)} "
          f"failed={failed} wrong={len(wrong)} {summary}")
    print(f"digest sha256:{m.digest()}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(m.items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
