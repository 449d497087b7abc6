"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Checks that
  * every workload prints, as its last line, a result with every metric that
    BENCHMARK.json names, each with the unit named there, with tracing off
    and on, and prints the same output digest twice for the same seed;
  * every known answer is enforced: a wrong verdict, a rejected proof, a run
    that does not replay or a wrong anonymity report is caught as wrong, a
    budget-exhausted answer as failed whatever the known answer (also where
    'not derivable' is expected), and a wrong answer makes the command
    exit 1;
  * the tracer sees every call of the functions it wraps: its span and
    counter totals equal cProfile's call counts for the same functions.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from protassert import anonymity, checker, engine, runtime  # noqa: E402
from protassert.engine import Verdict  # noqa: E402

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# the command prints every named metric with its unit

def command_output(workload: str, trace: int) -> tuple[int, list[str]]:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    return p.returncode, p.stdout.strip().splitlines()


def check_command() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        name = wl["name"]
        digests = set()
        for trace in (0, 1):
            code, lines = command_output(name, trace)
            res = json.loads(lines[-1])
            check(code == 0 and res["correct"], f"{name} trace={trace}: exit 0, correct")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            check(res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"],
                  f"{name} trace={trace}: attempted and failed counts")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace], f"{name} trace={trace}: metric names and units")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{name}: end-to-end metrics are positive")
            digests.add(lines[-2])
        check(len(digests) == 1, f"{name}: same digest untraced and traced")


# ---------------------------------------------------------------------------
# every known answer is enforced

LEAK_POS = W.leak_sequent(W.random.Random(1), 2, True)
LEAK_NEG = W.leak_sequent(W.random.Random(1), 3, False)
FANOUT = W.fanout_sequent(W.random.Random(1), 2)
FANOUT_CAP = W.fanout_sequent(W.random.Random(1), 13)


def flat_items() -> list[tuple[str, bool]]:
    gen = W._FlatGen(W.random.Random(5))
    out = {}
    while len(out) < 2:
        text, want = gen.sequent()
        out.setdefault(want, text)
    return [(out[True], True), (out[False], False)]


def protocols_item(seed: int, kind: str):
    return next(item for item in W.Protocols(seed).round(0) if f".{kind}." in item.label)


def status_of(fn) -> str:
    _, out = run.run_item(W.Item("probe", fn))
    return out.status


def check_known_answers() -> None:
    real_derive = engine.derive
    yes = lambda *a, **k: Verdict(True)  # noqa: E731
    no = lambda *a, **k: Verdict(False)  # noqa: E731
    budget = lambda *a, **k: Verdict(False, budget_exhausted=True)  # noqa: E731
    accept = lambda *a, **k: (True, None)  # noqa: E731

    def seq(text, full, safe):
        return lambda: W.decide_sequent("probe", text, full, safe)

    check(status_of(seq(LEAK_POS, True, False)) == W.OK, "leak+: known answer holds")
    check(status_of(seq(LEAK_NEG, False, False)) == W.OK, "leak-: known answer holds")
    check(status_of(seq(FANOUT, True, None)) == W.OK, "fanout: known answer holds")
    check(status_of(seq(FANOUT_CAP, True, None)) == W.BUDGET,
          "fanout past the branch cap: counted as budget")
    with patched(engine, "derive", no):
        check(status_of(seq(LEAK_POS, True, False)) == W.WRONG, "leak+ refused: wrong")
        check(status_of(seq(FANOUT, True, None)) == W.WRONG, "fanout refused: wrong")
    with patched(engine, "derive", budget):
        check(status_of(seq(LEAK_POS, True, False)) == W.BUDGET, "leak+ budget: failed")
        check(status_of(seq(LEAK_NEG, False, False)) == W.BUDGET, "leak- budget: failed")
    with patched(engine, "derive_safe", budget):
        check(status_of(seq(LEAK_POS, True, False)) == W.BUDGET,
              "leak+ budget in safe mode: failed")
    with patched(engine, "derive_safe", real_derive):
        check(status_of(seq(LEAK_POS, True, False)) == W.WRONG,
              "leak+ derived in safe mode: wrong")
    with patched(checker, "replay_assertion_proof", lambda *a, **k: (False, "forged")):
        check(status_of(seq(LEAK_POS, True, False)) == W.WRONG, "rejected proof: wrong")
    for text, want in flat_items():
        check(status_of(seq(text, want, None)) == W.OK, f"flat {want}: oracle answer holds")
        with patched(engine, "derive", no if want else yes), \
                patched(checker, "replay_assertion_proof", accept):
            check(status_of(seq(text, want, None)) == W.WRONG,
                  f"flat {want}: opposite verdict is wrong")

    item = protocols_item(3, "foo2")
    check(status_of(item.run) == W.OK, "vote run: completes, replays, re-prints")
    with patched(runtime, "validate_run", lambda run, *a: (False, ["forged"], None)):
        check(status_of(item.run) == W.WRONG, "vote run rejected on replay: wrong")
    real_parse = runtime.parse_trace
    with patched(runtime, "parse_trace", lambda text, *a: real_parse(
            "\n".join(text.splitlines()[:-1]) + "\n", *a)):
        check(status_of(item.run) == W.WRONG, "vote run re-printed differently: wrong")
    real_sim = runtime.simulate

    def incomplete(*a, **k):
        r, st = real_sim(*a, **k)
        r.complete = False
        return r, st
    with patched(runtime, "simulate", incomplete):
        check(status_of(item.run) == W.WRONG, "vote run not completing: wrong")

    def budget_warning(complete):
        def fn(*a, **k):
            r, st = real_sim(*a, **k)
            r.complete = complete
            r.warnings.append("session 1: confirm hit the search budget")
            return r, st
        return fn
    with patched(runtime, "simulate", budget_warning(True)):
        check(status_of(item.run) == W.BUDGET, "vote run that hit the budget: failed")
    with patched(runtime, "simulate", budget_warning(False)):
        check(status_of(item.run) == W.BUDGET,
              "vote run not completing under the budget: failed")

    real_check = anonymity.check_anonymity

    def forged(verdict, inconclusive=0):
        def fn(*a, **k):
            rep = real_check(*a, **k)
            rep.verdict, rep.inconclusive = verdict, inconclusive
            return rep
        return fn
    linked = protocols_item(3, "linked")
    check(status_of(linked.run) == W.OK, "foo-linked: distinguished")
    with patched(anonymity, "check_anonymity", forged("indistinguishable")):
        check(status_of(linked.run) == W.WRONG, "foo-linked indistinguishable: wrong")
    with patched(anonymity, "check_anonymity", forged("inconclusive", 2)):
        check(status_of(linked.run) == W.BUDGET, "foo-linked inconclusive: failed")
    with patched(anonymity, "check_anonymity", forged("distinguished", 1)):
        check(status_of(linked.run) == W.BUDGET,
              "foo-linked distinguished with a budget test: failed")
    with patched(anonymity, "check_anonymity", forged("inconclusive", 0)):
        check(status_of(linked.run) == W.WRONG,
              "foo-linked inconclusive without a budget test: wrong")

    out = io.StringIO()
    with patched(engine, "derive", no), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "sequents", "--seed", "1", "--seconds", "0"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 1 and res["correct"] is False, "wrong answers make the command exit 1")


# ---------------------------------------------------------------------------
# no wrapped call escapes the trace

def check_trace_complete() -> None:
    items = [protocols_item(4, "foo2"), protocols_item(4, "linked"),
             *W.Sequents(4).round(0)[:6]]
    tracer = tracing.Tracer()
    prof = cProfile.Profile()
    tracer.install()
    try:
        prof.enable()
        for item in items:
            run.run_item(item, tracer)
        prof.disable()
    finally:
        tracer.uninstall()
    calls = {where: stat[1] for where, stat in pstats.Stats(prof).stats.items()}
    spans = Counter(s[0] for s in tracer.spans)
    wrapped: dict = {}
    want: Counter = Counter()
    for owner, attr, kind, name, _ in tracing.TARGETS:
        code = getattr(owner, attr).__code__
        want[name] += calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        wrapped.setdefault((kind, name), []).append(f"{owner.__name__}.{attr}")
    for (kind, name), fns in wrapped.items():
        seen = spans[name] if kind == tracing.SPAN else tracer.counts[name]
        check(seen == want[name] and seen > 0,
              f"{name}: {seen} of {want[name]} calls to {', '.join(fns)} traced")
    derives, builds = spans["engine.derive"], spans["engine.build"]
    print(f"     engine builds per derive/derive_safe call: {builds / derives:.2f}")


if __name__ == "__main__":
    check_known_answers()
    check_trace_complete()
    check_command()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    sys.exit(1 if failures else 0)
