"""In-process A/B timing of two protassert checkouts.

    python3 tools/ab.py PARENT CHILD [--mode {protocols,sequents,anon}]
                        [--seed N] [--passes P] [--runs R]

One process loads both checkouts, each with its own copy of the program's
modules, and runs the same items on both, interleaved item by item, with
the order of the two flipped from one item to the next and from one pass to
the next.  So both sides see every spell of a shared machine's speed, which
two separate benchmark runs cannot promise.  Each item's time is the
fastest of its passes, as in ``perfbench/run.py``.

Modes: ``protocols`` and ``sequents`` take the items of
``perfbench/workloads.py`` of each checkout at the seed (601 by default);
``anon`` runs ``check_anonymity`` on foo with 4 voters, seeds 0-2.  Each
run prints the child's total time over the parent's (below 1 is faster)
and whether the outputs of the two sides (verdict lines, traces, reports)
have one sha256, then one line per item with both sides' fastest times and
their ratio; the exit status is 1 if any run finds the outputs different.
Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
from pathlib import Path

PASSES = {"protocols": 40, "sequents": 10, "anon": 4}
# the top-level modules a checkout brings: its package and what workloads imports
OWN = ("protassert", "workloads", "oracles")


def _own(name: str) -> bool:
    return name.split(".")[0] in OWN


def load(root: Path, mode: str, seed: int) -> tuple[dict, list]:
    """The checkout's modules, imported afresh, and its items: (label,
    callable) pairs, the callable returning the lines of its output."""
    for name in [n for n in sys.modules if _own(n)]:
        del sys.modules[name]
    path = sys.path[:]
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    try:
        if mode == "anon":
            from protassert import anonymity, builtins

            foo = builtins.builtin_foo()
            setup = builtins.builtin_setup("foo", foo, anonymity=True, voters=4)
            items = [(f"foo4.seed{s}", lambda s=s: [anonymity.render_report(
                anonymity.check_anonymity(foo, setup, seed=s))]) for s in range(3)]
        else:
            import workloads

            items = [(item.label, lambda i=item: i.run().lines)
                     for item in workloads.WORKLOADS[mode](seed).items()]
    finally:
        sys.path[:] = path
    return {n: m for n, m in sys.modules.items() if _own(n)}, items


def timed(modules: dict, item) -> tuple[float, list[str]]:
    sys.modules.update(modules)  # a call-time import reads its own checkout's
    gc.collect()
    t0 = time.perf_counter()
    lines = item()
    return time.perf_counter() - t0, lines


def one_run(sides: list, passes: int) -> tuple[list[list[float]], bool]:
    """Each side's fastest time of each item, and whether the two sides'
    outputs have one digest."""
    n = len(sides[0][1])
    best = [[float("inf")] * n for _ in sides]
    digests = [hashlib.sha256() for _ in sides]
    for p in range(passes):
        for i in range(n):
            for s in ((0, 1) if (p + i) % 2 == 0 else (1, 0)):
                modules, items = sides[s]
                t, lines = timed(modules, items[i][1])
                best[s][i] = min(best[s][i], t)
                if p == 0:
                    for line in lines:
                        digests[s].update(line.encode() + b"\n")
    return best, digests[0].digest() == digests[1].digest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("child", type=Path)
    ap.add_argument("--mode", choices=sorted(PASSES), default="protocols")
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--passes", type=int)
    ap.add_argument("--runs", type=int, default=1)
    args = ap.parse_args(argv)
    passes = args.passes or PASSES[args.mode]
    sides = [load(root.resolve(), args.mode, args.seed) for root in (args.parent, args.child)]
    differ = False
    for r in range(args.runs):
        best, same = one_run(sides, passes)
        differ |= not same
        print(f"{args.mode} run {r + 1}/{args.runs}: {passes} passes, "
              f"change/parent time {sum(best[1]) / sum(best[0]):.3f}, "
              f"digests {'equal' if same else 'DIFFER'}")
        for (label, _), old, new in zip(sides[0][1], *best):
            print(f"  {label}: parent {old * 1e3:.2f} ms, change {new * 1e3:.2f} ms, "
                  f"{new / old:.3f}")
        sys.stdout.flush()
    return int(differ)


if __name__ == "__main__":
    raise SystemExit(main())
