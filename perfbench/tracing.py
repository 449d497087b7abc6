"""Spans and counters recorded around protassert's public entry points.

The benchmark measures each layer (a module of ``src/protassert``) from the
outside: while a Tracer is installed, the functions listed in ``TARGETS`` are
replaced by wrappers that record a span (name, start, end, parent, item) or
bump a counter.  A module function is replaced in every protassert module
that holds it under some name, because ``runtime`` and ``anonymity`` import
``derive``, ``derive_safe``, ``simulate`` and ``validate_run`` by name and
would otherwise call the unwrapped function.  Methods are replaced on their
class.  Spans stay in memory until ``write`` is called once at the end.

A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from types import ModuleType

from protassert import anonymity, checker, dy, engine, runtime, syntax


def _after_build(tr: "Tracer", _, args) -> None:
    ctx = args[0]  # __init__ returns None; the context is self
    if ctx.build_failed:
        tr.counts["engine.build_failed"] += 1
    else:
        tr.counts["engine.leaves"] += ctx.branch_count


def _after_query(tr: "Tracer", verdict, args) -> None:
    if verdict.budget_exhausted:
        tr.counts["engine.query_budget"] += 1


def _after_replay(tr: "Tracer", result, args) -> None:
    if not result[0]:
        tr.counts["checker.rejects"] += 1


def _after_simulate(tr: "Tracer", result, args) -> None:
    tr.counts["runtime.run_steps"] += len(result[0].steps)


def _after_apply(tr: "Tracer", result, args) -> None:
    if tr.open["runtime.simulate"]:
        tr.counts["runtime.applied_in_simulate"] += 1


def _after_battery(tr: "Tracer", result, args) -> None:
    _, total, _, inconclusive = result
    tr.counts["anonymity.tests"] += total
    tr.counts["anonymity.inconclusive"] += inconclusive


SPAN, COUNT = "span", "count"

# (owner, attribute, kind, record name, hook run on the result)
TARGETS = [
    (dy, "dy_saturate", SPAN, "dy.saturate", None),
    (dy.DYContext, "__init__", COUNT, "dy.contexts", None),
    (dy.DYContext, "derivable", COUNT, "dy.derivable_calls", None),
    (engine.DeriveContext, "__init__", SPAN, "engine.build", _after_build),
    (engine.DeriveContext, "query", SPAN, "engine.query", _after_query),
    (engine, "derive", SPAN, "engine.derive", None),
    (engine, "derive_safe", SPAN, "engine.derive", None),
    (checker, "replay_assertion_proof", SPAN, "checker.replay", _after_replay),
    (runtime, "simulate", SPAN, "runtime.simulate", _after_simulate),
    (runtime, "enabled_actions", COUNT, "runtime.states", None),
    (runtime, "candidates_for", SPAN, "runtime.candidates", None),
    (runtime, "apply_candidate", COUNT, "runtime.applied", _after_apply),
    (runtime, "validate_run", SPAN, "runtime.validate", None),
    (anonymity, "check_anonymity", SPAN, "anonymity.check", None),
    (anonymity, "derive_swap", SPAN, "anonymity.swap", None),
    (anonymity, "build_swapped", SPAN, "anonymity.swap", None),
    (anonymity, "check_safety", SPAN, "anonymity.safety", None),
    (anonymity, "run_battery", SPAN, "anonymity.battery", _after_battery),
    (syntax, "parse_sequent", SPAN, "syntax.parse", None),
    (syntax, "parse_protocol", SPAN, "syntax.parse", None),
    (syntax, "parse_sessions", SPAN, "syntax.parse", None),
    (syntax, "parse_term", SPAN, "syntax.parse", None),
    (syntax, "parse_assertion", SPAN, "syntax.parse", None),
]


def _program_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "protassert" or name.startswith("protassert."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: Counter = Counter()
        self.open: Counter = Counter()  # names of the spans now open
        self.item: str | None = None  # label of the item being run
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, hook):
        spans, stack, opened, clock = self.spans, self._stack, self.open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(rec)
            stack.append(idx)
            opened[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                opened[name] -= 1
            if hook is not None:
                hook(self, result, args)
            return result
        return wrapper

    def _count(self, name: str, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args)
            return result
        return wrapper

    def install(self) -> None:
        modules = _program_modules()
        for owner, attr, kind, name, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = (self._span if kind == SPAN else self._count)(name, original, hook)
            if isinstance(owner, ModuleType):
                holders = [(m, n) for m in modules for n, v in vars(m).items()
                           if v is original]
            else:
                holders = [(owner, attr)]
            for holder, n in holders:
                self._undo.append((holder, n, original))
                setattr(holder, n, wrapper)

    def uninstall(self) -> None:
        for holder, n, original in reversed(self._undo):
            setattr(holder, n, original)
        self._undo.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per record name: span count, summed duration and summed self time.
        Syntax spans nested in other syntax spans are left out, so parsing
        is counted once per entry into the layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        n: Counter = Counter()
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == "syntax.parse" and parent >= 0 and spans[parent][0] == name:
                continue
            n[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return n, total, own

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, counts and seconds taken per item."""
        n, total, own = self.totals()
        c = self.counts

        def per(x):
            return x / items

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "dy.contexts": (per(c["dy.contexts"]), "count/item"),
            "dy.saturate_s": (per(total["dy.saturate"]), "s/item"),
            "dy.derivable_calls": (per(c["dy.derivable_calls"]), "count/item"),
            "engine.builds": (per(n["engine.build"]), "count/item"),
            "engine.build_self_s": (per(own["engine.build"]), "s/item"),
            "engine.leaves": (per(c["engine.leaves"]), "count/item"),
            "engine.build_failed": (per(c["engine.build_failed"]), "count/item"),
            "engine.queries_per_build": (ratio(n["engine.query"], n["engine.build"]), "ratio"),
            "engine.queries": (per(n["engine.query"]), "count/item"),
            "engine.query_s": (per(total["engine.query"]), "s/item"),
            "engine.query_budget": (per(c["engine.query_budget"]), "count/item"),
            "engine.derive_calls": (per(n["engine.derive"]), "count/item"),
            "checker.replays": (per(n["checker.replay"]), "count/item"),
            "checker.replay_s": (per(total["checker.replay"]), "s/item"),
            "checker.rejects": (per(c["checker.rejects"]), "count/item"),
            "runtime.simulate_self_s": (per(own["runtime.simulate"]), "s/item"),
            "runtime.candidates_calls": (per(n["runtime.candidates"]), "count/item"),
            "runtime.candidates_self_s": (per(own["runtime.candidates"]), "s/item"),
            "runtime.states": (per(c["runtime.states"]), "count/item"),
            "runtime.applied": (per(c["runtime.applied"]), "count/item"),
            "runtime.useful_ratio": (ratio(c["runtime.run_steps"],
                                           c["runtime.applied_in_simulate"]), "ratio"),
            "runtime.validate_self_s": (per(own["runtime.validate"]), "s/item"),
            "anonymity.swap_s": (per(total["anonymity.swap"]), "s/item"),
            "anonymity.safety_s": (per(total["anonymity.safety"]), "s/item"),
            "anonymity.battery_self_s": (per(own["anonymity.battery"]), "s/item"),
            "anonymity.tests": (per(c["anonymity.tests"]), "count/item"),
            "anonymity.tests_per_s": (ratio(c["anonymity.tests"],
                                            total["anonymity.battery"]), "1/s"),
            "anonymity.inconclusive": (per(c["anonymity.inconclusive"]), "count/item"),
            "syntax.parse_s": (per(total["syntax.parse"]), "s/item"),
            "syntax.parse_calls": (per(n["syntax.parse"]), "count/item"),
        }

    def write(self, path) -> None:
        """Write every span once, as JSON, with its parent and item."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
