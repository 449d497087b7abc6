"""Equation-free branches against the closure path.

A branch with no equation hypothesis has one term per class, so the engine
answers its equalities by identity and builds no closure for it; and each
root closure starts from a copy of X's classes, built once per DYContext.
Here every query of a corpus is made twice: as the engine makes it, and
with every branch forced onto the closure path and X's classes built
afresh for every root.  Verdict, budget flag, proof and every witness
candidate drawn must be the same, as must everything the corpus prints.

CI also runs this file under three hash seeds: hash-consed terms hash by
identity, so set iteration follows allocation.
"""
from __future__ import annotations

import random

import pytest

from protassert import DeriveContext, engine, parse_sequent, simulate, write_trace
from protassert.anonymity import check_anonymity, render_report
from protassert.assertions import (
    And,
    Eq,
    Exists,
    Pred,
    assertion_terms,
    normalize,
    opened,
    subassertions,
)
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.terms import NONCE, Basic, Var, iter_subterms, term_key
from test_candidates import _Flat
from test_golden_output import SEQUENTS


def _corpus(out: list) -> None:
    """The golden runs, reports and sequents, the foo battery at 2 voters,
    and random equation-free sequents; what each prints is appended to out."""
    foo, linked, helios = builtin_foo(), builtin_foo_linked(), builtin_helios()
    for proto, setup, seeds in ((foo, default_foo_setup(foo, 2), range(10)),
                                (foo, default_foo_setup(foo, 3), range(10)),
                                (helios, default_helios_setup(helios), range(5))):
        for seed in seeds:
            run, _ = simulate(proto, setup, seed=seed)
            out.append(("run", write_trace(run), tuple(run.warnings)))
    for proto, seeds in ((linked, range(2)), (foo, range(1))):
        for seed in seeds:
            rep = check_anonymity(proto, anonymity_foo_setup(proto, 2), seed=seed)
            out.append(("anonymity", render_report(rep)))
    for text in SEQUENTS.values():
        seq = parse_sequent(text)
        for safe in (False, True):
            DeriveContext(seq.terms, seq.assertions, safe=safe).query(seq.goal)
    n, m = Basic("n", NONCE), Basic("m", NONCE)
    # the binder x, which occurs nowhere, takes the least term of the
    # branch's universe as its witness
    vacuous = ((n, m), [Pred("p", (n,)), Exists("y", Pred("p", (m,)))],
               Exists("x", Pred("p", (n,))))
    for X, hyps, goal in (vacuous, *_equation_free(random.Random(18), 60)):
        for safe in (False, True):
            DeriveContext(X, hyps, safe=safe).query(goal)


def _equation_free(rng: random.Random, count: int):
    """Flat sequents without their equation hypotheses, each asked for an
    existential over a hypothesis or a fresh assertion, for the same with
    its variable first set equal to a subterm of the hypotheses, and for
    the first under a binder that occurs nowhere."""
    flat = _Flat(rng)
    for _ in range(count):
        X, hyps, _ = flat.sequent()
        hyps = [h for h in hyps if not any(isinstance(s, Eq) for s in subassertions(h))]
        if not hyps:
            continue
        goal = flat.goal(hyps)
        terms = sorted({s for h in hyps for t in assertion_terms(h)
                        for s in iter_subterms(t)},
                       key=term_key)
        pinned = And(Eq(Var("x"), rng.choice(terms)), opened(goal, Var("x")))
        yield X, hyps, goal
        yield X, hyps, normalize(Exists("x", pinned))
        yield X, hyps, normalize(Exists("z", goal))


def _record(forced: bool) -> tuple[list, int]:
    """Every query of the corpus as (goal, derivable, budget flag, proof),
    every `_candidates` call as (body, var, the candidates drawn), and the
    corpus output, in order and by repr; and the number of closures built."""
    calls: list = []
    built = [0]
    query, candidates, x_classes = (engine.DeriveContext.query,
                                    engine._BranchProver._candidates, engine._x_classes)
    init = engine.EqClasses.__init__

    def querying(ctx, goal):
        v = query(ctx, goal)
        calls.append(("query", repr(goal), v.derivable, v.budget_exhausted, repr(v.proof)))
        return v

    def drawing(self, var, body):
        got: list = []
        calls.append(("candidates", repr(body), var, got))
        for t in candidates(self, var, body):
            got.append(repr(t))
            yield t

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def afresh(dyctx):
        dyctx.classes = None
        return x_classes(dyctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine.DeriveContext, "query", querying)
        mp.setattr(engine._BranchProver, "_candidates", drawing)
        mp.setattr(engine.EqClasses, "__init__", counted)
        if forced:
            mp.setattr(engine._Node, "singletons", False)
            mp.setattr(engine, "_x_classes", afresh)
        _corpus(calls)
    return calls, built[0]


def test_equation_free_branches_answer_as_the_closure_path():
    got, built = _record(forced=False)
    want, built_forced = _record(forced=True)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"entry {i} differs"
    assert sum(c[0] == "query" for c in got) > 1000
    assert sum(c[0] == "candidates" and bool(c[3]) for c in got) > 300
    assert built < built_forced
