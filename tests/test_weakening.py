"""Weakening: adding known terms or hypotheses never turns a derivable goal
into a definite negative.

Every rule schema of `checker.py` is monotone in X and Phi:
  - `ax` needs its conclusion in the context, and a term proof's `ax` its
    term in X; both survive any addition.
  - `and_e`, `strip`, `and_i`, `or_i`, `or_e`, `exists_i`, `subst`, `sym`,
    `trans`, the congruences, the projections and `bot` only pass the
    context on to their premises, with `or_e` and `exists_e` extending it.
  - The side conditions of `refl`, `proj_enc` and `says` are Dolev-Yao
    derivations from X, which only grow with X.
  - `exists_e` alone reads the context negatively: its witness variable
    must be fresh for X, Phi and the conclusion.  A new name can always be
    chosen, so derivability stays monotone; a fixed proof does not replay
    if the additions mention its witness name.  The additions here are
    closed and use no `_w` names, so even the proofs carry over.

So a larger context may make the engine's search slower or cut it short
(an inconclusive answer), but never a definite "not derivable".  The goals
are the paper's existential checks, taken at the end of foo and helios runs,
plus the certificate leak and the witness synthesis repro, in full and safe
mode; ten more nonces push the repro's z past the synthesis cut.  The additions fill the same predicate buckets as the goals, so the
hypothesis index is exercised when its buckets are large.
"""
from __future__ import annotations

import random

from protassert import (
    And,
    Basic,
    DeriveContext,
    Eq,
    Exists,
    Or,
    Pair,
    Pred,
    Says,
    SentT,
    Var,
    is_closed,
    parse_sequent,
)
from protassert.assertions import subassertions
from protassert.builtins import (
    builtin_foo,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.checker import replay_assertion_proof
from protassert.runtime import OBSERVER, simulate

LEAK = """\
nonces: v, 0, 1, 2
keys: k
terms: {v}k
assertions:
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 1))
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 2))
goal: ex y: {v}k = {0}y
"""

SYNTH = """\
nonces: a1, z
terms: a1, z
goal: ex x, y: (x = (y, y) /\\ y = z)
"""


def _run_goals(proto, setup, seed: int):
    """(X, Phi, goal, safe) for each assertion a step of a completed run
    had to derive, over the knowledge at the end of the run."""
    run, state = simulate(proto, setup, seed=seed)
    assert run.complete
    intr = state.knowledge[OBSERVER]
    out = []
    for step in run.steps:
        act = step.action
        if act.assertion is None or act.kind == "deny":
            continue
        if act.kind == "recv":
            know = intr
        else:
            know = state.knowledge[state.agent_of(state.sessions[step.session - 1])]
        out.append((know.terms, know.assertions, act.assertion, act.kind != "confirm"))
    return out


def _cases():
    foo, helios = builtin_foo(), builtin_helios()
    cases = _run_goals(foo, default_foo_setup(foo, 3), 0)
    cases += _run_goals(helios, default_helios_setup(helios), 0)
    for text in (LEAK, SYNTH):
        seq = parse_sequent(text)
        for safe in (False, True):
            cases.append((seq.terms, seq.assertions, seq.goal, safe))
    return cases


def _unrelated(rng: random.Random, goal, nonces: int, facts: int):
    """Fresh known nonces, and closed hypotheses over them alone that use
    the goal's predicates, connectives and agents."""
    fresh = [Basic(f"u{i}", "nonce") for i in range(nonces)]
    agents = [Basic(f"U{i}", "agent") for i in range(3)]
    preds = sorted({(a.name, len(a.args)) for a in subassertions(goal)
                    if isinstance(a, Pred)}) or [("p", 1)]

    def atom():
        name, arity = rng.choice(preds)
        args = tuple(rng.choice(fresh) for _ in range(arity))
        if arity and rng.random() < 0.3:
            args = (Pair(args[0], rng.choice(fresh)), *args[1:])
        return Pred(name, args)

    def fact(depth: int):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return atom()
        if r < 0.5:
            return Says(rng.choice(agents), fact(depth - 1))
        if r < 0.65:
            return And(fact(depth - 1), fact(depth - 1))
        if r < 0.75:
            return Or(fact(depth - 1), fact(depth - 1))
        if r < 0.85:
            return SentT(rng.choice(agents), rng.choice(fresh))
        u = rng.choice(fresh)
        return Exists("x", And(Eq(Var("x"), u), Pred(preds[0][0], (Var("x"),) * preds[0][1])))

    return set(fresh), {fact(3) for _ in range(facts)}


def test_weakening_never_gives_a_definite_negative():
    rng = random.Random(2017)
    cases = _cases()
    assert len(cases) > 30
    checked = 0
    for X, Phi, goal, safe in cases:
        base = DeriveContext(X, Phi, safe=safe).query(goal)
        if not base.derivable:
            assert safe and goal == parse_sequent(LEAK).goal  # the leak needs or_e
            continue
        for nonces, facts in ((2, 4), (10, 24)):
            more_X, more_Phi = _unrelated(rng, goal, nonces, facts)
            assert all(is_closed(a) for a in more_Phi)
            X2, Phi2 = X | more_X, Phi | more_Phi
            v = DeriveContext(X2, Phi2, safe=safe).query(goal)
            assert v.derivable or v.budget_exhausted, (goal, safe, more_X, more_Phi)
            if v.derivable:
                ok, err = replay_assertion_proof(v.proof, X2, Phi2, goal)
                assert ok, err
            checked += 1
    assert checked > 60
