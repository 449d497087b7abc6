"""A query on a shared context returns what a fresh context returns.

The anonymity battery and the runtime ask many goals of one
`DeriveContext`, so each verdict must depend on the context and the goal
alone, not on the goals asked before it: the case splits, the branch count
against `branch_cap` and the witness names below the root belong to the
query.  The contexts are the seeded sequents the other tests build: the
weakening cases, bare and with unrelated hypotheses added (disjunctions and
existentials among them), the leak and flat generators of the candidate
test, and the README leak.  Each context is asked its goals, and two of
its family's, in safe mode and in full mode, under branch_cap 3, 5 and the
default where the root has a disjunction to split; twice, with a refuted
goal first, then the rest in order or shuffled.  Every verdict, proof
included, must equal the one a fresh context gives.

CI also runs this file under three hash seeds."""
from __future__ import annotations

import random

from protassert import (
    DEFAULT_BUDGET,
    Basic,
    DeriveContext,
    Exists,
    Or,
    Pred,
    SearchBudget,
    Var,
    engine,
    parse_sequent,
)
from test_candidates import _Flat, _leak_sequent
from test_weakening import LEAK, _cases, _unrelated

BUDGETS = (SearchBudget(branch_cap=3), SearchBudget(branch_cap=5), DEFAULT_BUDGET)


def _contexts():
    """(X, Phi, goals) of every context, each with its own goals and up to
    two more of its family's."""
    rng = random.Random(13)
    families = []
    weakening = {}
    for X, Phi, goal, _ in _cases():
        more_X, more_Phi = _unrelated(rng, goal, 2, 4)
        for key in ((X, Phi), (X | more_X, Phi | more_Phi)):
            weakening.setdefault(key, []).append(goal)
    families.append(weakening)
    leaks = {}
    for certs in (2, 3, 4):
        for positive in (True, False):
            seq = parse_sequent(_leak_sequent(rng, certs, positive))
            leaks[seq.terms, seq.assertions] = [seq.goal]
    seq = parse_sequent(LEAK)
    leaks[seq.terms, seq.assertions] = [seq.goal]
    families.append(leaks)
    flat, flats = _Flat(random.Random(602)), {}
    for _ in range(20):
        X, hyps, goal = flat.sequent()
        flats[X, frozenset(hyps)] = [goal, flat.goal(hyps), flat.goal(hyps)]
    families.append(flats)
    for family in families:
        pool = sorted({g for goals in family.values() for g in goals}, key=repr)
        for (X, Phi), goals in family.items():
            extra = rng.sample(pool, min(2, len(pool)))
            yield X, Phi, list(dict.fromkeys(goals + extra))


def _configs(X, Phi):
    """(safe, budget) pairs to ask in: branch_cap matters only where the
    root has a disjunction to split, which a safe-mode context never does."""
    yield True, DEFAULT_BUDGET
    if DeriveContext(X, Phi).root.split is None:
        yield False, DEFAULT_BUDGET
    else:
        yield from ((False, budget) for budget in BUDGETS)


def test_a_shared_context_answers_as_a_fresh_one(monkeypatch):
    rng = random.Random(2017)
    asked = refuted_first = capped = 0
    for X, Phi, goals in _contexts():
        for safe, budget in _configs(X, Phi):
            fresh = {g: DeriveContext(X, Phi, budget, safe=safe).query(g) for g in goals}
            refuted = [g for g in goals if not (fresh[g].derivable or fresh[g].budget_exhausted)]
            first = refuted[:1]
            rest = [g for g in goals if g not in first]
            shuffled = rng.sample(rest, len(rest))
            # the fresh proofs are replayed; equal ones need not be again
            with monkeypatch.context() as m:
                m.setattr(engine, "REPLAY_CHECK", False)
                for order in (first + rest, first + shuffled):
                    ctx = DeriveContext(X, Phi, budget, safe=safe)
                    for g in order:
                        assert ctx.query(g) == fresh[g], (g, order.index(g))
                        asked += 1
            refuted_first += bool(first)
            capped += budget.branch_cap < DEFAULT_BUDGET.branch_cap
    assert asked > 1000 and refuted_first > 100 and capped > 20


def test_witness_names_below_the_root_follow_the_query_alone():
    # the first goal holds on the left case and splits the right one, which
    # opens e2; the second splits the left case, which opens e1 as the
    # first witness of its query
    n = Basic("n", "nonce")
    e1 = Exists("x", Pred("p", (Var("x"),)))
    e2 = Exists("y", Pred("q", (Var("y"),)))
    c, d = Pred("c", (n,)), Pred("d", (n,))
    left, right = Or(e1, c), Or(e2, d)
    phi = [Or(left, right)]
    first = Or(left, Or(d, e2))
    second = Or(Or(c, e1), right)
    ctx = DeriveContext((), phi)
    for goal in (first, second):
        v = ctx.query(goal)
        assert v == DeriveContext((), phi).query(goal)
        assert [p.fresh for p in _exists_e(v.proof)] == ["_w1"]


def _exists_e(proof):
    if proof.rule == "exists_e":
        yield proof
    for p in proof.premises:
        yield from _exists_e(p)
