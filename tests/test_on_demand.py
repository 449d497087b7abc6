"""Work done on first need, and only then.

A knowledge set analyzes X the first time composition from X cannot answer
(`test_dy` holds its differential against the eager analysis).  A context
expands its root on its first search, and in safe mode answers a goal that
is one of its stated hypotheses by `ax`, with no root and no search.  An
existential's instance per witness term is made once (`opened`).  Each
test here checks that such an answer is the one the work would have given,
or that the work is done when, and only when, something reads it.

CI also runs this file under three hash seeds.
"""
from __future__ import annotations

import random

import pytest

from protassert import (
    And,
    Basic,
    DeriveContext,
    Enc,
    Exists,
    Or,
    Pred,
    SearchBudget,
    Var,
    Verdict,
    assertions,
    checker,
    dy,
    engine,
    parse_sequent,
)
from protassert.assertions import normalize, opened, substitute
from protassert.builtins import builtin_foo, default_foo_setup
from protassert.dy import ProofNode
from protassert.runtime import simulate
from test_golden_output import SEQUENTS
from test_weakening import _cases, _unrelated

n = Basic("n", "nonce")
k = Basic("k", "key")


def _stated():
    """(X, Phi) pairs, Phi normal and not empty: the golden sequents, and
    the weakening cases with unrelated facts added (disjunctions and
    existentials among them)."""
    for text in SEQUENTS.values():
        seq = parse_sequent(text)
        if seq.assertions:
            yield seq.terms, seq.assertions
    rng = random.Random(23)
    for X, Phi, goal, _ in _cases():
        more_X, more_Phi = _unrelated(rng, goal, 2, 4)
        yield X | more_X, frozenset(map(normalize, Phi | more_Phi))


def _searched(X, Phi, goal) -> Verdict:
    """The verdict a search of goal gives on a fresh safe context."""
    ctx = DeriveContext(X, Phi, safe=True)
    proof = engine._Query(ctx).solve(ctx.root, goal)
    return Verdict(proof is not None, proof)


def test_a_stated_hypothesis_is_answered_without_root_or_analysis():
    answered = 0
    for X, Phi in _stated():
        for h in sorted(Phi, key=repr):
            ctx = DeriveContext(X, Phi, safe=True)
            v = ctx.query(h)
            assert "root" not in vars(ctx) and ctx.dyctx.saturated is None, h
            assert v == _searched(X, Phi, h) == Verdict(True, ProofNode("ax", h)), h
            answered += 1
    assert answered > 100


def test_a_goal_that_is_no_hypothesis_is_searched():
    seq = parse_sequent(SEQUENTS["leak"])
    ctx = DeriveContext(seq.terms, seq.assertions, safe=True)
    assert "root" not in vars(ctx)
    ctx.query(seq.goal)
    assert "root" in vars(ctx)
    # a full-mode context opens its root's existentials, so it searches
    h = min(seq.assertions, key=repr)
    ctx = DeriveContext(seq.terms, seq.assertions)
    assert ctx.query(h).proof.rule == "exists_e" and "root" in vars(ctx)


def test_a_stated_hypothesis_stays_over_a_node_cap_of_zero():
    for X, Phi in _stated():
        h = min(Phi, key=repr)
        v = DeriveContext(X, Phi, SearchBudget(node_cap=0), safe=True).query(h)
        assert v == Verdict(False, budget_exhausted=True), h
        assert DeriveContext(X, Phi, SearchBudget(node_cap=1), safe=True).query(h).derivable


def test_a_stated_hypothesis_is_replayed(monkeypatch):
    replayed = []

    def refuse(proof, X, Phi, goal):
        replayed.append((proof, goal))
        return False, "refused"

    monkeypatch.setattr(engine, "REPLAY_CHECK", True)
    monkeypatch.setattr(checker, "replay_assertion_proof", refuse)
    seq = parse_sequent(SEQUENTS["leak"])
    h = min(seq.assertions, key=repr)
    with pytest.raises(AssertionError, match="proof replay failed: refused"):
        DeriveContext(seq.terms, seq.assertions, safe=True).query(h)
    assert replayed == [(ProofNode("ax", h), h)]


def test_the_first_query_names_split_witnesses_after_the_roots():
    # the root opens ex x on _w1 and stops at the disjunction; its left
    # case opens ex y, which must be _w2, or exists_e refuses the name
    inner = Exists("y", Pred("q", (Var("y"),)))
    phi = [Exists("x", And(Pred("p", (Var("x"),)), Or(inner, Pred("r", (n,)))))]
    goal = Or(Pred("r", (n,)), Exists("z", Pred("q", (Var("z"),))))
    v = DeriveContext((), phi).query(goal)
    assert v.derivable
    assert [p.fresh for p in _exists_e(v.proof)] == ["_w1", "_w2"]
    assert checker.replay_assertion_proof(v.proof, frozenset(), frozenset(map(normalize, phi)),
                                          normalize(goal)) == (True, None)


def _exists_e(proof):
    if proof.rule == "exists_e":
        yield proof
    for p in proof.premises:
        yield from _exists_e(p)


def test_an_instance_is_made_once_per_witness(monkeypatch):
    made = []
    real = assertions.substitute
    monkeypatch.setattr(assertions, "substitute",
                        lambda a, sigma: made.append(sigma) or real(a, sigma))
    psi = normalize(Exists("x", Pred("p", (Enc(n, Var("x")), Var("x")))))
    for u in (k, Var("w"), n):
        if u is n:  # a nonce in the key slot: refused, and never cached
            for _ in range(2):
                with pytest.raises(ValueError):
                    opened(psi, u)
            assert len(made) == 2
            continue
        first = opened(psi, u)
        assert opened(psi, u) is first
        assert first == substitute(psi.body, {psi.var: u})
        assert len(made) == 1
        made.clear()


def test_a_simulate_saturates_and_expands_on_first_need(monkeypatch):
    # the counts before analysis and roots were made on demand: 12
    # saturations (one per knowledge set) and 21 root expansions (one per
    # context) in this run; 12 root expansions before an insert of an inert
    # fact was checked on the context the deny before it built
    count = {"saturate": 0, "roots": 0}
    real_saturate, real_node = dy.dy_saturate, engine._Node.__init__

    def saturate(X):
        count["saturate"] += 1
        return real_saturate(X)

    def node(self, ctx, names, hyps, queue, parent=None):
        count["roots"] += parent is None
        real_node(self, ctx, names, hyps, queue, parent)

    monkeypatch.setattr(dy, "dy_saturate", saturate)
    monkeypatch.setattr(engine._Node, "__init__", node)
    foo = builtin_foo()
    run, _ = simulate(foo, default_foo_setup(foo, 2), seed=0)
    assert run.complete and len(run.steps) == 20
    assert count == {"saturate": 2, "roots": 11}
