"""The records a query or a run builds by the thousand, and the per-object
caches around them.

Proof nodes, term proofs, verdicts, forest edges, steps and knowledge
are slotted dataclasses that are not frozen: they keep value
equality, a value hash and `dataclasses.replace`, and carry no instance
dict.  Terms and assertions stay frozen and interned.  The engine's cached
properties are `terms.cached`, which stores on first read as
`functools.cached_property` does, without its lock.  A run's knowledge
sets hold normal forms, each its own cached `normalize`, so a context over
one keeps them as they are.

CI also runs this file under three hash seeds.
"""
from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from protassert import engine
from protassert.assertions import Eq, Exists, Pred, normalize, rebind
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.dy import ProofNode, TermProof
from protassert.engine import DeriveContext, Verdict, _Edge
from protassert.protocol import Action
from protassert.runtime import Knowledge, Step, simulate, validate_run
from protassert.terms import Basic, Pair, Var, cached

A = Basic("A", "agent")
n, m = Basic("n", "nonce"), Basic("m", "nonce")


def _samples():
    """Two equal, separately built values of each record, and an unequal one."""
    tp = lambda: TermProof("pair", Pair(n, m), (TermProof("ax", n), TermProof("ax", m)))
    pn = lambda: ProofNode("exists_i", Exists("%1", Pred("p", (Var("%1"),))),
                           (ProofNode("ax", Pred("p", (n,))),), witness=n)
    send = Action("send", A, (), Pair(n, m), None)
    yield tp(), tp(), TermProof("ax", n)
    yield pn(), pn(), ProofNode("ax", Pred("p", (n,)))
    yield Verdict(True, pn()), Verdict(True, pn()), Verdict(False, budget_exhausted=True)
    yield (_Edge(1, "hyp", n, m, (Eq(n, m),)), _Edge(1, "hyp", n, m, (Eq(n, m),)),
           _Edge(2, "hyp", n, m, (Eq(n, m),)))
    yield (Step(1, send, (("x", n),)), Step(1, send, (("x", n),)), Step(2, send, (("x", n),)))
    yield (Knowledge(frozenset({n}), frozenset({Pred("p", (n,))})),
           Knowledge(frozenset({n}), frozenset({Pred("p", (n,))})), Knowledge())


@pytest.mark.parametrize("a, b, other", list(_samples()),
                         ids=lambda x: type(x).__name__)
def test_records_are_slotted_values(a, b, other):
    cls = type(a)
    assert dataclasses.is_dataclass(cls) and "__slots__" in vars(cls)
    assert not cls.__dataclass_params__.frozen
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and {a: 1}[b] == 1 and len({a, b, other}) == 2
    fields = dataclasses.fields(cls)
    assert hash(a) == hash(tuple(getattr(a, f.name) for f in fields))
    copy = replace(a)
    assert copy == a and copy is not a and hash(copy) == hash(a)
    assert replace(a, **{f.name: getattr(other, f.name) for f in fields}) == other
    assert repr(a) == repr(b)


def test_terms_and_assertions_stay_frozen_and_interned():
    for obj in (Pair(n, m), Pred("p", (n,)), Exists("%1", Eq(Var("%1"), n))):
        assert type(obj).__dataclass_params__.frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
    assert Pair(n, m) is Pair(n, m)


def test_a_cached_property_is_computed_once_and_stored():
    calls = []

    class Holder:
        @cached
        def value(self):
            """the answer"""
            calls.append(self)
            return len(calls)

    h, g = Holder(), Holder()
    assert h.value == 1 and h.value == 1 and vars(h) == {"value": 1}
    assert g.value == 2 and calls == [h, g]
    assert Holder.value.__doc__ == "the answer" and Holder.value.func.__name__ == "value"
    assert not hasattr(Holder.value, "lock")  # functools' takes one on Python 3.11


def test_a_cached_property_that_raises_stores_nothing():
    class Holder:
        tries = 0

        @cached
        def value(self):
            type(self).tries += 1
            raise engine.BudgetExhausted()

    h = Holder()
    for _ in range(2):
        with pytest.raises(engine.BudgetExhausted):
            h.value
    assert Holder.tries == 2 and "value" not in vars(h)


def _runs():
    foo, helios = builtin_foo(), builtin_helios()
    for seed in range(3):
        yield simulate(foo, default_foo_setup(foo, 2), seed=seed)
        yield simulate(foo, default_foo_setup(foo, 3), seed=seed)
        yield simulate(helios, default_helios_setup(helios), seed=seed)


def test_a_runs_knowledge_holds_normal_forms():
    # a run's contexts keep its knowledge sets' assertions as they are
    checked = 0
    for run, state in _runs():
        _, _, replayed = validate_run(run)
        for st in (state, replayed):
            for know in st.knowledge.values():
                for a in know.assertions:
                    assert normalize(a) is a
                    checked += 1
            for ctx in st.contexts._contexts.values():
                assert ctx.Phi == frozenset(map(normalize, ctx.Phi))
    assert checked > 500


def test_a_context_over_normal_forms_answers_as_one_that_normalizes():
    foo = builtin_foo_linked()
    run, state = simulate(foo, anonymity_foo_setup(foo, 2), seed=1)
    know = state.knowledge["I"]
    assert all(normalize(a) is a for a in know.assertions)
    # the same assertions with binders named as a reader would name them
    renamed = [rebind(a, {}, lambda _old, depth: f"x{depth}") for a in know.assertions]
    assert any(a not in know.assertions for a in renamed)
    goals = sorted(know.assertions, key=repr)[:12]
    for safe in (False, True):
        kept = DeriveContext(know.terms, know.assertions, safe=safe)
        fresh = DeriveContext(know.terms, renamed, safe=safe)
        assert kept.Phi == know.assertions and fresh.Phi == kept.Phi
        for goal in goals:
            assert kept.query(goal) == fresh.query(goal)

