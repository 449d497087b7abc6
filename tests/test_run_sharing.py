"""What a run builds once for all its steps, against building it afresh.

A run's steps share four things: the classes of the run's public terms,
which every term set's classes start from; the context an insert of inert
facts is checked on, which is the one before the insert; each receive
pattern's bindings, which a state hands to its copies; and each action
instance, memoized on its role action.  The live runs over one public term
set share a fifth, their table of contexts, which a replay and a swapped
run answer from.  Each test here compares one of them with what a fresh
build gives.  The last ones pin the rewrite matcher, which an equation-free
branch skips until its classes are built.

CI also runs this file under three hash seeds: hash-consed terms hash by
identity, so set iteration follows allocation.
"""
from __future__ import annotations

import gc
import random
from dataclasses import replace

from oracles import random_term, subterms_of, term_pool

from protassert import anonymity, engine, protocol, runtime
from protassert.assertions import (
    SYNTACTIC,
    And,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    SentT,
    assertion_terms,
    map_terms,
    match_canonical,
    match_term,
    normalize,
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
from protassert.dy import DYContext
from protassert.engine import DeriveContext, _BranchProver, _kind, _Query
from protassert.runtime import ContextTable, parse_trace, simulate, validate_run, write_trace
from protassert.terms import (
    AGENT,
    KEY,
    NONCE,
    App,
    Basic,
    Enc,
    Pair,
    Var,
    iter_subterms,
    replace_term,
)


def _no_enc(t) -> bool:
    return not any(isinstance(s, Enc) for s in iter_subterms(t))


def _fields(cc: engine.EqClasses) -> dict:
    return {k: v for k, v in vars(cc).items() if k not in ("dyctx", "_pending")}


def test_seeded_classes_equal_a_fresh_build():
    """X's classes started from the public terms' equal X's classes built
    from nothing, dict by dict, and only a set holding every public term
    starts from them."""
    rng = random.Random(2501)
    seeded = 0
    for _ in range(400):
        pool = term_pool(rng)
        plain = [t for t in (random_term(rng, pool, 2) for _ in range(6)) if _no_enc(t)]
        public = frozenset(rng.sample(pool + plain, rng.randint(0, 6)) if rng.random() < 0.9
                           else ()) - {t for t in pool if not _no_enc(t)}
        X = frozenset(random_term(rng, pool, rng.randint(0, 3)) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.75:
            X |= public
        table = ContextTable(public)
        dyctx = table.dy(X)
        assert (dyctx.seed is not None) == (public <= X)
        seeded += dyctx.seed is not None and bool(X - public)
        got, want = engine._x_classes(dyctx), engine._x_classes(DYContext(X))
        assert got.dyctx is dyctx and got.trail == []
        assert _fields(got) == _fields(want), (sorted(public, key=repr), sorted(X, key=repr))
        # a second set over the same seed copies it again, and the seed stays as built
        assert _fields(engine._x_classes(table.dy(X | public | {Basic("z", NONCE)}))) == \
            _fields(engine._x_classes(DYContext(X | public | {Basic("z", NONCE)})))
        assert _fields(engine._x_classes(table._public)) == _fields(
            engine._x_classes(DYContext(public)))
    assert seeded > 150


# ---------------------------------------------------------------------------
# the insert check

class _Theories:
    """Random theories over a few basics, with equations, disjunctions,
    existentials and says, so that some are inconsistent in every case."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.agents = [Basic(f"A{i}", AGENT) for i in range(2)]
        self.basics = self.agents + [Basic(f"n{i}", NONCE) for i in range(3)]
        self.keys = [Basic("k0", KEY), App("sk", (self.agents[0],))]

    def term(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.5:
            return r.choice(self.basics)
        roll = r.random()
        if roll < 0.5:
            return Pair(self.term(depth - 1), self.term(depth - 1))
        if roll < 0.8:
            return Enc(self.term(depth - 1), r.choice(self.keys))
        return App("g", (self.term(depth - 1),))

    def atom(self):
        r = self.rng
        roll = r.random()
        if roll < 0.4:
            return Eq(self.term(1), self.term(1))
        if roll < 0.8:
            return Pred(r.choice(("p", "q")), (self.term(1),))
        return SentT(r.choice(self.agents), self.term(1))

    def assertion(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            return self.atom()
        roll = r.random()
        if roll < 0.35:
            return Or(self.assertion(depth - 1), self.assertion(depth - 1))
        if roll < 0.6:
            return And(self.assertion(depth - 1), self.assertion(depth - 1))
        if roll < 0.85:
            body = self.assertion(depth - 1)
            terms = sorted({s for t in assertion_terms(body) for s in iter_subterms(t)
                            if isinstance(s, Basic) and s.sort != KEY}, key=repr)
            if not terms:
                return body
            x = r.choice(terms)
            return normalize(Exists("x", _swap(body, x, Var("x"))))
        return Says(r.choice(self.agents), self.assertion(depth - 1))

    def theory(self):
        X = frozenset(self.term(2) for _ in range(self.rng.randint(1, 4)))
        return X, frozenset(normalize(self.assertion(2))
                            for _ in range(self.rng.randint(1, 4)))


def _swap(a, old, new):
    return map_terms(a, lambda t: replace_term(t, {old: new}))


def _asked(table: ContextTable) -> list:
    return [assertions for _, assertions, _, _ in table._contexts]


def test_an_inert_insert_answers_as_a_fresh_check_on_the_context_before_it():
    rng = random.Random(2502)
    gen = _Theories(rng)
    told = {"inert": 0, "eq": 0, "new": 0, "mixed": 0}
    verdicts = set()
    for _ in range(300):
        X, phi = gen.theory()
        known = sorted(subterms_of(X), key=repr)
        inert = [Pred("p", (rng.choice(known),)), SentT(rng.choice(known), rng.choice(known))]
        new_term = App("fresh", (rng.choice(known),))
        cases = [("inert", [rng.choice(inert)]),
                 ("inert", inert),
                 ("eq", [Eq(rng.choice(known), rng.choice(known))]),
                 ("new", [Pred("p", (new_term,))]),
                 ("mixed", [inert[0], Eq(rng.choice(known), rng.choice(known))])]
        for kind, added in cases:
            if any(a in phi for a in added):
                continue
            after = phi | frozenset(added)
            table = ContextTable()
            want = ContextTable().inconsistent(X, after)
            assert table.inconsistent(X, after, phi) is want, (kind, X, phi, added)
            # the shortcut asks the context over phi, and only for inert facts
            assert _asked(table) == [phi if kind == "inert" else after], kind
            told[kind] += 1
            verdicts.add(want)
    assert verdicts == {True, False}
    assert min(told.values()) > 100, told


def test_the_insert_check_reuses_the_deny_context(monkeypatch):
    """foo's voter denies, then inserts facts over its own terms: the
    insert's check builds no context of its own."""
    built = []
    real_init, real_check = DeriveContext.__init__, ContextTable.inconsistent

    def counted(self, X, Phi, *args, **kwargs):
        built.append(self)
        real_init(self, X, Phi, *args, **kwargs)

    new = []

    def inconsistent(self, terms, assertions, before=None):
        n = len(built)
        answer = real_check(self, terms, assertions, before)
        new.append(len(built) - n)
        return answer

    monkeypatch.setattr(DeriveContext, "__init__", counted)
    monkeypatch.setattr(ContextTable, "inconsistent", inconsistent)
    foo = builtin_foo()
    for voters in (2, 3):
        run, _ = simulate(foo, default_foo_setup(foo, voters), seed=0)
        assert run.complete
    assert len(new) == 5 and new == [0] * 5


# ---------------------------------------------------------------------------
# receive bindings

def _rematch(pat, traffic) -> list:
    """Every message matched against pat from the first, as the bindings
    were found before states carried them."""
    holes = pat.used_vars()
    out: dict = {}
    for tr in traffic:
        found = match_term(pat.term, tr.term, holes, {}, SYNTACTIC)
        if found and pat.assertion is not None:
            found = [] if tr.assertion is None else match_canonical(
                pat.assertion, tr.assertion, holes, found[0], SYNTACTIC)
        if found:
            out[tuple(sorted(found[0].items()))] = None
    return list(out)


def test_carried_bindings_equal_a_full_rematch_at_every_state(monkeypatch):
    real = runtime.enabled_actions
    states = [0]
    carried = [0]

    def checked(state, budget=runtime.DEFAULT_BUDGET):
        out = real(state, budget)
        states[0] += 1
        for pat, (seen, found) in state.matches.items():
            assert seen <= len(state.traffic)
            assert list(found) == _rematch(pat, state.traffic[:seen])
        for sess in state.sessions:
            actions = state.proto.roles[sess.role].actions
            if sess.pc < len(actions) and actions[sess.pc].kind == "recv":
                pat = actions[sess.pc].instance(sess.sigma)
                assert state.matches[pat][0] == len(state.traffic)
                carried[0] += 0 < len(state.traffic)
        return out

    monkeypatch.setattr(runtime, "enabled_actions", checked)
    foo, helios = builtin_foo(), builtin_helios()
    for proto, setup in ((foo, default_foo_setup(foo, 2)), (foo, default_foo_setup(foo, 3)),
                         (helios, default_helios_setup(helios))):
        for seed in range(5):
            run, _ = simulate(proto, setup, seed=seed)
            assert run.complete
    assert states[0] > 300 and carried[0] > 300, (states, carried)


def test_a_copied_state_keeps_its_parent_bindings_apart():
    foo = builtin_foo()
    run, _ = simulate(foo, default_foo_setup(foo, 2), seed=1)
    state = runtime.initial_state(foo, run.setup)
    for step in run.steps:
        before = {pat: (seen, dict(found)) for pat, (seen, found) in state.matches.items()}
        child = runtime._copy_state(state)
        runtime.apply_candidate(child, step)
        runtime.enabled_actions(child)
        assert {pat: (seen, dict(found))
                for pat, (seen, found) in state.matches.items()} == before
        state = child


# ---------------------------------------------------------------------------
# action instances

def test_one_instance_per_role_action_and_images(monkeypatch):
    foo = builtin_foo()
    calls = [0]
    real = protocol.action_subst

    def counted(act, sigma):
        calls[0] += 1
        return real(act, sigma)

    monkeypatch.setattr(protocol, "action_subst", counted)
    setup = default_foo_setup(foo, 2)
    run, _ = simulate(foo, setup, seed=2)
    made = calls[0]
    assert made > 0
    # a replay of the live run instantiates nothing again
    again = parse_trace(write_trace(run), foo, setup)
    assert validate_run(again)[0]
    assert calls[0] == made
    assert all(a.action is b.action for a, b in zip(again.steps, run.steps))
    state = runtime.initial_state(foo, setup)
    for step in run.steps:
        sess = state.sessions[step.session - 1]
        act = foo.roles[sess.role].actions[sess.pc]
        sigma = {**sess.sigma, **dict(step.fresh), **dict(step.binds)}
        inst = act.instance(sigma)
        assert inst is step.action and inst == real(act, sigma)
        # only the images of the action's variables key it
        assert act.instance({**sigma, "unused": Basic("n9", NONCE)}) is inst
        runtime.apply_candidate(state, step)


def test_an_instance_entry_goes_with_the_run():
    foo = builtin_foo()
    roles = list(foo.roles.values())

    def entries() -> int:
        return sum(len(act._instances[1]) for role in roles for act in role.actions)

    def one_run() -> int:
        run, state = simulate(foo, default_foo_setup(foo, 2), seed=3)
        assert run.complete
        return entries()

    gc.collect()
    start = entries()
    assert one_run() > start
    gc.collect()
    assert entries() == start


# ---------------------------------------------------------------------------
# the table of the live runs over one public term set

def _replay(text: str, proto, setup) -> tuple:
    ok, problems, state = validate_run(parse_trace(text, proto, setup))
    return ok, problems, state.warnings, state.knowledge


def test_a_replay_of_a_live_run_builds_no_context(monkeypatch):
    built = []
    real_dy, real_derive = DYContext.__init__, DeriveContext.__init__

    def dy_init(self, X):
        built.append(self)
        real_dy(self, X)

    def derive_init(self, X, Phi, *args, **kwargs):
        built.append(self)
        real_derive(self, X, Phi, *args, **kwargs)

    monkeypatch.setattr(DYContext, "__init__", dy_init)
    monkeypatch.setattr(DeriveContext, "__init__", derive_init)
    foo = builtin_foo()
    setup = default_foo_setup(foo, 3)
    run, state = simulate(foo, setup, seed=0)
    assert run.complete and built
    text = write_trace(run)
    built.clear()
    shared = _replay(text, foo, setup)
    assert shared[0] and built == []
    del run, state
    fresh = _replay(text, foo, setup)
    assert built and fresh == shared


def test_a_dropped_run_leaves_no_table_to_the_collector():
    foo = builtin_foo()
    gc.collect()
    gc.disable()
    try:
        before = len(runtime._TABLES)
        for seed in range(3):
            run, state = simulate(foo, default_foo_setup(foo, 2), seed=seed)
            assert run.complete and len(runtime._TABLES) == before + 1
            del run, state
            assert len(runtime._TABLES) == before
    finally:
        gc.enable()


def test_a_live_run_leaves_the_anonymity_reports_as_they_are():
    for proto, seeds in ((builtin_foo(), range(3)), (builtin_foo_linked(), range(5))):
        setup = anonymity_foo_setup(proto, 2)

        def reports() -> list:
            return [anonymity.check_anonymity(proto, setup, seed=s) for s in seeds]

        alone = reports()
        live = [simulate(proto, setup, seed=s) for s in seeds]
        assert all(run.contexts is live[0][0].contexts for run, _ in live)
        assert reports() == alone


def test_the_cached_hashes_are_the_dataclass_hashes():
    foo = builtin_foo()
    for role in foo.roles.values():
        for a in role.actions:
            assert hash(a) == hash((a.kind, a.agent, a.fresh, a.term, a.assertion, a.phase))
            assert hash(a) == hash(replace(a)) and a == replace(a)
    b = engine.SearchBudget(branch_cap=7)
    assert hash(b) == hash((2, 7, 100_000, 200_000, 128)) == hash(engine.SearchBudget(branch_cap=7))


# ---------------------------------------------------------------------------
# the rewrite matcher in equation-free branches

def _equation_free(rng: random.Random):
    gen = _Theories(rng)
    X, phi = gen.theory()
    phi = frozenset(a for a in phi if not any(isinstance(s, Eq) for s in subassertions(a)))
    goals = list(phi) + [normalize(gen.assertion(1)) for _ in range(4)]
    goals += [s for a in phi for s in subassertions(a)]
    return X, phi, goals


def test_an_equation_free_matcher_proves_only_a_hypothesis():
    """With one term per class the rewrite matcher finds rewrites from a
    hypothesis only to that hypothesis itself, on the closure path too."""
    rng = random.Random(2503)
    tried = 0
    for _ in range(200):
        X, phi, goals = _equation_free(rng)
        for safe in (False, True):
            ctx = DeriveContext(X, phi, safe=safe)
            node = ctx.root
            for forced in (False, True):
                if forced:
                    node.singletons = False
                assert node.singletons is not forced
                prover = _BranchProver(node, _Query(ctx))
                for goal in goals:
                    for hyp in node.by_kind.get(_kind(goal), ()):
                        pairs = prover.rewrites(hyp, goal)
                        assert (pairs is not None) == (hyp is goal), (hyp, goal)
                        tried += 1
                ctx._rewind()
    assert tried > 1000


def test_a_vacuous_binder_takes_the_least_term_of_the_goal_and_hypotheses():
    """The vacuous binder x of the goal ex x, y: p(<y, m>) takes the least
    term of the branch's universe, m, which the goal and the second
    hypothesis hold; that matching the goal against ex x, y: p(<y, n>)
    fails is no part of it."""
    n, m = Basic("n", NONCE), Basic("m", NONCE)
    h1 = Exists("x", Exists("y", Pred("p", (Pair(Var("y"), n),))))
    h2 = Exists("y", Pred("p", (Pair(Var("y"), m),)))
    goal = Exists("x", Exists("y", Pred("p", (Pair(Var("y"), m),))))
    v = DeriveContext((), [h1, h2], safe=True).query(goal)
    assert v.derivable and v.proof.rule == "exists_i" and v.proof.witness == m


def test_a_branch_with_an_equation_still_proves_by_matching():
    a, gb = Basic("a", NONCE), App("g", (Basic("b", NONCE),))
    for safe in (False, True):
        v = DeriveContext((a, gb), [Pred("p", (a,)), Eq(a, gb)], safe=safe).query(Pred("p", (gb,)))
        assert v.derivable and v.proof.rule == "subst"
