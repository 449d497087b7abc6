"""Existential blocks: each subassertion matched once per branch.

In a branch without equation hypotheses the matcher is syntactic, so
`_BranchProver._ematch_sub` keeps every binding it finds for a
subassertion and reads them again when the subassertion comes back.  An
instance opened in a block ``ex x1, ..., xk: B`` matches the subassertion
of B in its place (`_blocks`), with the witnesses opened since bound
(`opened`), instead of its own.  A matching it skips would register
nothing: such a branch builds no closure, and its witness universe is
fixed before the search.  Each test runs the engine twice, once as it is
and once with `_blocks` registering nothing, so that every instance matches
its own subassertions, and every candidate list, truncation flag, verdict
and proof must be the same.  A hit is an `_ematch_sub` call with witnesses
opened.  The universe tests check that a vacuous binder's witness is the
least term of X, the hypotheses and the goal, whatever ran before, and that
a shared context walks its root's hypotheses for it once, whatever the
number of queries.

CI also runs this file under three hash seeds.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from protassert import DeriveContext, SearchBudget, engine, parse_sequent, simulate
from protassert.assertions import (
    And,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    SentT,
    assertion_terms,
    map_terms,
    normalize,
    subassertions,
)
from protassert.builtins import builtin_foo, default_foo_setup
from protassert.engine import _BranchProver
from protassert.terms import AGENT, KEY, NONCE, App, Basic, Enc, Pair, Var, term_key

from test_candidates import _plain_subterms, _replace

# A occurs only under a hypothesis's binder.  The vacuous binder of the
# goal's right half takes the least term of the branch's universe, A, an
# agent, whether the level-2 instance's subassertion ex w: r((w, A), y),
# whose matching against the second hypothesis would compare A with a, is
# matched on its own or as its block's part.
VACUOUS_BESIDE_A_BLOCK = """\
agents: A
nonces: a, c, d
predicates: r/2, q/1
assertions:
ex z: r((z, A), c)
ex z: r((z, a), d)
q(c)
q(d)
goal: (ex x, y: ((ex w: r((w, x), y)) /\\ q(y))) /\\ (ex v: q(d))
"""


class _Unregistered(dict):
    """A `_blocks` that keeps no level, so that every instance matches its
    own subassertions."""

    def setdefault(self, key, default=None):
        return default


def _recorded(job, blocks: bool, monkeypatch, drawn: bool = False) -> tuple[list, int]:
    """Every `_candidates` call of job as (body, var, candidates,
    truncated) by repr, and job's own output, in order; and how many
    `_ematch_sub` calls had witnesses opened.  A call's list is whole,
    drained before the search reads it; with drawn, the search draws from
    the generator itself, which stops at the first witness that works, and
    the call lists the candidates it drew."""
    calls: list = []
    hits = [0]
    candidates, ematch, init = (_BranchProver._candidates, _BranchProver._ematch_sub,
                                _BranchProver.__init__)

    def recording(self, var, body):
        if drawn:
            got: list = []
            calls.append((repr(body), var, got))
            return _tapped(candidates(self, var, body), got)
        got = list(candidates(self, var, body))
        calls.append((repr(body), var, [repr(t) for t in got], self.query.truncated))
        return got

    def counting(self, sub, var, opened=()):
        hits[0] += bool(opened)
        return ematch(self, sub, var, opened)

    def starting(self, *args):
        init(self, *args)
        if not blocks:
            self._blocks = _Unregistered()

    with monkeypatch.context() as mp:
        mp.setattr(_BranchProver, "_candidates", recording)
        mp.setattr(_BranchProver, "_ematch_sub", counting)
        mp.setattr(_BranchProver, "__init__", starting)
        job(calls)
    return calls, hits[0]


def _tapped(candidates, got: list):
    for t in candidates:
        got.append(repr(t))
        yield t


def _same_with_and_without(job, monkeypatch) -> int:
    """The `_ematch_sub` calls with witnesses opened in job, drained and
    drawn, each run's lists the same as without them."""
    total = 0
    for drawn in (False, True):
        got, hits = _recorded(job, True, monkeypatch, drawn)
        want, none = _recorded(job, False, monkeypatch, drawn)
        assert none == 0 and len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"entry {i} differs ({'drawn' if drawn else 'drained'})"
        total += hits
    return total


def test_a_vacuous_binder_takes_a_binder_body_term_whatever_matchings_ran(monkeypatch):
    seq = parse_sequent(VACUOUS_BESIDE_A_BLOCK)

    def job(out):
        ctx = DeriveContext(seq.terms, seq.assertions, safe=True)
        v = ctx.query(seq.goal)
        out.append(repr(v))
        vacuous = v.proof.premises[1]
        out.append(vacuous.witness)
        out.append(ctx.cc)

    for blocks in (True, False):
        got, hits = _recorded(job, blocks, monkeypatch, drawn=True)
        assert (hits >= 1) is blocks
        assert got[-2:] == [Basic("A", AGENT), None]
    assert _same_with_and_without(job, monkeypatch) >= 1


def test_foo_blocks_are_matched_once(monkeypatch):
    foo = builtin_foo()

    def job(out):
        for voters in (2, 3):
            for seed in range(3):
                run, state = simulate(foo, default_foo_setup(foo, voters), seed=seed)
                out.append((run.complete, tuple(run.steps), tuple(state.warnings)))

    assert _same_with_and_without(job, monkeypatch) > 50


class _Blocks:
    """Random hypotheses, some under a binder of their own, and goals with two or three binders over a hypothesis or a fresh
    assertion, some with a vacuous binder beside them."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.agents = [Basic(f"A{i}", AGENT) for i in range(2)]
        self.basics = self.agents + [Basic(f"n{i}", NONCE) for i in range(4)]
        self.keys = [Basic(f"k{i}", KEY) for i in range(2)] + [App("sk", (self.agents[0],))]

    def term(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return r.choice(self.basics + self.keys[:2])
        roll = r.random()
        if roll < 0.5:
            return Pair(self.term(depth - 1), self.term(depth - 1))
        if roll < 0.85:
            return Enc(self.term(depth - 1), r.choice(self.keys))
        return App("g", (self.term(depth - 1),))

    def atom(self):
        r = self.rng
        roll = r.random()
        if roll < 0.45:
            return Pred("p", (self.term(2), self.term(1)))
        if roll < 0.75:
            return Pred("q", (self.term(2),))
        return SentT(r.choice(self.agents), self.term(2))

    def assertion(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            return self.atom()
        roll = r.random()
        if roll < 0.45:
            return And(self.assertion(depth - 1), self.assertion(depth - 1))
        if roll < 0.75:
            return Says(r.choice(self.agents), self.assertion(depth - 1))
        return self.abstract(self.assertion(depth - 1), ["z"])

    def abstract(self, a, names):
        """ex names: a, each name standing for one subterm of a."""
        subs = sorted({s for t in _terms(a) for s in _plain_subterms(t)}, key=term_key)
        picked = self.rng.sample(subs, min(len(names), len(subs)))
        for name, target in zip(names, picked):
            a = map_terms(a, lambda t, old=target, new=Var(name): _replace(t, old, new))
        for name in reversed(names):
            a = Exists(name, a)
        return normalize(a)

    def context(self):
        """X and the hypotheses; one context in four has an equation,
        where every instance matches its own subassertions."""
        hyps = [self.assertion(2) for _ in range(self.rng.randint(2, 6))]
        if self.rng.random() < 0.25:
            hyps.append(Eq(self.term(1), self.term(2)))
        X = frozenset(self.term(2) for _ in range(self.rng.randint(0, 3)))
        return X, hyps

    def goal(self, hyps):
        r = self.rng
        a = r.choice(hyps) if r.random() < 0.7 else self.assertion(2)
        if r.random() < 0.3:
            a = And(a, r.choice(hyps))
        goal = self.abstract(a, ["x", "y", "z"][:r.randint(2, 3)])
        if r.random() < 0.25:
            goal = And(goal, Exists("v", r.choice(hyps)))
        return normalize(goal)


def _terms(a):
    if isinstance(a, And):
        return _terms(a.left) + _terms(a.right)
    if isinstance(a, (Says, Exists)):
        return _terms(a.body)
    if isinstance(a, SentT):
        return [a.term]
    return [a.lhs, a.rhs] if isinstance(a, Eq) else list(a.args)


@pytest.mark.parametrize("safe", [True, False])
def test_random_blocks_draw_as_matching_every_instance(safe, monkeypatch):
    gen = _Blocks(random.Random(2007 + safe))
    cases = []
    for _ in range(120):
        X, hyps = gen.context()
        cases.append((X, hyps, [gen.goal(hyps) for _ in range(3)]))
    capped = SearchBudget(candidate_cap=2)

    def job(out):
        for X, hyps, goals in cases:
            for budget in (SearchBudget(), capped):
                ctx = DeriveContext(X, hyps, budget, safe=safe)
                for goal in goals:
                    v = ctx.query(goal)
                    out.append(("query", repr(goal), repr(v)))

    assert _same_with_and_without(job, monkeypatch) > 100


def test_an_equation_part_binds_on_every_instance(monkeypatch):
    # an equation has no hypothesis of its kind in such a branch: its other
    # side binds on every instance, after the block's parts are matched
    n0, n1 = Basic("n0", NONCE), Basic("n1", NONCE)
    hyps = [Pred("p", (Pair(n0, n1),)), Pred("p", (Pair(n1, n1),))]
    goal = normalize(Exists("x", Exists("y", And(Pred("p", (Pair(Var("x"), Var("y")),)),
                                                 Eq(Var("y"), n0)))))

    def job(out):
        out.append(repr(DeriveContext({n0, n1}, hyps, safe=True).query(goal)))

    got, hits = _recorded(job, True, monkeypatch)
    assert hits == 4  # the conjunction and p((x, y)), on x = n0 and on x = n1
    assert [c[2] for c in got[1:3]] == [[repr(n1), repr(n0)]] * 2
    assert got[-1] == repr(DeriveContext({n0, n1}, hyps, safe=True).query(goal))
    assert "derivable=False" in got[-1]
    assert _same_with_and_without(job, monkeypatch) == 2 * hits


def test_a_subassertion_two_goals_share_is_matched_once(monkeypatch):
    # p(x, b) is a part of both halves' bodies: in one equation-free branch
    # it is matched against the hypotheses once, and read again by the second
    a, b = Basic("a", NONCE), Basic("b", NONCE)
    hyps = [Pred("p", (a, b)), Pred("q", (a,)), Pred("r", (a,))]
    shared = Pred("p", (Var("x"), b))
    goal = normalize(And(Exists("x", And(shared, Pred("q", (Var("x"),)))),
                         Exists("x", And(shared, Pred("r", (Var("x"),))))))
    pattern = engine.canonical(normalize(Exists("x", shared)).body)[0]
    asked, matched = Counter(), Counter()
    ematch, match = _BranchProver._ematch_sub, engine.match_canonical

    def counting(self, sub, var, opened=()):
        asked[engine.canonical(sub)[0]] += 1
        return ematch(self, sub, var, opened)

    def matching(pat, tgt, *args):
        matched[pat] += 1
        return match(pat, tgt, *args)

    monkeypatch.setattr(_BranchProver, "_ematch_sub", counting)
    monkeypatch.setattr(engine, "match_canonical", matching)
    for safe in (True, False):
        asked.clear(), matched.clear()
        ctx = DeriveContext({a, b}, hyps, safe=safe)
        v = ctx.query(goal)
        assert v.derivable and ctx.cc is None
        assert asked[pattern] == 2 and matched[pattern] == 1


def _closed_subterms(terms) -> set:
    """Every subterm of terms that mentions no variable, walked here rather
    than by the package's walkers."""
    out = set()

    def walk(t) -> bool:
        kids = ((t.left, t.right) if isinstance(t, Pair) else (t.body, t.key)
                if isinstance(t, Enc) else t.args if isinstance(t, App) else ())
        closed = all([walk(k) for k in kids]) and not isinstance(t, Var)
        if closed:
            out.add(t)
        return closed

    for t in terms:
        walk(t)
    return out


def _all_terms(a, binders: bool = True) -> list:
    """Every term position of a, agents included, and with binders those
    under a binder too."""
    if isinstance(a, (And, Or)):
        return _all_terms(a.left, binders) + _all_terms(a.right, binders)
    if isinstance(a, Exists):
        return _all_terms(a.body, binders) if binders else []
    if isinstance(a, Says):
        return [a.agent] + _all_terms(a.body, binders)
    if isinstance(a, SentT):
        return [a.agent, a.term]
    return [a.lhs, a.rhs] if isinstance(a, Eq) else list(a.args)


def _exists_i_witness(proof, goal):
    """The witness of the exists_i step that proves goal in proof, or None."""
    if proof.rule == "exists_i" and proof.concl == goal:
        return proof.witness
    return next((w for p in proof.premises
                 if (w := _exists_i_witness(p, goal)) is not None), None)


@pytest.mark.parametrize("safe", [True, False])
def test_a_vacuous_binder_reads_a_universe_fixed_before_the_search(safe):
    # the goal (ex v: h) \/ a, h a hypothesis: v takes the least term of X,
    # the hypotheses (binder bodies included) and the goal, on a fresh
    # context and on one that answered other goals first; with none, the
    # variable _w0 in safe mode.  An equation-free safe context builds no
    # closure.
    gen = _Blocks(random.Random(2701 + safe))
    checked = in_goal = in_body = 0  # cases where want is in the goal, or a binder body, alone
    for _ in range(150):
        X, hyps = gen.context()
        atom, least = gen.atom(), Basic("A", AGENT)  # least: below every basic of gen
        where = gen.rng.choice(["goal", "body", None])
        if where == "body":
            hyps.append(normalize(Exists("z", Pred("p", (Var("z"), least)))))
        goal = normalize(Or(Exists("v", gen.rng.choice(hyps)), Pred("q", (least,))
                            if where == "goal" else atom))
        universe = _closed_subterms([*X, *(t for a in (*hyps, goal) for t in _all_terms(a))])
        if not universe and not safe:
            continue
        want = min(universe, key=term_key) if universe else Var("_w0")
        shared = DeriveContext(X, hyps, safe=safe)
        for other in (gen.goal(hyps), gen.goal(hyps)):
            shared.query(other)
        for ctx in (DeriveContext(X, hyps, safe=safe), shared):
            v = ctx.query(goal)
            got = _exists_i_witness(v.proof, goal.left) if v.derivable else None
            if got is not None:  # else a clash of basics proves the goal
                assert got == want, (X, hyps, goal)
                checked += 1
            if safe and not any(isinstance(a, Eq) for a in hyps):
                assert ctx.cc is None
        in_hyps = _closed_subterms([*X, *(t for a in hyps for t in _all_terms(a))])
        in_goal += want not in in_hyps
        in_body += want not in _closed_subterms([*X, *(t for a in (*hyps, goal)
                                                          for t in _all_terms(a, False))])
    assert checked > 200 and in_goal > 20 and in_body > 20


@pytest.mark.parametrize("safe", [True, False])
def test_a_shared_context_walks_its_hypotheses_once(safe, monkeypatch):
    # every query reads the universe for its vacuous binder, but only the
    # first walks the root's hypotheses; each walks its own goal's terms
    hyps = [Pred("p", (Pair(Basic(f"a{i}", NONCE), Basic(f"k{i}", NONCE)),)) for i in range(6)]
    anchors = [Basic(f"b{j}", NONCE) for j in range(20)]
    walked: Counter = Counter()
    real = engine.iter_subterms

    def counting(t):
        walked[t] += 1
        return real(t)

    monkeypatch.setattr(engine, "iter_subterms", counting)
    ctx = DeriveContext((), hyps, safe=safe)
    for b in anchors:
        assert not ctx.query(Exists("v", Pred("q", (b,)))).derivable
    assert all(walked[b] == 1 for b in anchors)
    want = Counter(t for h in hyps for t in assertion_terms(h))
    assert {t: walked[t] for t in want} == want

