"""Reference implementations the engine tests compare against.

Everything here is written for clarity over speed and shares no code with
the package: term closure is a round-based fixpoint over whole sets, the
composition check walks bottom up over a subterm list, and the assertion
oracle saturates equalities with plain pairwise passes.  Only small inputs
go through these.
"""
from __future__ import annotations

import itertools
import random

from protassert import (
    And,
    App,
    Assertion,
    Basic,
    Enc,
    Eq,
    Exists,
    Or,
    Pair,
    Pred,
    Says,
    SentA,
    SentT,
    Term,
    Var,
    normalize,
)


def subterms_of(terms) -> frozenset[Term]:
    """Every term occurring in the given terms, themselves included."""
    out: set[Term] = set()
    todo = list(terms)
    while todo:
        t = todo.pop()
        if t not in out:
            out.add(t)
            if isinstance(t, Pair):
                todo += [t.left, t.right]
            elif isinstance(t, Enc):
                todo += [t.body, t.key]
            elif isinstance(t, App):
                todo += list(t.args)
    return frozenset(out)


def inverse_key(k: Term) -> Term:
    if isinstance(k, App) and k.ctor == "sk":
        return App("vk", k.args)
    if isinstance(k, App) and k.ctor == "vk":
        return App("sk", k.args)
    return k  # basics and variables are their own inverse


def analyze(X) -> frozenset[Term]:
    """One-step-per-round closure under projection and decryption."""
    S = frozenset(X)
    while True:
        new = set(S)
        for t in S:
            if isinstance(t, Pair):
                new.add(t.left)
                new.add(t.right)
            elif isinstance(t, Enc):
                ik = inverse_key(t.key)
                if ik in S or isinstance(ik, Var):
                    new.add(t.body)
        if new == S:
            return S
        S = frozenset(new)


def composable(S: frozenset[Term], t: Term) -> bool:
    """Bottom-up composition over the subterm list of t."""
    ok: dict[Term, bool] = {}
    order = sorted(subterms_of([t]), key=lambda s: len(repr(s)))
    for u in order:
        if u in S or isinstance(u, Var):
            ok[u] = True
        elif isinstance(u, Pair):
            ok[u] = ok[u.left] and ok[u.right]
        elif isinstance(u, Enc):
            ok[u] = ok[u.body] and ok[u.key]
        elif isinstance(u, App) and u.ctor not in ("sk", "vk"):
            ok[u] = all(ok[a] for a in u.args)
        else:
            ok[u] = False
    return ok[t]


def oracle_dy(X, t: Term) -> bool:
    return composable(analyze(X), t)


# ---------------------------------------------------------------------------
# random instances

CTORS = (("h", 1), ("f", 2))


def term_pool(rng: random.Random) -> list[Term]:
    agents = [Basic(n, "agent") for n in ("A", "B", "C")]
    nonces = [Basic(n, "nonce") for n in ("n1", "n2", "n3", "n4")]
    keys = [Basic(n, "key") for n in ("k1", "k2")]
    skvk = [App(c, (a,)) for c in ("sk", "vk") for a in agents[:2]]
    return agents + nonces + keys + skvk


def random_term(rng: random.Random, pool: list[Term], depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(pool)
    shape = rng.random()
    if shape < 0.4:
        return Pair(random_term(rng, pool, depth - 1),
                    random_term(rng, pool, depth - 1))
    if shape < 0.8:
        keyish = [t for t in pool
                  if isinstance(t, (Basic, App)) and
                  (isinstance(t, App) or t.sort == "key")]
        return Enc(random_term(rng, pool, depth - 1), rng.choice(keyish))
    ctor, arity = rng.choice(CTORS)
    return App(ctor, tuple(random_term(rng, pool, depth - 1)
                           for _ in range(arity)))


def random_instance(rng: random.Random) -> tuple[frozenset[Term], Term]:
    """A knowledge set of at most 8 terms and a query of depth at most 3.
    Queries mix fresh terms, subterms of the set, and compositions so both
    verdicts come up often."""
    pool = term_pool(rng)
    X = frozenset(random_term(rng, pool, rng.randint(0, 3))
                  for _ in range(rng.randint(1, 8)))
    roll = rng.random()
    if roll < 0.45:
        q = random_term(rng, pool, 3)
    elif roll < 0.75:
        q = rng.choice(sorted(subterms_of(X), key=repr))
    else:
        parts = sorted(subterms_of(X), key=repr)
        q = Pair(rng.choice(parts), rng.choice(parts))
    return X, q


# ---------------------------------------------------------------------------
# assertion oracle (no quantifier; disjunctions by case analysis)


class Classes:
    """Equality classes by repeated pairwise passes, nothing clever."""

    def __init__(self, universe: set[Term], eqs: list[tuple[Term, Term]],
                 inv_known, basics_known) -> None:
        self.universe = set(universe)
        for s, t in eqs:
            self.universe |= subterms_of([s, t])
        self.inv_known = inv_known
        self.basics_known = basics_known
        self.rep: dict[Term, Term] = {t: t for t in self.universe}
        for s, t in eqs:
            self.union(s, t)
        self.saturate()

    def find(self, t: Term) -> Term:
        while self.rep[t] != t:
            t = self.rep[t]
        return t

    def union(self, s: Term, t: Term) -> None:
        rs, rt = self.find(s), self.find(t)
        if rs != rt:
            self.rep[rs] = rt

    def same(self, s: Term, t: Term) -> bool:
        return self.find(s) == self.find(t)

    def saturate(self) -> None:
        while True:
            before = {t: self.find(t) for t in self.universe}
            items = sorted(self.universe, key=repr)
            for s, t in itertools.combinations(items, 2):
                if self.same(s, t):
                    self.congruence_down(s, t)
                elif self.merged_children(s, t):
                    self.union(s, t)
            if {t: self.find(t) for t in self.universe} == before:
                return

    def congruence_down(self, s: Term, t: Term) -> None:
        # pairs are transparent, encryptions open only with both inverse
        # keys, constructor applications never split
        if isinstance(s, Pair) and isinstance(t, Pair):
            self.union(s.left, t.left)
            self.union(s.right, t.right)
        elif isinstance(s, Enc) and isinstance(t, Enc):
            if self.inv_known(s.key) and self.inv_known(t.key):
                self.union(s.body, t.body)
                self.union(s.key, t.key)

    def merged_children(self, s: Term, t: Term) -> bool:
        if isinstance(s, Pair) and isinstance(t, Pair):
            kids = [(s.left, t.left), (s.right, t.right)]
        elif isinstance(s, Enc) and isinstance(t, Enc):
            kids = [(s.body, t.body), (s.key, t.key)]
        elif (isinstance(s, App) and isinstance(t, App)
              and s.ctor == t.ctor and len(s.args) == len(t.args)):
            kids = list(zip(s.args, t.args))
        else:
            return False
        # equal positions need a provable reflexivity: a class mate to
        # bounce off, or every atom in the term being constructible
        for a, b in kids:
            if not self.same(a, b):
                return False
            if a == b and not self.refl_ok(a):
                return False
        return True

    def refl_ok(self, t: Term) -> bool:
        if any(u != t and self.same(u, t) for u in self.universe):
            return True
        return self.basics_known(t)

    def has_bottom(self) -> bool:
        for s, t in itertools.combinations(sorted(self.universe, key=repr), 2):
            if (isinstance(s, Basic) and isinstance(t, Basic)
                    and s != t and self.same(s, t)):
                return True
        return False


def flatten(a: Assertion) -> list[Assertion]:
    """Hypotheses reachable by splitting conjunctions and dropping the
    endorsement wrapper.  The wrapped statement stays available too."""
    out = [a]
    if isinstance(a, And):
        out += flatten(a.left) + flatten(a.right)
    elif isinstance(a, Says):
        out += flatten(a.body)
    return out


class AssertionOracle:
    """Closed goals over a context without disjunctions or quantifiers."""

    def __init__(self, X, Phi) -> None:
        self.X = frozenset(X)
        self.analyzed = analyze(self.X)
        self.hyps = {normalize(h) for a in Phi for h in flatten(normalize(a))}
        terms: set[Term] = set(subterms_of(self.X))
        for h in self.hyps:
            terms |= subterms_of(atom_terms(h))
        eqs = [(h.lhs, h.rhs) for h in self.hyps if isinstance(h, Eq)]
        self.cc = Classes(terms, eqs, self.inv_known, self.basics_known)
        self.bottom = self.cc.has_bottom()

    def inv_known(self, k: Term) -> bool:
        if isinstance(k, (Pair, Enc)):
            return False
        return composable(self.analyzed, inverse_key(k))

    def basics_known(self, t: Term) -> bool:
        return all(composable(self.analyzed, u) for u in subterms_of([t])
                   if isinstance(u, Basic))

    def holds(self, goal: Assertion) -> bool:
        goal = normalize(goal)
        for t in atom_terms(goal):
            for u in subterms_of([t]):
                if u not in self.cc.universe:
                    self.cc.universe.add(u)
                    self.cc.rep[u] = u
        self.cc.saturate()
        if self.bottom or self.cc.has_bottom():
            return True
        return self.prove(goal)

    def prove(self, goal: Assertion) -> bool:
        if goal in self.hyps:
            return True
        if isinstance(goal, And):
            return self.prove(goal.left) and self.prove(goal.right)
        if isinstance(goal, Or):
            return self.prove(goal.left) or self.prove(goal.right)
        if isinstance(goal, Eq):
            if goal.lhs == goal.rhs:
                # t = t needs a provable reflexivity, as in the congruence step
                return self.cc.refl_ok(goal.lhs)
            return self.cc.same(goal.lhs, goal.rhs)
        if isinstance(goal, (Pred, SentT, SentA)):
            return any(self.match(h, goal) for h in self.hyps)
        if isinstance(goal, Says):
            if any(self.match(h, goal) for h in self.hyps):
                return True
            return (composable(self.analyzed, App("sk", (goal.agent,)))
                    and self.prove(goal.body))
        return False

    def match(self, hyp: Assertion, goal: Assertion) -> bool:
        """Same shape, agents equal on the nose, other terms equal up to
        the classes."""
        if type(hyp) is not type(goal):
            return False
        if isinstance(hyp, Eq):
            return (self.cc.same(hyp.lhs, goal.lhs)
                    and self.cc.same(hyp.rhs, goal.rhs))
        if isinstance(hyp, Pred):
            return (hyp.name == goal.name and len(hyp.args) == len(goal.args)
                    and all(self.cc.same(a, b)
                            for a, b in zip(hyp.args, goal.args)))
        if isinstance(hyp, SentT):
            return hyp.agent == goal.agent and self.cc.same(hyp.term, goal.term)
        if isinstance(hyp, SentA):
            return hyp.agent == goal.agent and self.match(hyp.body, goal.body)
        if isinstance(hyp, Says):
            return hyp.agent == goal.agent and self.match(hyp.body, goal.body)
        if isinstance(hyp, And) or isinstance(hyp, Or):
            return (self.match(hyp.left, goal.left)
                    and self.match(hyp.right, goal.right))
        return False


def holds_in_every_case(X, Phi, goal: Assertion) -> bool:
    """Case analysis by brute force: the goal holds iff AssertionOracle
    holds it for every way of replacing each reachable disjunction by one of
    its sides.  Disjunctions are decided in a fixed order, each once."""
    hyps = {h for a in Phi for h in flatten(normalize(a))}
    return _holds_in_cases(X, hyps, frozenset(), goal)


def _holds_in_cases(X, hyps: set[Assertion], decided: frozenset[Assertion],
                    goal: Assertion) -> bool:
    undecided = sorted((h for h in hyps if isinstance(h, Or) and h not in decided),
                       key=repr)
    if not undecided:
        return AssertionOracle(X, hyps).holds(goal)
    first = undecided[0]
    return all(_holds_in_cases(X, hyps | set(flatten(side)), decided | {first}, goal)
               for side in (first.left, first.right))


def atom_terms(a: Assertion) -> list[Term]:
    if isinstance(a, Eq):
        return [a.lhs, a.rhs]
    if isinstance(a, Pred):
        return list(a.args)
    if isinstance(a, (And, Or)):
        return atom_terms(a.left) + atom_terms(a.right)
    if isinstance(a, Exists):
        return atom_terms(a.body)
    if isinstance(a, Says):
        return [a.agent] + atom_terms(a.body)
    if isinstance(a, SentT):
        return [a.agent, a.term]
    if isinstance(a, SentA):
        return [a.agent] + atom_terms(a.body)
    return []
