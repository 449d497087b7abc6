"""Reference implementations the engine tests compare against.

Everything here is written for clarity over speed and shares no code with
the package: term closure is a round-based fixpoint over whole sets, the
composition check walks bottom up over a subterm list, and the assertion
oracle saturates equalities with plain pairwise passes.  Only small inputs
go through these.  The one exception is at the end: the engine's former
witness-candidate generation, kept as it was to pin the current one to it.
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


# ---------------------------------------------------------------------------
# witness candidates as the engine first generated them
#
# Unlike the oracles above, this is the engine's own former code, kept
# verbatim so that the candidate lists of the current `_BranchProver` can be
# compared with it call by call: `_ematch_sub` matched a compound equation
# pattern once per member of the other side's class, re-matched equation
# hypotheses that the walk had covered, and `match_assertion` renamed every
# term under a binder with `subst_term`.

from protassert.assertions import (  # noqa: E402
    SYNTACTIC,
    _match_all,
    assertion_terms,
    assertion_vars,
    match_term,
    subassertions,
)
from protassert.engine import _kind  # noqa: E402
from protassert.terms import has_bound_name, iter_subterms, subst_term, term_key  # noqa: E402


def match_assertion(pat: Assertion, tgt: Assertion, holes,
                    binding: dict[str, Term], eq) -> list[dict[str, Term]]:
    """Every extension of binding under which pat equals tgt: terms modulo
    eq, agents syntactically.  Bound variables on both sides are renamed to
    shared tokens %b0, %b1, ... by depth, so binder structure must align and
    never leaks into a binding."""
    return _match_assertion(pat, tgt, holes, binding, eq, {}, {})


def _renamed(t: Term, env: dict[str, Term]) -> Term:
    return subst_term(t, env) if env else t


def _match_assertion(pat: Assertion, tgt: Assertion, holes, binding: dict[str, Term],
                     eq, env_p: dict[str, Term], env_t: dict[str, Term]) -> list[dict[str, Term]]:
    if isinstance(pat, Exists):
        if not isinstance(tgt, Exists):
            return []
        token = Var(f"%b{len(env_p)}")
        return _match_assertion(pat.body, tgt.body, holes, binding, eq,
                                {**env_p, pat.var: token}, {**env_t, tgt.var: token})
    if type(pat) is not type(tgt):
        return []
    if isinstance(pat, (And, Or)):
        return [b for prev in _match_assertion(pat.left, tgt.left, holes, binding, eq, env_p, env_t)
                for b in _match_assertion(pat.right, tgt.right, holes, prev, eq, env_p, env_t)]
    if isinstance(pat, (Says, SentA, SentT)):
        found = match_term(_renamed(pat.agent, env_p), _renamed(tgt.agent, env_t),
                           holes, binding, SYNTACTIC)
        if isinstance(pat, SentT):
            return [b for prev in found for b in match_term(
                _renamed(pat.term, env_p), _renamed(tgt.term, env_t), holes, prev, eq)]
        return [b for prev in found
                for b in _match_assertion(pat.body, tgt.body, holes, prev, eq, env_p, env_t)]
    if isinstance(pat, Pred) and (pat.name != tgt.name or len(pat.args) != len(tgt.args)):
        return []
    return _match_all(((_renamed(p, env_p), _renamed(t, env_t))
                       for p, t in zip(assertion_terms(pat), assertion_terms(tgt))),
                      holes, binding, eq)


class ReferenceCandidates:
    """`_BranchProver._candidates` and `_ematch_sub` as they were; patch
    both onto `_BranchProver` to run the engine on them."""

    def _candidates(self, var: str, body: Assertion) -> list[Term]:
        cap = self.query.budget.candidate_cap
        out: list[Term] = []
        seen: set[Term] = set()

        def emit(t: Term) -> bool:
            if t in seen or has_bound_name(t):
                return False
            seen.add(t)
            out.append(t)
            return len(out) >= cap

        anchored = False
        for sub in subassertions(body):
            if var not in assertion_vars(sub):
                continue
            anchored = True
            for binding in self._ematch_sub(sub, var):
                if emit(binding):
                    self.query.truncated = True
                    return out
        if not anchored:
            universe = [t for t in sorted(self.cc.parent, key=term_key)
                        if not has_bound_name(t)]
            for t in universe[:1]:
                emit(t)
            return out
        # pattern-guided synthesis for equation atoms, then universe fallback
        for sub in subassertions(body):
            if isinstance(sub, Eq) and var in assertion_vars(sub):
                for pat, other in ((sub.lhs, sub.rhs), (sub.rhs, sub.lhs)):
                    if isinstance(pat, Var) and pat.name == var:
                        for cand in self._synth_from_pattern(other):
                            if emit(cand):
                                self.query.truncated = True
                                return out
        return out

    def _ematch_sub(self, pattern: Assertion, var: str):
        """Bind var by matching a goal subassertion against hypotheses (and,
        for equations, against congruence classes), with the shared matcher
        of `assertions` working modulo this branch (`same`, `members`)."""
        holes = {var} | {n for n in assertion_vars(pattern) if n.startswith("%")}
        results: list[Term] = []
        if isinstance(pattern, Eq):
            for pat, other in ((pattern.lhs, pattern.rhs), (pattern.rhs, pattern.lhs)):
                pvars = {v.name for v in iter_subterms(pat) if isinstance(v, Var)}
                if var not in pvars:
                    continue
                targets: list[Term] = []
                if not has_bound_name(other):
                    self.cc.add_term(other)
                    targets = self.cc.class_members(other)
                for tgt in targets:
                    for b in match_term(pat, tgt, holes, {}, self):
                        if var in b:
                            results.append(b[var])
        for hyp in self.node.by_kind.get(_kind(pattern), ()):
            for b in match_assertion(pattern, hyp, holes, {}, self):
                if var in b:
                    results.append(b[var])
        return results
