"""Witness candidates against the engine's former generation.

`oracles.ReferenceCandidates` holds `_candidates` and `_ematch_sub` as they
were before equation patterns were walked once per class and covered
equation hypotheses skipped; `oracles.match_assertion` is the matcher as it
was before binders were read through binder maps instead of renamed terms.
Both shortcuts must leave every candidate list as it was.  A corpus of
protocol runs, anonymity checks and sequents runs once on the reference and
once on the engine as it is, and the sequence of (goal, var, candidates,
truncated) of every `_candidates` call, with every output, must be the same.
The reference takes a vacuous binder's witness from the branch's fixed
universe by a walk of its own.  The engine draws its candidates on demand;
run so, each call must draw a prefix of the reference's list, and every
query must get the reference's verdict, budget flag and proof.

CI also runs this file under three hash seeds: hash-consed terms hash by
identity, so set iteration follows allocation.
"""
from __future__ import annotations

import random

import pytest

from oracles import ReferenceCandidates, match_assertion as reference_match_assertion
from protassert import DeriveContext, SearchBudget, parse_sequent, simulate, write_trace
from protassert.anonymity import _TemplateGen, check_anonymity, render_report
from protassert.assertions import (
    SYNTACTIC,
    And,
    Eq,
    Exists,
    Pred,
    Says,
    SentT,
    assertion_vars,
    map_terms,
    normalize,
    substitute,
)
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.engine import _BranchProver, _Query
from protassert.terms import AGENT, KEY, NONCE, App, Basic, Enc, Pair, Var, term_key
from test_assertions import match_read_canonical
from test_weakening import LEAK, _cases, _unrelated

CANDIDATES = _BranchProver._candidates

# A walk that grows its own class: matching h(f(n2)) adds it to the classes,
# which joins h(s) and unblocks the congruence of (h(s), d) with the class
# of c, so that only a second walk binds x to d.
GROWING_CLASS = """\
nonces: c, s, n2, d, n3
constructors: h/1, f/1
predicates: r/1
assertions:
c = (h(s), f(n3))
r((h(s), d))
d = f(n3)
s = f(n2)
goal: ex x: (h(f(n2)), x) = c
"""

# The walk of c's class binds nothing.  Matching the hypothesis A = (m, k)
# adds h(f(n2)) to the classes, which joins h(s) and unblocks the congruence
# of g(h(s), d) with c's class, bringing in (d, h(s)): only the hypotheses
# matched after that, inside c's class, bind x to d.
CLASS_GROWS_AFTER_WALK = """\
agents: A
nonces: c, s, n2, d, n3, m
keys: k
constructors: g/2, h/1, f/1
assertions:
A = (m, k)
c = g(h(s), f(n3))
g(h(s), d) = (d, h(s))
d = f(n3)
s = f(n2)
goal: ex x: (x, h(f(n2))) = c
"""

# c's class is one term, so the walk is made once; it adds h(f(n2)), which
# joins h(s) and unblocks the congruence of (d, h(s)) with e's class.  The
# walk is not repeated, so the hypothesis e = (f(n3), h(s)), now inside the
# walked class, must still be matched: it alone binds x to f(n3).
WALK_NOT_REPEATED = """\
nonces: s, n2, d, n3, e
constructors: h/1, f/1
assertions:
e = (f(n3), h(s))
d = f(n3)
s = f(n2)
goal: ex x: (x, h(f(n2))) = (d, h(s))
"""

# x does not occur in q(n), so it takes the least term of the branch's
# universe: in safe mode A, which only a pair under the hypothesis's binder
# holds, and so no closure would register.
VACUOUS_BESIDE_A_BINDER = """\
agents: A
nonces: n
predicates: p/1, q/1
assertions:
ex z: p((z, A))
q(n)
goal: ex x: q(n)
"""

NINE_NONCES = """\
nonces: a1, a2, a3, a4, a5, a6, a7, a8, a9, z
terms: a1, a2, a3, a4, a5, a6, a7, a8, a9, z
goal: ex x, y: (x = (y, y) /\\ y = z)
"""


def _verdict(v) -> str:
    return "yes" if v.derivable else "budget" if v.budget_exhausted else "no"


def _leak_sequent(rng: random.Random, certs: int, positive: bool) -> str:
    """The README leak with `certs` certificates, each pinning the vote to
    a disjunction of values; one value common to all of them when
    positive, two when not."""
    common = ["c0"] if positive else ["c0", "c1"]
    own = [f"o{i}" for i in range(certs)]
    lines = [f"nonces: v, {', '.join(common + own)}", "keys: k", "terms: {v}k",
             "assertions:"]
    for i in rng.sample(range(certs), certs):
        values = common + [own[i]]
        rng.shuffle(values)
        options = " \\/ ".join(f"x = {c}" for c in values)
        lines.append(f"ex x, y: ({{v}}k = {{x}}y /\\ ({options}))")
    lines.append("goal: ex y: {v}k = {c0}y")
    return "\n".join(lines) + "\n"


class _Flat:
    """Random contexts of equations, predicates, sent facts, conjunctions
    and says, and existential goals over them: one subterm of a flat
    assertion becomes the bound variable."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.agents = [Basic(f"A{i}", AGENT) for i in range(2)]
        self.basics = self.agents + [Basic(f"n{i}", NONCE) for i in range(3)]
        self.keys = [Basic(f"k{i}", KEY) for i in range(2)] + [App("sk", (self.agents[0],))]

    def term(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.45:
            return r.choice(self.basics + self.keys[:2])
        roll = r.random()
        if roll < 0.45:
            return Pair(self.term(depth - 1), self.term(depth - 1))
        if roll < 0.85:
            return Enc(self.term(depth - 1), r.choice(self.keys))
        return App("g", (self.term(depth - 1),))

    def assertion(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.5:
            roll = r.random()
            if roll < 0.45:
                return Eq(self.term(2), self.term(2))
            if roll < 0.8:
                return Pred(r.choice(("p", "q")), (self.term(2),))
            return SentT(r.choice(self.agents), self.term(2))
        if r.random() < 0.5:
            return And(self.assertion(depth - 1), self.assertion(depth - 1))
        return Says(r.choice(self.agents), self.assertion(depth - 1))

    def goal(self, hyps):
        """ex x: a, with a drawn from the hypotheses or fresh, and one of its
        subterms (not in a key slot) replaced by x."""
        a = self.rng.choice(hyps) if self.rng.random() < 0.6 else self.assertion(1)
        subs = sorted({s for t in _atom_terms(a) for s in _plain_subterms(t)}, key=term_key)
        target = self.rng.choice(subs)
        return normalize(Exists("x", map_terms(a, lambda t: _replace(t, target, Var("x")))))

    def sequent(self):
        X = frozenset(self.term(2) for _ in range(self.rng.randint(1, 4)))
        hyps = [self.assertion(2) for _ in range(self.rng.randint(2, 5))]
        return X, hyps, self.goal(hyps)


def _atom_terms(a):
    if isinstance(a, And):
        return _atom_terms(a.left) + _atom_terms(a.right)
    if isinstance(a, Says):
        return _atom_terms(a.body)
    if isinstance(a, SentT):
        return [a.term]
    return list(a.args) if isinstance(a, Pred) else [a.lhs, a.rhs]


def _plain_subterms(t):
    yield t
    if isinstance(t, Pair):
        yield from _plain_subterms(t.left)
        yield from _plain_subterms(t.right)
    elif isinstance(t, Enc):
        yield from _plain_subterms(t.body)
    elif isinstance(t, App) and t.ctor not in ("sk", "vk"):
        yield from _plain_subterms(t.args[0])


def _replace(t, old, new):
    if t is old:
        return new
    if isinstance(t, Pair):
        return Pair(_replace(t.left, old, new), _replace(t.right, old, new))
    if isinstance(t, Enc):
        return Enc(_replace(t.body, old, new), t.key)
    if isinstance(t, App) and t.ctor not in ("sk", "vk"):
        return App(t.ctor, (_replace(t.args[0], old, new),))
    return t


def _corpus(out: list) -> None:
    """Run every job of the corpus, appending what it prints to out."""
    foo, linked, helios = builtin_foo(), builtin_foo_linked(), builtin_helios()
    for proto, setup in ((foo, default_foo_setup(foo, 2)), (foo, default_foo_setup(foo, 3)),
                         (helios, default_helios_setup(helios))):
        run, _ = simulate(proto, setup, seed=0)
        out.append(("run", write_trace(run), tuple(run.warnings)))
    for proto in (foo, linked):
        rep = check_anonymity(proto, anonymity_foo_setup(proto, 2), seed=0, tests=150)
        out.append(("anonymity", render_report(rep)))
    for text in (LEAK, NINE_NONCES, GROWING_CLASS, CLASS_GROWS_AFTER_WALK,
                 WALK_NOT_REPEATED, VACUOUS_BESIDE_A_BINDER):
        seq = parse_sequent(text)
        for safe in (False, True):
            v = DeriveContext(seq.terms, seq.assertions, safe=safe).query(seq.goal)
            out.append(("sequent", _verdict(v)))
    rng = random.Random(2017)
    for X, Phi, goal, safe in _cases():
        more_X, more_Phi = _unrelated(rng, goal, 10, 24)
        v = DeriveContext(X | more_X, Phi | more_Phi, safe=safe).query(goal)
        out.append(("weakened", _verdict(v)))
    rng = random.Random(601)
    for certs in (2, 3, 4):
        for positive in (True, False):
            seq = parse_sequent(_leak_sequent(rng, certs, positive))
            v = DeriveContext(seq.terms, seq.assertions).query(seq.goal)
            out.append(("leak", certs, positive, _verdict(v)))
    flat = _Flat(random.Random(602))
    for _ in range(60):
        X, hyps, goal = flat.sequent()
        for safe in (False, True):
            v = DeriveContext(X, hyps, safe=safe).query(goal)
            out.append(("flat", _verdict(v)))
    # caps small enough that searches draw past them
    flat = _Flat(random.Random(603))
    for cap in (1, 2):
        budget = SearchBudget(candidate_cap=cap)
        for text in (LEAK, GROWING_CLASS, WALK_NOT_REPEATED):
            seq = parse_sequent(text)
            v = DeriveContext(seq.terms, seq.assertions, budget).query(seq.goal)
            out.append(("capped", cap, _verdict(v)))
        for _ in range(30):
            X, hyps, goal = flat.sequent()
            v = DeriveContext(X, hyps, budget).query(goal)
            out.append(("capped flat", cap, _verdict(v)))


def _record(reference: bool, drawn: bool = False) -> list:
    """Every _candidates call of the corpus as (goal body, var, candidates,
    truncated), and the corpus output, in order; terms and assertions by
    repr, since the two runs build their own objects.  The reference's
    lists are whole.  The engine's are drained into a list before the
    search reads them; with drawn, the search draws from the engine's
    generator itself, a call lists only the candidates it drew, and every
    query is recorded as (goal, derivable, budget flag, proof)."""
    calls: list = []
    impl = ReferenceCandidates._candidates if reference else CANDIDATES

    def recording(self, var, body):
        if drawn and not reference:
            got: list = []
            calls.append(("candidates", repr(body), var, got))
            return _tapped(impl(self, var, body), got)
        got = list(impl(self, var, body))
        calls.append(("candidates", repr(body), var, [repr(t) for t in got],
                      self.query.truncated))
        return got

    query = DeriveContext.query

    def querying(ctx, goal):
        v = query(ctx, goal)
        calls.append(("query", repr(goal), v.derivable, v.budget_exhausted, repr(v.proof)))
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BranchProver, "_candidates", recording)
        if reference:
            mp.setattr(_BranchProver, "_ematch_sub", ReferenceCandidates._ematch_sub)
        if drawn:
            mp.setattr(DeriveContext, "query", querying)
        _corpus(calls)
    return calls


def _tapped(candidates, got: list):
    """The candidates, each appended to got by repr as it is drawn."""
    for t in candidates:
        got.append(repr(t))
        yield t


def test_candidate_lists_equal_the_reference_call_by_call():
    want = _record(reference=True)
    got = _record(reference=False)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"entry {i} differs"
    lists = [c[3:] for c in want if c[0] == "candidates"]
    assert len(lists) > 300
    assert sum(bool(found) for found, _ in lists) > 100
    assert any(truncated for _, truncated in lists)


def _probes(seed: int):
    """(pattern, target, holes): raw and normal templates with binders,
    against unrelated closed assertions, their instances, and copies with
    random variables or subterms replaced, which may clash, face a bound
    variable with a constant, or mention a name a binder uses."""
    y, z, hole = Var("y"), Var("z"), Var("_h1")
    # equal as a whole, though the hole faces a variable of its own name
    yield (Exists("y", Pred("p", (Pair(y, hole),))),
           Exists("z", Pred("p", (Pair(z, hole),))), {"_h1"})
    # v0's class holds (qv1, V0), but that qv1 is not the target's binder
    yield (Exists("y", Pred("p", (Pair(y, Basic("V0", AGENT)),))),
           Exists("qv1", Pred("p", (Basic("v0", NONCE),))), {"_h1"})
    rng = random.Random(seed)
    for i, proto in enumerate((builtin_foo(), builtin_helios())):
        templates = _TemplateGen(random.Random(seed + i), proto, 3, 3)
        closed = _TemplateGen(random.Random(seed + 100 + i), proto, 0, 2)
        for _ in range(300):
            raw = templates.assertion(3, [])
            for pat in (raw, normalize(raw)):
                pool = [closed.term(1, []), rng.choice(closed.keys), Basic("v0", NONCE),
                        Var("_h1"), Var("qv1"), Var("%1")]
                targets = [closed.next()]
                values = {h: closed.term(2, []) for h in ("_h1", "_h2", "_h3")}
                for attempt in range(4):
                    try:
                        targets.append(map_terms(pat, lambda t: _scramble(t, rng, pool))
                                       if attempt else substitute(pat, values))
                    except ValueError:  # a non-key in a key slot
                        targets.append(closed.next())
                holes = {"_h1", "_h2", "_h3"}
                for tgt in targets:
                    yield pat, tgt, holes
                    yield pat, tgt, holes | assertion_vars(pat)


def _scramble(t, rng: random.Random, pool: list):
    """t with some subterms, and half its variables, drawn from pool."""
    if rng.random() < 0.15 or (isinstance(t, Var) and rng.random() < 0.5):
        return rng.choice(pool)
    if isinstance(t, Pair):
        return Pair(_scramble(t.left, rng, pool), _scramble(t.right, rng, pool))
    if isinstance(t, Enc):
        return Enc(_scramble(t.body, rng, pool), _scramble(t.key, rng, pool))
    if isinstance(t, App):
        return App(t.ctor, tuple(_scramble(a, rng, pool) for a in t.args))
    return t


def test_binder_maps_match_as_renamed_terms_did():
    """The same bindings as renaming every term under a binder, under
    syntactic equality and modulo a branch's classes; there, the classes
    must also end up with the same terms and unions."""
    v0, v1, v2 = (Basic(n, NONCE) for n in ("v0", "v1", "v2"))
    agent, key, binder = Basic("V0", AGENT), Basic("k", KEY), Var("qv1")
    # v0's class has a member that mentions a variable named as a binder
    X, Phi = (v0, key), [Eq(v0, Pair(binder, agent)), Eq(v1, Pair(v2, agent)),
                         Eq(v2, Enc(v0, key))]
    ctxs = [DeriveContext(X, Phi) for _ in range(2)]  # a closure for each prover
    matched = 0
    for pat, tgt, holes in _probes(71):
        want = reference_match_assertion(pat, tgt, holes, {}, SYNTACTIC)
        assert match_read_canonical(pat, tgt, holes, {}, SYNTACTIC) == want
        matched += bool(want)
        old, new = (_BranchProver(ctx.root, _Query(ctx)) for ctx in ctxs)
        want = reference_match_assertion(pat, tgt, holes, {}, old)
        assert match_read_canonical(pat, tgt, holes, {}, new) == want
        assert list(new.cc.parent) == list(old.cc.parent)
        assert new.cc.stamp == old.cc.stamp
        for ctx in ctxs:  # as a query does when it ends
            ctx._rewind()
    assert matched > 200


def test_drawn_candidates_are_a_prefix_of_the_reference_and_decide_alike():
    """Drawing candidates on demand stops at the first witness that works:
    each call draws a prefix of the reference list, and every query gets
    the reference's verdict, budget flag and proof."""
    want = _record(reference=True, drawn=True)
    got = _record(reference=False, drawn=True)
    assert len(got) == len(want)
    shorter = 0
    for i, (g, w) in enumerate(zip(got, want)):
        if g[0] == "candidates":
            assert g[:3] == w[:3], f"entry {i} differs"
            assert g[3] == w[3][:len(g[3])], f"entry {i}: drawn {g[3]}, listed {w[3]}"
            shorter += len(g[3]) < len(w[3])
        else:
            assert g == w, f"entry {i} differs"
    assert sum(c[0] == "query" for c in want) > 1000
    assert shorter > 50
