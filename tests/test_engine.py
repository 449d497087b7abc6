from __future__ import annotations

import random
from collections import deque

import pytest

from protassert import (
    And,
    App,
    Basic,
    DeriveContext,
    Enc,
    Eq,
    Exists,
    Or,
    Pair,
    Pred,
    Says,
    SearchBudget,
    SentA,
    SentT,
    Var,
    derive,
    derive_safe,
    sk,
    vk,
)
from protassert import anonymity, assertions, engine, parse_sequent, runtime
from protassert.builtins import anonymity_foo_setup, builtin_foo
from protassert.checker import replay_assertion_proof
from protassert.engine import BudgetExhausted

from oracles import AssertionOracle, holds_in_every_case
from test_golden_output import SEQUENTS
from test_weakening import LEAK

A = Basic("A", "agent")
B = Basic("B", "agent")
n = Basic("n", "nonce")
m = Basic("m", "nonce")
v = Basic("v", "nonce")
zero = Basic("0", "nonce")
one = Basic("1", "nonce")
two = Basic("2", "nonce")
k = Basic("k", "key")
k2 = Basic("k2", "key")


def x(name: str) -> Var:
    return Var(name)


# ---------------------------------------------------------------------------
# expansion stages


def test_witness_close_opens_existentials():
    phi = {Exists("q", Eq(x("q"), n))}
    root = DeriveContext((), phi).root
    opened = [a for a in root.hyps if isinstance(a, Eq)]
    assert len(opened) == 1
    lhs = opened[0].lhs
    assert isinstance(lhs, Var) and lhs.name.startswith("_w")


def test_witness_close_shares_witnesses_per_assertion():
    # the same hypothesis opens to the same witness, a different one does not
    a1 = Exists("q", Pred("p", (x("q"),)))
    a2 = Exists("q", Pred("r", (x("q"),)))
    root = DeriveContext((), [a1, a2, a1]).root
    names = {h.args[0].name for h in root.hyps if isinstance(h, Pred)}
    assert len(names) == 2 and all(name.startswith("_w") for name in names)


def test_case_split_multiplies_branches():
    sides = [(Eq(n, n), Eq(m, m)), (Eq(k, k), Eq(k2, k2))]
    leaves = list(DeriveContext((), {Or(*s) for s in sides}).leaves())
    assert len(leaves) == 4
    picked = {tuple(side for pair in sides for side in pair if side in leaf.hyps)
              for leaf in leaves}
    assert picked == {(a, b) for a in sides[0] for b in sides[1]}


def test_case_split_raises_past_branch_cap():
    import pytest
    phi = frozenset(Or(Pred("p", (Basic(f"c{i}", "nonce"),)),
                       Pred("q", (Basic(f"c{i}", "nonce"),)))
                    for i in range(6))
    ctx = DeriveContext((), phi, SearchBudget(branch_cap=8))
    with pytest.raises(BudgetExhausted):
        list(ctx.leaves())


# ---------------------------------------------------------------------------
# plain derivation


def test_hypothesis_and_conjunction():
    assert derive((), {Pred("p", (n,))}, Pred("p", (n,)))
    assert derive((), {And(Pred("p", (n,)), Pred("q", (m,)))}, Pred("q", (m,)))
    assert derive((), {Pred("p", (n,)), Pred("q", (m,))},
                  And(Pred("p", (n,)), Pred("q", (m,))))


def test_disjunction_introduction_and_elimination():
    assert derive((), {Pred("p", (n,))}, Or(Pred("p", (n,)), Eq(n, m)))
    # both branches reach the weaker disjunction
    phi = {Or(Pred("p", (n,)), Pred("q", (n,)))}
    assert derive((), phi, Or(Pred("q", (n,)), Pred("p", (n,))))
    assert not derive((), phi, Pred("p", (n,)))


def test_equality_symmetry_transitivity():
    phi = {Eq(Enc(n, k), Enc(m, k2)), Eq(Enc(m, k2), Enc(v, k))}
    assert derive((), phi, Eq(Enc(v, k), Enc(n, k)))


def test_congruence_composes_upward():
    phi = {Eq(Enc(n, k), Enc(m, k))}
    # the shared component v needs a provable reflexivity, so it must be
    # constructible from the term knowledge
    assert derive({v}, phi, Eq(Pair(Enc(n, k), v), Pair(Enc(m, k), v)))
    assert not derive((), phi, Eq(Pair(Enc(n, k), v), Pair(Enc(m, k), v)))


def test_enc_projection_needs_both_inverse_keys():
    # holding k lets the pairing of ciphertexts reveal body equality
    phi = {Eq(Enc(n, k), Enc(m, k))}
    assert derive({k}, phi, Eq(n, m))
    assert not derive((), phi, Eq(n, m))
    # a signing key that is not ours blocks the projection
    phi2 = {Eq(Enc(n, sk(A)), Enc(m, sk(A)))}
    assert not derive((), phi2, Eq(n, m))
    assert derive({vk(A)}, phi2, Eq(n, m))


def test_existential_introduction():
    phi = {Pred("p", (Enc(n, k),))}
    assert derive((), phi, Exists("u", Pred("p", (x("u"),))))
    assert derive((), phi, Exists("u", Exists("w", Pred("p", (Enc(x("u"), x("w")),)))))


def test_existential_matching_across_binders():
    # hypothesis and goal bind in different orders but align positionally
    phi = {Exists("a", Exists("b", Eq(Pair(x("a"), x("b")), Pair(n, m))))}
    assert derive((), phi, Exists("q", Exists("r", Eq(Pair(x("q"), x("r")), Pair(n, m)))))


def test_existential_agent_matches_hypotheses_of_any_agent():
    # the hypothesis index keys a says or sent fact by its connective only:
    # a goal whose agent is the bound variable must meet every agent's facts
    for fn in (derive, derive_safe):
        assert fn({A}, {Says(A, Pred("p", (n,)))}, Exists("u", Says(x("u"), Pred("p", (n,)))))
        assert fn({A}, {SentT(B, n)}, Exists("u", SentT(x("u"), n)))


def test_bottom_explodes():
    phi = {Eq(n, m)}  # two distinct atomic values equal: inconsistent
    assert derive((), phi, Pred("anything", (k,)))
    assert derive((), phi, Eq(k, k2))
    assert derive((), phi, Exists("u", Eq(x("u"), x("u"))))


def test_bottom_through_projection():
    phi = {Eq(Enc(n, k), Enc(m, k))}
    assert not derive((), phi, Eq(k, k2))
    assert derive({k}, phi, Eq(k, k2))  # projection exposes n = m


def test_congruence_chain_with_blocked_first_member():
    # rebuilding the shared-child reflexivity premise of a congruence step
    # must skip class members that only became equal after that step
    phi = [
        Eq(k, A),
        Eq(Pair(A, k), Enc(n, k)),
        Eq(Enc(n, k), Pair(k, m)),
        Eq(Pair(A, n), Pair(n, A)),
    ]
    goal = Pred("p", (Pair(A, m),))
    assert derive((), phi, goal)
    assert derive_safe((), phi, goal)


def test_says_strip():
    phi = {Says(A, Pred("p", (n,)))}
    assert derive((), phi, Pred("p", (n,)))


def test_says_introduction_gated_by_signing_key():
    phi = {Pred("p", (n,))}
    goal = Says(A, Pred("p", (n,)))
    assert not derive((), phi, goal)
    assert derive({sk(A)}, phi, goal)
    assert not derive({sk(B)}, phi, goal)
    assert not derive({vk(A)}, phi, goal)


def test_sent_facts_are_not_invented():
    phi = {SentT(A, n)}
    assert derive((), phi, SentT(A, n))
    assert not derive((), phi, SentT(B, n))
    assert not derive((), phi, SentA(A, Pred("p", (n,))))


def test_sent_facts_match_up_to_equalities():
    phi = {SentT(A, Enc(n, k)), Eq(Enc(n, k), Enc(m, k2))}
    assert derive((), phi, SentT(A, Enc(m, k2)))


# ---------------------------------------------------------------------------
# the certificate overlap leak


def leak_context():
    commit = Enc(v, k)
    cert = lambda alt: Exists("x", Exists("y", And(
        Eq(commit, Enc(x("x"), x("y"))),
        Or(Eq(x("x"), zero), Eq(x("x"), alt)))))
    return {commit}, {cert(one), cert(two)}


def test_two_overlapping_certificates_leak_the_plaintext():
    X, phi = leak_context()
    goal = Exists("y", Eq(Enc(v, k), Enc(zero, x("y"))))
    verdict = derive(X, phi, goal)
    assert verdict.derivable
    rules = set()

    def walk(p):
        rules.add(p.rule)
        for q in p.premises:
            walk(q)

    walk(verdict.proof)
    assert "exists_e" in rules
    assert "or_e" in rules
    assert "exists_i" in rules


def test_leak_needs_both_certificates():
    X, phi = leak_context()
    goal = Exists("y", Eq(Enc(v, k), Enc(zero, x("y"))))
    for one_cert in phi:
        assert not derive(X, {one_cert}, goal)


def test_safe_mode_blocks_the_leak():
    X, phi = leak_context()
    goal = Exists("y", Eq(Enc(v, k), Enc(zero, x("y"))))
    verdict = derive_safe(X, phi, goal)
    assert not verdict.derivable
    assert not verdict.budget_exhausted


def test_safe_mode_still_proves_directly():
    phi = {Pred("p", (n,)), Says(A, Pred("q", (m,)))}
    assert derive_safe((), phi, Pred("p", (n,)))
    assert derive_safe((), phi, Pred("q", (m,)))
    assert derive_safe((), phi, And(Pred("p", (n,)), Pred("q", (m,))))


# ---------------------------------------------------------------------------
# budgets


def test_budget_exhaustion_is_marked():
    phi = frozenset(Or(Pred("p", (Basic(f"c{i}", "nonce"),)),
                       Pred("q", (Basic(f"c{i}", "nonce"),)))
                    for i in range(8))
    tight = SearchBudget(branch_cap=4)
    verdict = derive((), phi, Pred("p", (Basic("c0", "nonce"),)),
                     budget=tight)
    assert not verdict.derivable
    assert verdict.budget_exhausted


def test_exhaustion_never_reported_as_positive():
    X, phi = leak_context()
    goal = Exists("y", Eq(Enc(v, k), Enc(zero, x("y"))))
    tight = SearchBudget(node_cap=3)
    verdict = derive(X, phi, goal, budget=tight)
    assert verdict.derivable or verdict.budget_exhausted


def test_closure_over_merge_cap_spares_hypothesis_goals():
    # the root's closure needs two merges and may make one: a goal that is
    # a hypothesis still holds, a goal that needs the closure is
    # inconclusive, and leaves() raises rather than hand out a leaf whose
    # closure would raise later
    a, b, c = (Basic(s, "nonce") for s in "abc")
    ctx = DeriveContext((a, b, c), [Eq(a, b), Eq(b, c)], SearchBudget(merge_cap=1))
    assert ctx.query(Eq(a, b)).derivable and not ctx.build_failed
    far = ctx.query(Eq(a, c))
    assert not far.derivable and far.budget_exhausted and ctx.build_failed
    with pytest.raises(BudgetExhausted):
        list(ctx.leaves())
    assert ctx.query(Eq(a, b)).derivable


def test_context_reuse_matches_one_shot():
    X, phi = leak_context()
    ctx = DeriveContext(X, phi)
    goals = [Exists("y", Eq(Enc(v, k), Enc(zero, x("y")))),
             Eq(v, zero),
             Exists("u", Eq(Enc(v, k), Enc(x("u"), k)))]
    for g in goals:
        assert ctx.query(g).derivable == derive(X, phi, g).derivable
    # queries must not contaminate one another
    assert ctx.query(goals[0]).derivable == derive(X, phi, goals[0]).derivable


# ---------------------------------------------------------------------------
# closures on demand


@pytest.fixture
def closures(monkeypatch):
    """Counts of congruence closures built; every query must leave the
    root's closure with an empty trail."""
    counts = {"built": 0}
    real_init, real_query = engine.EqClasses.__init__, engine.DeriveContext.query

    def init(self, *args, **kwargs):
        counts["built"] += 1
        real_init(self, *args, **kwargs)

    def query(self, goal):
        verdict = real_query(self, goal)
        assert self.cc is None or self.cc.trail == []
        return verdict

    monkeypatch.setattr(engine.EqClasses, "__init__", init)
    monkeypatch.setattr(engine.DeriveContext, "query", query)
    return counts


def test_hypothesis_goals_build_no_closure(closures):
    p, q = Pred("p", (n,)), Pred("q", (m,))
    ctx = DeriveContext((n, m), [And(q, Says(A, p))], safe=True)
    for goal in (p, q, Says(A, p), And(p, q), Or(Pred("r", (n,)), p)):
        assert ctx.query(goal).derivable
    with_eq = DeriveContext((n, m), [Eq(n, m), Says(A, Eq(m, v))], safe=True)
    for goal in (Eq(n, m), Eq(m, v)):
        assert with_eq.query(goal).derivable
    assert closures == {"built": 0}


def test_an_equality_goal_builds_one_root_closure(closures):
    ctx = DeriveContext((n,), [Eq(n, m), Eq(m, v)], safe=True)
    assert ctx.query(Eq(n, v)).derivable
    assert closures == {"built": 1}
    assert ctx.query(Eq(v, n)).derivable and ctx.query(Eq(n, m)).derivable
    assert closures == {"built": 1}


def test_an_equation_free_context_builds_no_closure(closures):
    """A branch with no equation hypothesis has one term per class: it
    answers equalities, E-matches and ground patterns by identity."""
    p, q = (lambda t: Pred("p", (t,))), (lambda t: Pred("q", (t,)))
    ctx = DeriveContext((n, m), [Says(A, And(p(n), q(m))), Exists("z", p(x("z")))],
                        safe=True)
    vote = Exists("x", Exists("y", And(Says(A, And(p(x("x")), q(x("y")))),
                                       Eq(x("y"), m))))
    assert ctx.query(vote).derivable
    assert ctx.query(Exists("y", And(q(x("y")), Eq(x("y"), m)))).derivable
    assert not ctx.query(Exists("y", And(q(x("y")), Eq(x("y"), n)))).derivable
    assert ctx.query(Eq(Pair(n, m), Pair(n, m))).derivable
    assert not ctx.query(Eq(n, m)).derivable
    assert closures == {"built": 0}


@pytest.mark.parametrize("safe", [True, False])
def test_hypothesis_goal_proof_is_an_access_chain(safe):
    p = Pred("p", (n,))
    top = And(Pred("q", (m,)), Says(A, p))
    proof = DeriveContext((), [top, Eq(n, m)], safe=safe).query(p).proof
    chain = []
    while proof is not None:
        chain.append((proof.rule, proof.concl))
        proof = proof.premises[0] if proof.premises else None
    assert chain == [("strip", p), ("and_e", Says(A, p)), ("ax", top)]


# goals whose conjuncts are hypotheses with sibling binders: each conjunct
# must be the hypothesis itself, whatever binders precede it
SIBLING_BINDERS = {
    "existentials": """\
predicates: p/1, q/1
assertions:
ex x: q(x)
ex y: p(y)
goal: (ex x: q(x)) /\\ (ex y: p(y))
""",
    "says": """\
agents: A
predicates: p/1, q/1
assertions:
ex x: q(x)
A says (ex y: p(y))
goal: (ex x: q(x)) /\\ (A says (ex y: p(y)))
""",
}


@pytest.mark.parametrize("name", sorted(SIBLING_BINDERS))
@pytest.mark.parametrize("safe", [True, False])
def test_a_conjunction_of_hypotheses_with_sibling_binders_is_derivable(name, safe):
    seq = parse_sequent(SIBLING_BINDERS[name])
    verdict = (derive_safe if safe else derive)(seq.terms, seq.assertions, seq.goal)
    assert verdict.derivable
    assert replay_assertion_proof(verdict.proof, seq.terms, seq.assertions,
                                  seq.goal) == (True, None)


def test_an_existential_is_opened_once_per_witness_name(monkeypatch):
    opened = []
    real = assertions.substitute
    monkeypatch.setattr(assertions, "substitute",
                        lambda a, sigma: opened.append(a) or real(a, sigma))
    psi = Exists("q", Pred("opened_once", (x("q"), n)))
    first, second = (DeriveContext((), [psi]).root for _ in range(2))
    assert first.hyps == second.hyps and len(first.hyps) == 2
    assert len(opened) == 1


# ---------------------------------------------------------------------------
# case splitting on demand


def test_hypothesis_goal_closes_without_splitting():
    # twenty disjunctions beside the goal are never split, so a budget of
    # one branch is enough
    goal = Pred("p", (n,))
    phi = [goal] + [Or(Pred("q", (Basic(f"c{i}", "nonce"),)),
                       Pred("r", (Basic(f"c{i}", "nonce"),)))
                    for i in range(20)]
    verdict = derive((), phi, goal, budget=SearchBudget(branch_cap=1))
    assert verdict.derivable and not verdict.budget_exhausted
    assert replay_assertion_proof(verdict.proof, (), phi, goal) == (True, None)


def test_split_context_answers_queries_in_any_order():
    X, phi = leak_context()
    goals = [Exists("y", Eq(Enc(v, k), Enc(zero, x("y")))),
             Eq(v, zero),
             Or(Eq(v, zero), Eq(v, one)),
             Exists("u", Eq(Enc(v, k), Enc(x("u"), k))),
             Exists("y", Eq(Enc(v, k), Enc(one, x("y"))))]
    want = [derive(X, phi, g).derivable for g in goals]
    assert True in want and False in want
    for order in (goals, goals[::-1]):
        ctx = DeriveContext(X, phi)
        first = {g: ctx.query(g).derivable for g in order}
        again = {g: ctx.query(g).derivable for g in order}
        assert [first[g] for g in goals] == want
        assert [again[g] for g in goals] == want
        assert len(list(ctx.leaves())) == 4


def test_truncation_on_a_proved_branch_leaves_a_definite_negative():
    # the left case proves the goal after a truncated witness search; the
    # right case fails without one, so the goal is definitely underivable
    p = lambda t: Pred("p", (t,))
    a, b, c = (Basic(s, "nonce") for s in "abc")
    phi = [p(a), Or(And(p(b), And(p(c), Pred("s", (n,)))), Pred("t", (n,)))]
    goal = Or(Exists("u", And(p(x("u")), Pred("q", (x("u"),)))), Pred("s", (n,)))
    for budget in (SearchBudget(candidate_cap=2), SearchBudget()):
        verdict = derive((), phi, goal, budget=budget)
        assert not verdict.derivable and not verdict.budget_exhausted


def _rand_flat_atom(rng):
    t = lambda: _rand_ground_term(rng, 1)
    r = rng.random()
    if r < 0.45:
        return Eq(t(), t())
    if r < 0.8:
        return Pred(rng.choice("pq"), (t(),))
    return SentT(rng.choice([A, B]), t())


def test_case_splitting_matches_brute_force_cases():
    # engine against the oracle run on every combination of disjuncts
    rng = random.Random(4242)
    mismatches, positive = [], 0
    for i in range(200):
        X = frozenset(_rand_ground_term(rng, 1) for _ in range(rng.randint(0, 2)))
        ors = [Or(_rand_flat_atom(rng), _rand_flat_atom(rng))
               for _ in range(rng.randint(1, 4))]
        phi = ors + [_rand_flat_atom(rng) for _ in range(rng.randint(0, 2))]
        sides = [s for o in ors for s in (o.left, o.right)]
        roll = rng.random()
        if roll < 0.4:
            goal = rng.choice(sides)
        elif roll < 0.6:
            goal = Or(rng.choice(sides), rng.choice(sides))
        else:
            goal = _rand_flat_atom(rng)
        got = derive(X, phi, goal)
        want = holds_in_every_case(X, phi, goal)
        positive += want
        if bool(got) != want or got.budget_exhausted:
            mismatches.append((i, X, phi, goal, bool(got), want))
    assert not mismatches, mismatches[:2]
    assert 20 <= positive <= 180


def test_reflexivity_needs_a_provable_term():
    # n is neither known nor equal to anything else, so n = n has no proof
    phi = [Pred("p", (n,))]
    goal = Eq(n, n)
    assert not AssertionOracle((), phi).holds(goal)
    assert not derive((), phi, goal)
    assert AssertionOracle({n}, phi).holds(goal)
    assert derive({n}, phi, goal)


# ---------------------------------------------------------------------------
# oracle cross-check and properties


def _rand_ground_term(rng, depth):
    pool = [A, B, n, m, v, k, k2]
    if depth <= 0 or rng.random() < 0.45:
        return rng.choice(pool)
    r = rng.random()
    if r < 0.45:
        return Pair(_rand_ground_term(rng, depth - 1), _rand_ground_term(rng, depth - 1))
    if r < 0.85:
        return Enc(_rand_ground_term(rng, depth - 1), rng.choice([k, k2, sk(A)]))
    return App("g", (_rand_ground_term(rng, depth - 1),))


def _rand_flat_assertion(rng, depth):
    t = lambda: _rand_ground_term(rng, 2)
    leaves = [lambda: Eq(t(), t()),
              lambda: Pred(rng.choice("pq"), (t(),)),
              lambda: SentT(rng.choice([A, B]), t())]
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice(leaves)()
    r = rng.random()
    if r < 0.5:
        return And(_rand_flat_assertion(rng, depth - 1),
                   _rand_flat_assertion(rng, depth - 1))
    return Says(rng.choice([A, B]), _rand_flat_assertion(rng, depth - 1))


def test_oracle_agreement_flat_contexts():
    # engine against the naive closure oracle on quantifier-free inputs
    rng = random.Random(777)
    mismatches = []
    for i in range(300):
        X = frozenset(_rand_ground_term(rng, 2) for _ in range(rng.randint(0, 3)))
        phi = [_rand_flat_assertion(rng, 2) for _ in range(rng.randint(1, 4))]
        goal = _rand_flat_assertion(rng, 2)
        got = derive(X, phi, goal)
        want = AssertionOracle(X, phi).holds(goal)
        if bool(got) != want:
            mismatches.append((i, X, phi, goal, bool(got), want))
    assert not mismatches, mismatches[:2]


def test_derive_monotone_in_hypotheses_property():
    rng = random.Random(888)
    for _ in range(200):
        X = frozenset(_rand_ground_term(rng, 2) for _ in range(rng.randint(0, 2)))
        phi = [_rand_flat_assertion(rng, 1) for _ in range(rng.randint(1, 3))]
        goal = _rand_flat_assertion(rng, 1)
        if not derive(X, phi, goal):
            continue
        extra = [_rand_flat_assertion(rng, 1)]
        assert derive(X, phi + extra, goal), (phi, extra, goal)


def test_safe_subset_of_full_property():
    rng = random.Random(999)
    for _ in range(200):
        X = frozenset(_rand_ground_term(rng, 2) for _ in range(rng.randint(0, 2)))
        phi = [_rand_flat_assertion(rng, 2) for _ in range(rng.randint(1, 3))]
        goal = _rand_flat_assertion(rng, 2)
        if derive_safe(X, phi, goal):
            assert derive(X, phi, goal), (X, phi, goal)


def test_witness_candidate_in_a_key_slot_must_be_a_key():
    # c is offered first as a witness for x, and {d}c is no term; it is
    # skipped and k, the one candidate that fits the key slot, proves it
    from protassert import parse_sequent
    seq = parse_sequent("nonces: c, d\nkeys: k\nterms: c, d, k\n"
                        "goal: ex x: (x = c \\/ x = k) /\\ {d}x = {d}x\n")
    v = derive(seq.terms, seq.assertions, seq.goal)
    assert v.derivable and v.proof.witness == k
    ok, err = replay_assertion_proof(v.proof, seq.terms, seq.assertions, seq.goal)
    assert ok, err
    seq = parse_sequent("nonces: c\nkeys: k\nterms: c\n"
                        "goal: ex x: x = c /\\ {c}x = {c}x\n")
    v = derive(seq.terms, seq.assertions, seq.goal)
    assert not v.derivable and not v.budget_exhausted


# ---------------------------------------------------------------------------
# the undo trail: a query works on its context's closure in place


def _snapshot(cc) -> dict:
    """Every field of cc, with its lists, sets and deque copied, so that a
    change made in place shows too."""
    def copied(v):
        if isinstance(v, dict):
            return {key: copied(x) for key, x in v.items()}
        if isinstance(v, (list, deque)):
            return list(v)
        return frozenset(v) if isinstance(v, set) else v
    return {name: copied(value) for name, value in vars(cc).items()}


def _root_state(ctx):
    """A snapshot of ctx's root closure, built first if it is not yet, or
    None when building it goes over budget."""
    try:
        ctx.root.mark
    except BudgetExhausted:
        return None
    return _snapshot(ctx.cc)


@pytest.fixture
def untouched(monkeypatch):
    """Every query and every safety check must leave its context's root
    closure field for field as it found it, whether it answers or raises.
    Collects the verdicts and safety results seen."""
    seen = {"verdicts": [], "safety": []}
    real_query, real_safety = engine.DeriveContext.query, anonymity.check_safety

    def query(self, goal):
        before = _root_state(self)
        verdict = real_query(self, goal)
        assert self.cc is None or self.cc.trail == []
        assert _root_state(self) == before, goal
        seen["verdicts"].append(verdict)
        return verdict

    def check_safety(ctx, swap):
        before = _root_state(ctx)
        result = real_safety(ctx, swap)
        assert _root_state(ctx) == before
        seen["safety"].append(result)
        return result

    monkeypatch.setattr(engine.DeriveContext, "query", query)
    monkeypatch.setattr(anonymity, "check_safety", check_safety)
    return seen


def test_undo_takes_merges_and_new_terms_back():
    """Undoing to a mark restores every field, and the same merges made
    again give the same classes as the first time."""
    cc = engine.EqClasses(DeriveContext((n, m, k), []).dyctx)
    for t in (Pair(n, k), Enc(m, k), Pair(m, k)):
        cc.add_term(t)
    mark, before = len(cc.trail), _snapshot(cc)
    merged = None
    for _ in range(2):
        cc.merge(n, m, "hyp")
        cc.add_term(Pair(Pair(n, k), m))
        assert cc.same(Pair(n, k), Pair(m, k))
        assert merged in (None, _snapshot(cc))
        merged = _snapshot(cc)
        cc.undo(mark)
        assert _snapshot(cc) == before
        assert not cc.same(n, m) and Pair(Pair(n, k), m) not in cc


def test_golden_sequents_leave_the_root_closure_as_they_found_it(untouched):
    for text in (*SEQUENTS.values(), LEAK):
        seq = parse_sequent(text)
        goals = [seq.goal, *sorted(seq.assertions, key=repr)[:2],
                 Eq(Pair(n, m), Pair(m, n))]
        for safe in (False, True):
            ctx = DeriveContext(seq.terms, seq.assertions, safe=safe)
            for goal in goals + goals:
                ctx.query(goal)
    got = {(v.derivable, v.budget_exhausted) for v in untouched["verdicts"]}
    assert {(True, False), (False, False)} <= got


def test_the_anonymity_battery_leaves_each_root_closure_as_it_found_it(untouched):
    proto = builtin_foo()
    report = anonymity.check_anonymity(proto, anonymity_foo_setup(proto, 2), seed=0)
    assert report.tests_total > 100
    assert {v.derivable for v in untouched["verdicts"]} == {True, False}
    assert untouched["safety"] == [(True, [])] * 2


def test_queries_that_raise_leave_the_root_closure_as_they_found_it(untouched):
    X, phi = leak_context()
    goal = Exists("y", Eq(Enc(v, k), Enc(zero, x("y"))))
    budgets = ([SearchBudget(merge_cap=cap) for cap in range(8)]
               + [SearchBudget(node_cap=cap) for cap in (1, 2, 4, 8, 16, 32)]
               + [SearchBudget(branch_cap=cap) for cap in (1, 2)])
    for budget in budgets:
        ctx = DeriveContext(X, phi, budget)
        for g in (goal, goal, Eq(v, zero)):
            ctx.query(g)
    # the left case's equation needs four unions, and the cap stops the
    # fourth with one more still pending
    a, b, c, d, e, f = (Basic(s, "nonce") for s in "abcdef")
    split = Or(Eq(Pair(Pair(a, b), c), Pair(Pair(d, e), f)), Pred("q", (n,)))
    DeriveContext((a, b, c, d, e, f), [split], SearchBudget(merge_cap=3)).query(Pred("p", (n,)))
    assert untouched["verdicts"][-1].budget_exhausted
    assert sum(v.budget_exhausted for v in untouched["verdicts"]) > 20


def test_leaves_hold_each_leaf_and_give_the_root_back_when_closed():
    X, phi = leak_context()
    ctx = DeriveContext(X, phi)
    before = _root_state(ctx)
    for stop in (1, 2, None):
        leaves = ctx.leaves()
        for i, leaf in enumerate(leaves, 1):
            assert len(ctx.cc.trail) == leaf.mark > 0
            ctx.cc.add_term(Pair(zero, Pair(v, one)))  # undone before the next leaf
            if i == stop:
                leaves.close()
        assert _snapshot(ctx.cc) == before


def test_check_safety_reports_only_the_budget_when_a_later_leaf_goes_over_it():
    # every leaf shows the commitment equal to a concrete term, the left
    # two a commitment key equal to another; under branch_cap 3 the third
    # split goes over it, after two leaves
    d, e = Enc(v, k), Enc(zero, k2)
    phi = [Eq(d, Pair(n, m)), Or(Eq(k2, Enc(n, k)), Pred("q", (n,))),
           Or(Pred("r", (n,)), Pred("s", (n,)))]
    swap = {d: e, e: d}
    commit = "(n, m) is provably equal to the commitment {v}k"
    key = "commitment key k2 is provably equal to something else"
    assert anonymity.check_safety(DeriveContext((), phi), swap) == (
        False, [commit, key, commit, key, commit, commit])
    tight = DeriveContext((), phi, SearchBudget(branch_cap=3))
    assert anonymity.check_safety(tight, swap) == (
        False, ["knowledge closure exceeded the budget"])
    assert tight.cc.trail == []


def test_inconsistency_draws_every_leaf_before_it_decides(monkeypatch):
    # every leaf holds a = b; under branch_cap 3 the third split goes over
    # it, after two leaves, and that counts as consistent
    a, b = Basic("a", "nonce"), Basic("b", "nonce")
    phi = frozenset([Eq(a, b), Or(Pred("p", (n,)), Pred("q", (n,))),
                     Or(Pred("r", (n,)), Pred("s", (n,)))])
    for cap, bad in ((3, False), (4, True)):
        monkeypatch.setattr(runtime.ContextTable, "context",
                            lambda self, t, ph: DeriveContext(t, ph, SearchBudget(branch_cap=cap)))
        assert runtime.ContextTable().inconsistent(frozenset(), phi) is bad


def test_a_node_mark_is_read_only_inside_its_subtree(monkeypatch):
    """Each read of a node's mark finds the trail it made its classes with,
    entry for entry, below the mark."""
    made = {}
    real = engine._Node.mark.func

    def mark(node):
        if node not in made:
            value = real(node)
            made[node] = (value, node.ctx.cc.trail[:value])
        value, below = made[node]
        trail = node.ctx.cc.trail
        assert len(trail) >= value and all(p is q for p, q in zip(trail, below))
        return value

    monkeypatch.setattr(engine._Node, "mark", property(mark))
    for text in (*SEQUENTS.values(), LEAK):
        seq = parse_sequent(text)
        ctx = DeriveContext(seq.terms, seq.assertions)
        for goal in (seq.goal, Eq(Pair(n, m), Pair(m, n)), seq.goal):
            ctx.query(goal)
        [leaf.bottom for leaf in ctx.leaves()]
    assert sum(node.parent is not None for node in made) > 20
