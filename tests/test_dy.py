from __future__ import annotations

import random

from protassert import App, Basic, DYContext, Enc, Pair, Var, dy_derive, sk, vk
from protassert.dy import _synth_ok, dy_saturate
from protassert.checker import replay_term_proof
from protassert.terms import KEYS, is_key_position, iter_subterms, sorted_terms, term_key

from oracles import analyze, composable, inverse_key, oracle_dy, random_instance, term_pool

A = Basic("A", "agent")
B = Basic("B", "agent")
n = Basic("n", "nonce")
m = Basic("m", "nonce")
k = Basic("k", "key")
k2 = Basic("k2", "key")


def test_projection_and_decryption():
    X = {Pair(n, m), Enc(A, k), k}
    S, _ = dy_saturate(X)
    assert n in S and m in S and A in S


def test_decryption_needs_inverse_key():
    S, _ = dy_saturate({Enc(n, k)})
    assert n not in S
    S, _ = dy_saturate({Enc(n, sk(A)), vk(A)})
    assert n in S


def test_nested_release():
    # the outer layer unlocks the key that opens the inner layer
    X = {Pair(k, Enc(Enc(n, k2), k)), k2}
    assert dy_derive(X, n).derivable


def test_composition():
    X = {n, k}
    assert dy_derive(X, Enc(n, k)).derivable
    assert dy_derive(X, Pair(n, Pair(n, k))).derivable
    assert dy_derive(X, App("h", (n,))).derivable


def test_atomic_things_cannot_be_made():
    X = {n, A}
    assert not dy_derive(X, k).derivable
    assert not dy_derive(X, sk(A)).derivable
    assert not dy_derive(X, vk(A)).derivable


def test_variables_are_free():
    assert dy_derive(frozenset(), Var("x")).derivable
    assert dy_derive({n}, Enc(n, Var("y"))).derivable


def test_signing_key_stays_atomic_even_composed():
    X = {A}
    assert not dy_derive(X, sk(A)).derivable  # not buildable from its argument
    assert dy_derive({sk(A)}, sk(A)).derivable


def test_proofs_replay():
    X = {Pair(n, Enc(m, k)), k}
    v = dy_derive(X, Pair(m, n))
    assert v.derivable
    ok, err = replay_term_proof(v.proof, X)
    assert ok, err


def test_context_caches_agree():
    X = frozenset({Pair(n, m), k})
    ctx = DYContext(X)
    for t in (n, m, k, Enc(n, k), sk(A)):
        assert ctx.derivable(t) == dy_derive(X, t).derivable
    assert ctx.inv_derivable(k)
    assert not ctx.inv_derivable(sk(A))


def test_oracle_agreement_small():
    X = {Pair(n, Enc(m, k))}
    for t, want in [(n, True), (m, False), (Pair(n, n), True), (k, False)]:
        assert dy_derive(X, t).derivable == want
        assert oracle_dy(X, t) == want


def test_oracle_agreement_random():
    # brute-force closure oracle against the engine on 1000 random instances
    rng = random.Random(20260822)
    mismatches = []
    positives = 0
    for i in range(1000):
        X, q = random_instance(rng)
        got = dy_derive(X, q)
        want = oracle_dy(X, q)
        if got.derivable != want:
            mismatches.append((i, X, q, got.derivable, want))
        if got.derivable:
            positives += 1
            ok, err = replay_term_proof(got.proof, X)
            assert ok, (i, err)
    assert not mismatches, mismatches[:3]
    assert positives > 100  # the generator keeps both verdicts in play


def test_monotone_in_knowledge():
    rng = random.Random(7)
    for _ in range(200):
        X, q = random_instance(rng)
        if not dy_derive(X, q).derivable:
            continue
        extra, _ = random_instance(rng)
        assert dy_derive(X | extra, q).derivable


def test_derivable_from_is_composition_only():
    # analysis is not re-run on the already-analyzed set
    S = frozenset({Pair(n, m)})
    assert _synth_ok(S, Pair(n, m))
    assert not _synth_ok(S, n)


def _questions(rng, X, q):
    """(question, term) pairs about X: the drawn target, members of X,
    their subterms and the inverses of the key material among them."""
    subs = sorted_terms({s for t in X for s in iter_subterms(t)})
    terms = [q, *rng.sample(sorted_terms(X), min(2, len(X))), *rng.sample(subs, min(3, len(subs)))]
    terms += [KEYS.inverse(t) for t in subs if is_key_position(t)][:2]
    return [(ask, t) for t in terms for ask in ("derivable", "inv_derivable", "proof")]


def _answer(ctx_or_none, X, ask, t):
    """The answer of a context, or of dy_derive when ctx_or_none is None;
    a proof question is asked of derivable terms only."""
    if ctx_or_none is not None:
        if ask == "proof":
            return ctx_or_none.proof(t) if ctx_or_none.derivable(t) else None
        return getattr(ctx_or_none, ask)(t)
    if ask == "inv_derivable":
        return is_key_position(t) and dy_derive(X, KEYS.inverse(t)).derivable
    v = dy_derive(X, t)
    return v.proof if ask == "proof" else v.derivable


def test_a_context_saturating_on_demand_answers_as_an_eager_one():
    # X is analyzed only when composition from X cannot answer, and a member
    # of X is proved without analysis; each answer, proofs compared with ==,
    # must be dy_derive's whichever question comes first
    rng = random.Random(20261019)
    lazy_answers = asked = 0
    for _ in range(300):
        X, q = random_instance(rng)
        questions = _questions(rng, X, q)
        want = {qu: _answer(None, X, *qu) for qu in questions}
        for first in ("derivable", "inv_derivable", "proof"):
            order = rng.sample(questions, len(questions))
            order.sort(key=lambda qu: qu[0] != first)  # one of this kind first
            ctx = DYContext(X)
            for qu in order:
                assert _answer(ctx, X, *qu) == want[qu], (X, qu, order.index(qu))
                lazy_answers += ctx.saturated is None
                asked += 1
    assert asked > 10000 and lazy_answers > 1000


def test_inverse_keys_answer_as_the_analysis_oracle():
    # every answer, whichever comes first, is the oracle's
    rng = random.Random(20261020)
    pool = term_pool(rng) + [Var("x")]
    for _ in range(400):
        X, q = random_instance(rng)
        keys = sorted({s for t in X | {q} for s in iter_subterms(t) if is_key_position(s)}
                      | {t for t in pool if is_key_position(t)}, key=term_key)
        S = analyze(X)
        for key in keys:
            ctx = DYContext(X)
            want = composable(S, inverse_key(key))
            assert ctx.inv_derivable(key) == want, (X, key)
        shared = DYContext(X)
        for key in rng.sample(keys, len(keys)):
            assert shared.inv_derivable(key) == composable(S, inverse_key(key)), (X, key)
