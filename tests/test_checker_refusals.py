"""Proofs the checker must refuse with a reason, where its former version
(`oracles.replay_assertion_proof`) accepted one and raised on two.

* An exists_e whose witness name is a reserved bound name: opening the
  existential substitutes that name under the existential's own binders,
  which capture it, so the hypothesis it adds says more than the premise.
* A term proof whose composition would build an ill-formed term, and an
  exists_i whose witness would land in a key slot: both are malformed
  proofs, refused as such.

It also refuses an exists_e whose witness name occurs in the existential it
opens, which the former version accepted, and a subst that is no rewrite:
one whose image a binder captures, and one that renames a predicate.
"""
from __future__ import annotations

import pytest

import oracles
from protassert import (
    Basic,
    Enc,
    Eq,
    Exists,
    Pair,
    Pred,
    ProofNode,
    Var,
    derive,
    normalize,
    replay_assertion_proof,
    replay_term_proof,
)
from protassert.dy import TermProof

a, b = Basic("a", "nonce"), Basic("b", "nonce")
m, n = Basic("m", "nonce"), Basic("n", "nonce")
k = Basic("k", "key")


def R(s, t) -> Pred:
    return Pred("R", (s, t))


def ax(c) -> ProofNode:
    return ProofNode("ax", c)


def intro(concl, witness: str, var_concl) -> ProofNode:
    """exists_i of concl over the variable witness, from the hypothesis var_concl."""
    return ProofNode("exists_i", concl, (ax(var_concl),), witness=Var(witness))


def capturing_proof(fresh: str):
    """From R(a, b), prove ex z: R(z, z) by opening ex x, y: R(x, y) over
    the witness name fresh.  Over %1, the opening yields the captured
    ex %1: R(%1, %1), which is the goal; the conclusion is written over %2
    so that %1 stays out of it, and an outer exists_e/exists_i pair turns
    it back into the goal."""
    phi = {R(a, b)}
    xy = normalize(Exists("x", Exists("y", R(Var("x"), Var("y")))))
    ay = normalize(Exists("y", R(a, Var("y"))))
    goal = normalize(Exists("z", R(Var("z"), Var("z"))))
    twisted = Exists("%2", R(Var("%2"), Var("%2")))
    pair = ProofNode("exists_i", xy,
                     (ProofNode("exists_i", ay, (ax(R(a, b)),), witness=b),),
                     witness=a)
    from_captured = ProofNode("exists_e", twisted,
                              (ax(goal), intro(twisted, "w", R(Var("w"), Var("w")))),
                              fresh="w")
    capture = ProofNode("exists_e", twisted, (pair, from_captured), fresh=fresh)
    proof = ProofNode("exists_e", goal,
                      (capture, intro(goal, "u", R(Var("u"), Var("u")))), fresh="u")
    return proof, phi, goal


def test_a_reserved_witness_name_is_refused():
    proof, phi, goal = capturing_proof("%1")
    assert not derive((), phi, goal).derivable
    assert oracles.replay_assertion_proof(proof, (), phi, goal) == (True, None)
    assert replay_assertion_proof(proof, (), phi, goal) == (
        False, "exists_e: witness variable %1 is a reserved name")


def test_an_ordinary_witness_name_does_not_capture():
    proof, phi, goal = capturing_proof("v")
    ok, err = replay_assertion_proof(proof, (), phi, goal)
    assert not ok and err.startswith("ax: hypothesis not in context")


def test_a_composition_that_would_build_an_ill_formed_term_is_refused():
    X = {m, Pair(n, n)}
    proof = TermProof("enc", Enc(m, k), (TermProof("ax", m), TermProof("ax", Pair(n, n))))
    with pytest.raises(ValueError):
        oracles.replay_term_proof(proof, X)
    assert replay_term_proof(proof, X) == (False, "enc: argument mismatch")


def test_a_witness_in_a_key_slot_is_refused():
    phi = {Pred("p", (m,))}
    goal = normalize(Exists("x", Pred("p", (Enc(m, Var("x")),))))
    proof = ProofNode("exists_i", goal, (ax(Pred("p", (m,))),), witness=n)
    with pytest.raises(ValueError):
        oracles.replay_assertion_proof(proof, (), phi, goal)
    assert replay_assertion_proof(proof, (), phi, goal) == (
        False, "exists_i: witness not allowed in a key slot")


def test_a_witness_name_in_the_opened_existential_is_refused():
    """Opening ex x: x = (q, q) over q would add q = (q, q): the witness
    name is not fresh for the existential itself."""
    q = Var("q")
    fact = Pred("p", (a,))
    refl = ProofNode("refl", Eq(q, q), term_proofs=(TermProof("var", q),))
    pair = ProofNode("cong_pair", Eq(Pair(q, q), Pair(q, q)), (refl, refl))
    premise = ProofNode("exists_i", normalize(Exists("x", Eq(Var("x"), Pair(q, q)))), (pair,),
                        witness=Pair(q, q))
    proof = ProofNode("exists_e", fact, (premise, ax(fact)), fresh="q")
    assert oracles.replay_assertion_proof(proof, (), {fact}, fact) == (True, None)
    assert replay_assertion_proof(proof, (), {fact}, fact) == (
        False, "exists_e: witness variable q not fresh")


def test_a_subst_whose_image_a_binder_captures_is_refused():
    """By x = %1, ex %1: q(%1, x) rewrites to ex %2: q(%2, %1); written
    over the binder %1, the image is captured and the conclusion says more."""
    x, v = Var("x"), Var("%1")
    before = Exists("%1", Pred("q", (v, x)))
    after = Exists("%1", Pred("q", (v, v)))
    proof = ProofNode("subst", after, (ax(before), ax(Eq(x, v))))
    assert replay_assertion_proof(proof, (), {before, Eq(x, v)}, after) == (
        False, "subst: conclusion is not a rewrite of the premise")


def test_a_subst_that_renames_the_predicate_is_refused():
    refl = ProofNode("refl", Eq(n, n), term_proofs=(TermProof("ax", n),))
    proof = ProofNode("subst", Pred("r", (n,)), (ax(Pred("p", (n,))), refl))
    assert replay_assertion_proof(proof, {n}, {Pred("p", (n,))}, Pred("r", (n,))) == (
        False, "subst: conclusion is not a rewrite of the premise")
