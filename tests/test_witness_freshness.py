"""The checker's freshness condition on exists_e: the witness name must not
occur in X, in a hypothesis in scope (an or_e case or an earlier exists_e
instance included) or in the conclusion.  Each refused proof is paired with
the same proof under an unused name, which the checker accepts."""
from __future__ import annotations

from protassert import (
    Basic,
    Exists,
    Or,
    Pred,
    ProofNode,
    Var,
    normalize,
    replay_assertion_proof,
)

P = normalize(Exists("x", Pred("p", (Var("x"),))))
Q = normalize(Exists("x", Pred("q", (Var("x"),))))
GOAL = P
s = Pred("s", (Basic("n", "nonce"),))


def p(name: str) -> Pred:
    return Pred("p", (Var(name),))


def ax(a) -> ProofNode:
    return ProofNode("ax", a)


def open_p(y: str, concl=GOAL) -> ProofNode:
    """exists_e on P over y, then GOAL from p(y), or-introduced into concl."""
    inner = ProofNode("exists_i", GOAL, (ax(p(y)),), witness=Var(y))
    if concl != GOAL:
        inner = ProofNode("or_i", concl, (inner,))
    return ProofNode("exists_e", concl, (ax(P), inner), fresh=y)


def refused(proof, X, Phi, goal, name) -> bool:
    ok, err = replay_assertion_proof(proof, X, Phi, goal)
    assert ok or err == f"exists_e: witness variable {name} not fresh", err
    return not ok


def test_a_witness_name_in_X_is_refused():
    X = {Var("y")}
    assert refused(open_p("y"), X, [P], GOAL, "y")
    assert not refused(open_p("w"), X, [P], GOAL, "w")


def test_a_witness_name_in_an_or_e_case_is_refused():
    # the disjunction is derived, not a hypothesis, so only its left case
    # brings y into scope
    d = Or(Pred("r", (Var("y"),)), s)
    prove_d = ProofNode("or_i", d, (ax(s),))
    for name, want in (("y", True), ("w", False)):
        proof = ProofNode("or_e", GOAL, (prove_d, open_p(name), open_p(name)))
        assert refused(proof, (), [P, s], GOAL, name) == want


def test_a_witness_name_of_an_earlier_exists_e_is_refused():
    for name, want in (("y", True), ("w", False)):
        proof = ProofNode("exists_e", GOAL, (ax(Q), open_p(name)), fresh="y")
        assert refused(proof, (), [P, Q], GOAL, name) == want


def test_a_witness_name_in_the_conclusion_is_refused():
    goal = normalize(Or(p("y"), GOAL))
    assert refused(open_p("y", goal), (), [P], goal, "y")
    assert not refused(open_p("w", goal), (), [P], goal, "w")
