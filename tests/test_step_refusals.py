"""Each refusal of the enabling rule (`runtime.check_step`) and the insert
warning, produced by `validate_run` on one-step traces of a small protocol,
and the full-mode contexts that answer confirm, deny and the insert check:
one per knowledge set and budget, whatever the goal."""
from __future__ import annotations

import pytest

from protassert import (
    Basic,
    Eq,
    Or,
    Pred,
    SearchBudget,
    Setup,
    parse_protocol,
    parse_trace,
    simulate,
    validate_run,
)
from protassert import engine

PROTOCOL = """\
protocol refusals
agents A
nonces n, m
keys kk
predicates p/1, q/1

role listener:
  recv id : x
role sender:
  send id : kk
role confirmer:
  confirm id : p(n)
role denier:
  deny id : q(n) \\/ p(n)
role inserter:
  insert id : n = m
role checker:
  confirm id : p(n)
  deny id : q(n)
  insert id : q(m)
  confirm id : q(m)
"""

A = Basic("A", "agent")
n, m = Basic("n", "nonce"), Basic("m", "nonce")
p, q = (lambda t: Pred("p", (t,))), (lambda t: Pred("q", (t,)))
CAPPED = SearchBudget(branch_cap=1)

# (role, the step's bind clause, A's assertions, budget, problems, warnings)
CASES = [
    ("listener", " bind x=kk", set(), SearchBudget(),
     ["step 1: received message never offered",
      "step 1: message not derivable on the network"], []),
    ("sender", "", set(), SearchBudget(),
     ["step 1: payload not derivable by A"], []),
    ("confirmer", "", set(), SearchBudget(),
     ["step 1: confirm not derivable"], []),
    ("confirmer", "", {p(n)}, SearchBudget(), [], []),
    # the deny needs one case split of A's disjunction to be derivable
    ("denier", "", {Or(p(n), q(n))}, SearchBudget(),
     ["step 1: deny of a derivable assertion"], []),
    ("denier", "", {Or(p(n), q(n))}, CAPPED,
     ["step 1: deny not definite under the budget"], []),
    ("denier", "", {p(m)}, CAPPED, [], []),
    ("inserter", "", set(), SearchBudget(),
     [], ["session 1: insert made A's theory inconsistent"]),
    ("inserter", "", {Or(p(n), Eq(n, n))}, SearchBudget(),
     [], ["session 1: insert made A's theory inconsistent"]),
    ("checker", "", {p(n)}, SearchBudget(), [], []),
]


def _run(role: str, assertions: set, steps: str = ""):
    proto = parse_protocol(PROTOCOL)
    setup = Setup(sessions=[(role, {"id": A})], agent_assertions={"A": assertions})
    head = f"run refusals seed=-\nsession 1 {role} id=A\n"
    return parse_trace(head + steps, proto, setup)


@pytest.mark.parametrize("role,binds,assertions,budget,problems,warnings", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_validate_run_reports_each_refusal(role, binds, assertions, budget,
                                           problems, warnings):
    n_steps = len(parse_protocol(PROTOCOL).roles[role].actions)
    steps = "".join(f"step {i} session 1{binds}\n" for i in range(1, n_steps + 1))
    ok, got, state = validate_run(_run(role, assertions, steps), budget)
    assert got == problems
    assert ok == (not problems)
    assert state.warnings == warnings


def test_simulate_warns_when_an_insert_makes_a_theory_inconsistent():
    proto = parse_protocol(PROTOCOL)
    setup = Setup(sessions=[("inserter", {"id": A}), ("confirmer", {"id": A})])
    run, _ = simulate(proto, setup, seed=0)
    # the inconsistent theory proves the confirm that waited for it
    assert run.complete
    assert run.warnings == ["session 1: insert made A's theory inconsistent"]


def test_full_mode_contexts_are_built_once_per_knowledge(monkeypatch):
    # confirm and deny on A's first knowledge share one context; the insert
    # check and the last confirm share one over the extended knowledge
    built: list = []
    real = engine.DeriveContext.__init__

    def init(self, X, Phi, budget=engine.DEFAULT_BUDGET, safe=False, dyctx=None):
        real(self, X, Phi, budget, safe, dyctx)
        if not safe:
            built.append((self.X, self.Phi, budget))

    monkeypatch.setattr(engine.DeriveContext, "__init__", init)
    steps = "".join(f"step {i} session 1\n" for i in range(1, 5))
    ok, problems, _ = validate_run(_run("checker", {p(n)}, steps))
    assert ok, problems
    assert len(built) == len(set(built)) == 2
