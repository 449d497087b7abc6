from __future__ import annotations

import gc
import random
import sys
from dataclasses import replace

import pytest

from protassert import (
    Basic,
    Enc,
    Pair,
    Run,
    SearchBudget,
    Setup,
    Var,
    initial_state,
    parse_assertion,
    parse_protocol,
    parse_sessions,
    parse_trace,
    simulate,
    validate_run,
    write_trace,
)
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_helios,
    builtin_setup,
    default_foo_setup,
    default_helios_setup,
)
from protassert.runtime import (
    OBSERVER,
    Step,
    WorldState,
    _allocate_fresh,
    _copy_state,
    _instantiate,
    _traffic_binds,
    apply_candidate,
    candidates_for,
    check_step,
    enabled_actions,
)
from protassert.assertions import (
    SYNTACTIC,
    Eq,
    Exists,
    Pred,
    canonical,
    match_canonical,
    match_term,
)
from protassert import dy, engine, runtime


def foo():
    return builtin_foo()


def test_match_term_binds_free_variables():
    n = Basic("n", "nonce")
    k = Basic("k", "key")
    holes = {"x", "y"}
    b = match_term(Pair(Var("x"), Var("y")), Pair(n, k), holes, {}, SYNTACTIC)
    assert b == [{"x": n, "y": k}]
    assert match_term(Var("x"), n, holes, {"x": k}, SYNTACTIC) == []
    assert match_term(Enc(Var("x"), k), Enc(n, k), holes, {}, SYNTACTIC) == [{"x": n}]


def test_match_assertion_requires_same_shape():
    n = Basic("n", "nonce")
    m = Basic("m", "nonce")
    got = match_canonical(Pred("p", (Var("x"),)), Pred("p", (n,)), {"x"}, {}, SYNTACTIC)
    assert got == [{"x": n}]
    assert match_canonical(Pred("p", (Var("x"),)), Pred("q", (n,)), {"x"}, {},
                           SYNTACTIC) == []
    pat = Exists("%1", Eq(Var("%1"), Var("w")))
    tgt = Exists("%1", Eq(Var("%1"), m))
    assert match_canonical(pat, tgt, {"w"}, {}, SYNTACTIC) == [{"w": m}]


def test_receive_patterns_and_messages_are_their_own_canonical_form():
    # so _traffic_binds matches them with match_canonical as they stand
    for proto, setup in ((foo(), default_foo_setup()), (builtin_helios(), default_helios_setup())):
        _, state = simulate(proto, setup, seed=0)
        pats = [pat.assertion for pat in state.matches if pat.assertion is not None]
        msgs = [tr.assertion for tr in state.traffic if tr.assertion is not None]
        assert pats and msgs
        for a in pats + msgs:
            assert canonical(a) == (a, {})


def test_a_fresh_name_steps_past_a_declared_basic():
    proto = parse_protocol("protocol p\nagents A\nnonces k_1\nrole r:\n"
                           "  send id fresh(k) : {k_1}k\n")
    run, _ = simulate(proto, Setup(parse_sessions("r(id=A)", proto)), seed=0)
    assert [step.fresh for step in run.steps] == [(("k", Basic("k_1_2", "key")),)]


def test_initial_knowledge_is_public_plus_own_secrets():
    proto = foo()
    setup = default_foo_setup(proto)
    state = initial_state(proto, setup)
    from protassert import sk, vk
    auth = Basic("Auth", "agent")
    v0 = Basic("V0", "agent")
    assert sk(auth) in state.knowledge["Auth"].terms
    assert sk(auth) not in state.knowledge["V0"].terms
    assert vk(auth) in state.knowledge["V0"].terms
    assert vk(v0) in state.knowledge[OBSERVER].terms


def test_simulation_completes_and_validates():
    proto = foo()
    setup = default_foo_setup(proto)
    run, state = simulate(proto, setup, seed=0)
    assert run.complete
    ok, problems, _ = validate_run(run)
    assert ok, problems


def test_a_hand_built_non_key_in_a_key_slot_is_a_problem():
    # the trace reader refuses it (test_error_texts); a run built in code
    # must be reported, not raise
    proto = foo()
    run, _ = simulate(proto, default_foo_setup(proto), seed=0)
    (name, key), = run.steps[0].fresh
    assert key.sort == "key"
    nonce = Step(run.steps[0].session, run.steps[0].action, ((name, Basic(key.name, "nonce")),))
    ok, problems, _ = validate_run(replace(run, steps=[nonce, *run.steps[1:]], complete=False))
    assert not ok
    assert problems == ["step 1: encryption key must be key material, got "
                        f"Basic(name='{key.name}', sort='nonce')"]


def test_simulation_is_deterministic_per_seed():
    proto = foo()
    setup = default_foo_setup(proto)
    a, _ = simulate(proto, setup, seed=5)
    b, _ = simulate(proto, setup, seed=5)
    assert write_trace(a) == write_trace(b)


def test_different_seeds_differ_somewhere():
    proto = foo()
    setup = default_foo_setup(proto)
    traces = {write_trace(simulate(proto, setup, seed=s)[0]) for s in range(6)}
    assert len(traces) > 1


def test_trace_round_trip_is_byte_exact():
    proto = foo()
    setup = default_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=3)
    text = write_trace(run)
    again = parse_trace(text, proto, setup)
    assert write_trace(again) == text
    ok, problems, _ = validate_run(again)
    assert ok, problems


def test_trace_round_trip_with_compound_session_parameters():
    proto = builtin_helios()
    setup = Setup(sessions=parse_sessions(
        "voter(id=V0, v=(v0, v1)); voter(id=V1, v=v1); "
        "script(id=Scr); script(id=Scr); admin(id=Adm)", proto))
    run, _ = simulate(proto, setup, seed=0)
    text = write_trace(run)
    assert "v=(v0, v1)" in text
    again = parse_trace(text, proto)
    assert write_trace(again) == text
    assert again.setup.sessions == setup.sessions


def test_helios_completes_for_many_seeds():
    proto = builtin_helios()
    setup = builtin_setup("helios", proto)
    for seed in range(8):
        run, _ = simulate(proto, setup, seed=seed)
        assert run.complete, seed
        ok, problems, _ = validate_run(run)
        assert ok, problems


def test_multi_voter_scenarios_complete():
    proto = foo()
    for voters in (3, 4):
        setup = anonymity_foo_setup(proto, voters)
        run, _ = simulate(proto, setup, seed=1)
        assert run.complete
        ok, problems, _ = validate_run(run)
        assert ok, problems


def test_knowledge_only_grows_along_runs():
    # monotone accumulation: every step extends what each agent holds
    proto = foo()
    setup = default_foo_setup(proto)
    for seed in range(8):
        run, _ = simulate(proto, setup, seed=seed)
        assert run.complete
        state = initial_state(proto, setup)
        sizes = {a: (len(K.terms), len(K.assertions))
                 for a, K in state.knowledge.items()}
        for step in run.steps:
            cands, _ = candidates_for(state, step.session - 1)
            chosen = [c for c in cands
                      if c.action == step.action and c.binds == step.binds]
            assert chosen, step
            apply_candidate(state, chosen[0])
            for agent, K in state.knowledge.items():
                before = sizes[agent]
                now = (len(K.terms), len(K.assertions))
                assert now >= before
                sizes[agent] = now


def test_validate_rejects_reordered_phases():
    proto = foo()
    setup = default_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    # move the last step to the front: its inputs no longer exist
    broken = replace(run, steps=[run.steps[-1]] + run.steps[:-1])
    ok, problems, _ = validate_run(broken)
    assert not ok
    assert problems


def test_validate_rejects_duplicate_fresh_values():
    proto = foo()
    setup = default_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    fresh_steps = [i for i, s in enumerate(run.steps) if s.fresh]
    assert len(fresh_steps) >= 2
    i, j = fresh_steps[0], fresh_steps[1]
    stolen = run.steps[i].fresh[0][1]
    bad = replace(run.steps[j], fresh=((run.steps[j].fresh[0][0], stolen),))
    broken = replace(run, steps=run.steps[:j] + [bad] + run.steps[j + 1:])
    ok, problems, _ = validate_run(broken)
    assert not ok


def test_validate_rejects_foreign_step():
    proto = foo()
    setup = default_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    bad = replace(run.steps[0], session=99)
    broken = replace(run, steps=[bad] + run.steps[1:])
    ok, problems, _ = validate_run(broken)
    assert not ok


def test_validate_rejects_a_step_of_a_finished_session():
    proto = foo()
    run, _ = simulate(proto, default_foo_setup(proto), seed=0)
    assert run.complete and len(run.steps) == 20 and run.steps[-1].session == 6
    broken = replace(run, steps=[*run.steps, run.steps[-1]])
    assert validate_run(broken)[:2] == (False, ["step 21: session 6 already finished"])


@pytest.mark.parametrize("edit, problems", [
    (lambda fresh: (*fresh, ("r", Basic("r1", "nonce"))),
     ["step 1: unexpected fresh variable r",
      "step 1: fresh variables do not match the action"]),
    (lambda fresh: (),
     ["step 1: fresh variables do not match the action",
      "step 1: action not ground after instantiation"]),
    (lambda fresh: (("k", Basic("k_99", "key")), *fresh),
     ["step 1: fresh variables do not match the action"]),
], ids=["one more", "none", "one twice"])
def test_validate_rejects_fresh_variables_unlike_the_action(edit, problems):
    # the first step of the run is a send fresh(k)
    proto = foo()
    run, _ = simulate(proto, default_foo_setup(proto), seed=0)
    send = run.steps[0]
    assert send.action.kind == "send" and [name for name, _ in send.fresh] == ["k"]
    broken = replace(run, steps=[replace(send, fresh=edit(send.fresh)), *run.steps[1:]])
    assert validate_run(broken)[:2] == (False, problems)


@pytest.mark.parametrize("at, edit", [
    (3, lambda binds: (*binds, ("junk", Basic("v3", "nonce")))),
    (4, lambda binds: (("W", Basic("V0", "agent")),)),
    (3, lambda binds: (*binds, ("id", Basic("Auth", "agent")))),
], ids=["a name the receive lacks", "a bind on a deny", "the bound id"])
def test_validate_rejects_bindings_unlike_the_action(at, edit):
    # step 3 of the run is a receive binding W and env, step 4 a deny
    proto = foo()
    run, _ = simulate(proto, default_foo_setup(proto), seed=0)
    assert [s.action.kind for s in run.steps[2:4]] == ["recv", "deny"]
    steps = list(run.steps)
    steps[at - 1] = replace(steps[at - 1], binds=edit(steps[at - 1].binds))
    assert validate_run(replace(run, steps=steps))[:2] == (
        False, [f"step {at}: bindings do not match the action"])


def test_double_processing_wedges_the_authority():
    # once one registrar session records a credential, a second session fed
    # the same credential is stuck at its duplicate check forever
    proto = foo()
    setup = builtin_setup("foo", proto)
    state = initial_state(proto, setup)
    roles = [s.role for s in state.sessions]
    v_idxs = [i for i, r in enumerate(roles) if r == "voter"]
    a_idxs = [i for i, r in enumerate(roles) if r == "authority"]
    v0 = Basic("V0", "agent")

    for i in v_idxs:  # both commitments go out
        cands, _ = candidates_for(state, i)
        apply_candidate(state, cands[0])

    cands, _ = candidates_for(state, a_idxs[0])
    pick = [c for c in cands if dict(c.binds)["W"] == v0]
    assert pick
    apply_candidate(state, pick[0])
    for _ in range(3):  # duplicate check passes, then insert and answer
        cands, wedged = candidates_for(state, a_idxs[0])
        assert cands and not wedged
        apply_candidate(state, cands[0])

    cands, _ = candidates_for(state, a_idxs[1])
    pick = [c for c in cands if dict(c.binds)["W"] == v0]
    assert pick  # replaying the same credential is receivable
    apply_candidate(state, pick[0])
    cands, wedged = candidates_for(state, a_idxs[1])
    assert wedged and not cands


def test_seeded_search_reports_partial_when_capped():
    proto = foo()
    setup = anonymity_foo_setup(proto, 4)
    run, _ = simulate(proto, setup, seed=0, max_states=1)
    assert not run.complete and run.cut
    assert any("no completing run" in w for w in run.warnings)


def test_a_search_stopped_at_max_states_is_cut():
    proto = foo()
    setup = default_foo_setup(proto, 2)
    run, _ = simulate(proto, setup, seed=0, max_states=20)
    assert not run.complete and run.cut
    assert run.warnings == ["no completing run found"]
    run, _ = simulate(proto, setup, seed=0)
    assert run.complete and not run.cut


def _three_agents(source: str):
    proto = parse_protocol(source, "t")
    return proto, Setup(sessions=parse_sessions("a(id=A); b(id=B); c(id=C)", proto))


def test_simulate_explores_a_state_reached_twice_once(monkeypatch):
    # nothing sends m, so no run completes; b's send first, then a's,
    # reaches the state a's then b's settled (the traffic is a set): the
    # fallback pass finds it seen and stops there
    proto, setup = _three_agents("""\
protocol memo
agents A, B, C
nonces n, k, m
role a:
  send id : n
role b:
  send id : k
role c:
  recv id : m
""")
    calls, prints = [], []
    enabled, fingerprint = runtime.enabled_actions, runtime._fingerprint
    monkeypatch.setattr(runtime, "enabled_actions",
                        lambda *args: calls.append(args) or enabled(*args))
    monkeypatch.setattr(runtime, "_fingerprint",
                        lambda state: prints.append(fingerprint(state)) or prints[-1])
    run, _ = simulate(proto, setup, seed=0)
    assert (run.complete, run.cut) == (False, False)
    assert (len(calls), len(prints), len(set(prints))) == (4, 5, 4)


def _reusing_protocol(rng: random.Random) -> str:
    """Three roles of 1-3 sends or receives whose fresh names k, k_1 and x
    recur (k_1 is also a declared nonce, and a session's k is allocated as
    k_1 or k_1_2), and a role w whose receive nothing ever offers."""
    lines = ["protocol reuse", "agents A, B, C", "nonces n, m, k_1"]
    for role in "abc":
        lines.append(f"role {role}:")
        got: list[str] = []
        for i in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                got.append(f"y{i}")
                lines.append(f"  recv id : {rng.choice([f'y{i}', f'(y{i}, n)'])}")
            else:
                f = rng.choice(["k", "k_1", "x"])
                pay = rng.choice([f, f"({f}, n)", f"({f}, m)", *got])
                lines.append(f"  send id fresh({f}) : {pay}")
    lines += ["role w:", "  recv id : (n, m)"]
    return "\n".join(lines) + "\n"


def test_a_revisited_fingerprint_has_the_sends_of_its_first_state(monkeypatch):
    # the fingerprint is the counters and bindings only: every state the
    # search reaches again must have put the same sends on the network,
    # even where allocation skips a taken name (two a sessions draw k_1_2
    # as a's second k or as the second session's k_1); w's receive wedges
    # every run, so each search backtracks through all it can reach
    real = runtime._fingerprint
    first: dict = {}
    repeats = []

    def checked(state):
        fp = real(state)
        sends = frozenset(state.traffic)
        if first.setdefault(fp, sends) is not sends:
            repeats.append(first[fp] == sends)
        return fp

    monkeypatch.setattr(runtime, "_fingerprint", checked)
    for seed in range(30):
        proto = parse_protocol(_reusing_protocol(random.Random(seed)), "t")
        setup = Setup(parse_sessions("a(id=A); a(id=B); b(id=B); c(id=C); w(id=C)", proto))
        first.clear()
        run, _ = simulate(proto, setup, seed=seed)
        assert not run.complete
    assert len(repeats) >= 1000 and all(repeats), (len(repeats), repeats.count(False))


def test_a_later_phase_fires_while_an_earlier_one_waits():
    # the lowest phase among the enabled steps fires: c's phase-two send
    # goes while b's phase-one receive, which nothing enables, is pending
    proto, setup = _three_agents("""\
protocol phased
phases one, two
agents A, B, C
nonces n, m, k
role a:
  send id : n
role b:
  recv id : m
role c:
  @two send id : k
""")
    run, _ = simulate(proto, setup, seed=0)
    assert not run.complete
    assert write_trace(run) == (
        "run phased seed=0\n"
        "session 1 a id=A\nsession 2 b id=B\nsession 3 c id=C\n"
        "step 1 session 1\nstep 2 session 3\n")


def test_trace_parse_rejects_garbage():
    import pytest
    from protassert import ParseError
    proto = foo()
    with pytest.raises(ParseError):
        parse_trace("run foo seed=0\nwat 1\n", proto)


# (what is wrong, line of the foo seed-0 trace, its malformed replacement)
_MALFORMED_TRACES = [
    ("steps out of order", "step 2 session 4 fresh", "step 3 session 4 fresh"),
    ("sessions out of order", "session 2 authority", "session 3 authority"),
    ("unknown role", "session 5 counter", "session 5 mayor"),
    ("bad fresh sort", "k=k_3:key", "k=k_3:salt"),
    ("step naming no session", "step 4 session 1", "step 4 session 9"),
    ("trailing junk after a binding", "env={v0}k_3", "env={v0}k_3 junk"),
]


def test_malformed_traces_are_parse_errors():
    import pytest
    from protassert import ParseError
    proto = foo()
    text = write_trace(simulate(proto, default_foo_setup(proto), seed=0)[0])
    for what, good, bad in _MALFORMED_TRACES:
        assert text.count(good) == 1, what
        with pytest.raises(ParseError):
            parse_trace(text.replace(good, bad), proto)


def test_trace_round_trip_without_a_seed_or_with_a_negative_one():
    proto = foo()
    setup = default_foo_setup(proto)
    for seed, head in ((None, "seed=-\n"), (-3, "seed=-3\n")):
        run = replace(simulate(proto, setup, seed=1)[0], seed=seed)
        text = write_trace(run)
        assert text.startswith("run foo " + head)
        again = parse_trace(text, proto, setup)
        assert again.seed == seed
        assert again.steps == run.steps
        assert write_trace(again) == text


def test_a_role_variable_nothing_binds_leaves_its_session_stuck():
    # the text parses, and its one action never instantiates to a ground
    # step: the scheduler offers nothing, and the run does not complete
    proto = parse_protocol("protocol u\nagents A\nrole r:\n  send id : w\n", "u")
    run, _ = simulate(proto, Setup(parse_sessions("r(id=A)", proto)))
    assert (run.complete, run.steps, run.warnings) == (False, [], ["no completing run found"])


def test_simulate_warns_when_a_search_hits_the_budget():
    proto = foo()
    run, _ = simulate(proto, default_foo_setup(proto), seed=0,
                      budget=SearchBudget(node_cap=1))
    assert not run.complete and run.cut
    assert any("search budget" in w for w in run.warnings), run.warnings


def _pending_steps(state, idx):
    """Every instantiation of session idx's pending action the scheduler
    considers: its fresh values for a send or local action, each matching
    message for a receive."""
    sess = state.sessions[idx]
    action = state.proto.roles[sess.role].actions[sess.pc]
    if action.kind == "recv":
        offers = [((), b) for b in _traffic_binds(state, action, sess.sigma)]
    else:
        offers = [(_allocate_fresh(state, idx + 1, action), ())]
    for fresh, binds in offers:
        inst = _instantiate(action, sess.sigma, fresh, binds)
        if inst is not None:
            yield Step(idx + 1, inst, fresh, binds)


def _agreement(proto, setup, prefix, state, replay_offered):
    """Check the scheduler against replay at one state reached by prefix.
    Each step the scheduler offers (if replay_offered) must replay after
    the prefix; each one it refuses for a reason other than the search
    budget must be rejected by replay for exactly the reasons the enabling
    rule gives.  Returns the offered steps and the number refused."""
    n = len(prefix)
    offered, refused = [], 0
    for idx, sess in enumerate(state.sessions):
        if sess.pc >= len(proto.roles[sess.role].actions):
            continue
        cands, _ = candidates_for(_copy_state(state), idx)
        offered += cands
        if replay_offered:
            for step in cands:
                ok, problems, _ = validate_run(
                    Run(proto, setup, None, prefix + [step], complete=False))
                assert ok, (n, step, problems)
        for step in _pending_steps(state, idx):
            if step in cands:
                continue
            failures = list(check_step(state, step))
            assert failures, (n, step)
            if failures[0][1] is not None:
                continue  # refused by the search budget
            ok, problems, _ = validate_run(
                Run(proto, setup, None, prefix + [step], complete=False))
            assert problems == [f"step {n + 1}: {why}" for why, _ in failures], \
                (n, step, problems)
            refused += 1
    return offered, refused


def test_scheduler_and_replay_agree_on_every_prefix():
    # every prefix of a simulated run, plus every state one offered step
    # past it (where a second registrar can meet a recorded credential)
    jobs = [(foo(), lambda p: default_foo_setup(p, 2), range(5)),
            (builtin_helios(), default_helios_setup, range(3))]
    offered = refused = 0
    for proto, mk, seeds in jobs:
        setup = mk(proto)
        for seed in seeds:
            run, _ = simulate(proto, setup, seed=seed)
            assert run.complete
            state = initial_state(proto, setup)
            for n in range(len(run.steps) + 1):
                prefix = run.steps[:n]
                cands, r = _agreement(proto, setup, prefix, state, True)
                offered += len(cands)
                refused += r
                for step in cands:
                    child = _copy_state(state)
                    apply_candidate(child, step)
                    refused += _agreement(proto, setup, prefix + [step], child, False)[1]
                if n < len(run.steps):
                    apply_candidate(state, run.steps[n])
    assert offered > 0 and refused > 0, (offered, refused)


def test_each_context_is_built_once_per_call(monkeypatch):
    # simulate and validate_run of its run share one table of contexts:
    # a term set is saturated once, and a safe-mode context is built once
    # per knowledge pair and then answers every goal asked of that pair;
    # once the run is gone, a replay builds each afresh, and each once
    saturated: list = []
    safe: list = []
    real_dy, real_derive = dy.DYContext.__init__, engine.DeriveContext.__init__

    def dy_init(self, X):
        saturated.append(frozenset(X))
        real_dy(self, X)

    def derive_init(self, X, Phi, *args, **kwargs):
        real_derive(self, X, Phi, *args, **kwargs)
        if self.safe:
            safe.append((frozenset(X), frozenset(Phi)))

    monkeypatch.setattr(dy.DYContext, "__init__", dy_init)
    monkeypatch.setattr(engine.DeriveContext, "__init__", derive_init)

    def built_once(call: str) -> tuple[int, int]:
        assert saturated and safe, call
        assert len(saturated) == len(set(saturated)), (call, len(saturated))
        assert len(safe) == len(set(safe)), (call, len(safe))
        return len(saturated), len(safe)

    proto = foo()
    setup = default_foo_setup(proto, 3)
    run, state = simulate(proto, setup, seed=0)
    assert run.complete
    made = built_once("simulate")
    ok, problems = validate_run(run)[:2]
    assert ok, problems
    # across both calls no set is built twice, and the replay builds none
    assert built_once("simulate and validate_run") == made
    copy = parse_trace(write_trace(run), proto, setup)
    public = next(key for key, table in runtime._TABLES.items() if table is run.contexts)
    del run, state
    assert public not in runtime._TABLES
    saturated.clear()
    safe.clear()
    ok, problems = validate_run(copy)[:2]
    assert ok, problems
    built_once("validate_run of the parsed copy")


def test_a_budget_warning_is_given_once_per_run(monkeypatch):
    # branch_cap=1 cuts the deny's refusal at each of the four states the
    # search visits, and each cut marks the run cut; the run says it once
    proto = parse_protocol("""\
protocol dup
agents A, B
nonces n, m
predicates p/1, q/1
role denier:
  deny id : q(n) \\/ p(n)
role sender:
  send id : n
  send id : m
  send id : n
""")
    setup = Setup(parse_sessions("denier(id=A); sender(id=B)", proto),
                  agent_assertions={"A": {parse_assertion("p(n) \\/ q(n)", proto.decls)}})
    warned = []
    real = runtime.candidates_for

    def counted(state, idx, budget=runtime.DEFAULT_BUDGET):
        n = len(state.warnings)
        out = real(state, idx, budget)
        warned.extend(state.warnings[n:])
        return out

    monkeypatch.setattr(runtime, "candidates_for", counted)
    run, _ = simulate(proto, setup, seed=0, budget=SearchBudget(branch_cap=1))
    refusal = "session 1: deny blocked, refusal not definite under the search budget"
    assert warned == [refusal] * 4
    assert run.cut and not run.complete
    assert run.warnings == [refusal, "no completing run found"]


def test_a_simulate_leaves_no_state_to_the_collector():
    # with the collector off, every state a simulate made goes with the
    # caller's references to its run and final state
    proto = foo()

    def alive() -> int:
        return sum(isinstance(o, WorldState) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for seed in range(3):
            run, state = simulate(proto, default_foo_setup(proto, 2), seed=seed)
            assert run.complete and alive() > before
            del run, state
            assert alive() == before
    finally:
        gc.enable()


def _depth() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_simulate_needs_no_frame_per_step():
    # the 40 steps of foo at 4 voters, searched within 40 frames of the
    # caller: the search keeps its states on a stack of its own, so only
    # the checks of one step recurse
    proto = foo()
    want, _ = simulate(proto, default_foo_setup(proto, 4), seed=0)
    assert want.complete and len(want.steps) == 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 40)
    try:
        run, _ = simulate(proto, default_foo_setup(proto, 4), seed=0)
    finally:
        sys.setrecursionlimit(limit)
    assert write_trace(run) == write_trace(want)
