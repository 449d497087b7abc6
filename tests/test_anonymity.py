from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from protassert import (
    App,
    Basic,
    DeriveContext,
    Enc,
    Eq,
    Pair,
    SearchBudget,
    Setup,
    build_swapped,
    check_anonymity,
    check_safety,
    derive_swap,
    normalize,
    parse_protocol,
    parse_sessions,
    parse_trace,
    render_report,
    simulate,
    validate_run,
    write_trace,
)
from protassert import anonymity
from protassert.anonymity import (
    deterministic_tests,
    run_battery,
    swap_of,
    swp_assertion,
)
from protassert.assertions import Pred, SentT, map_terms
from protassert.builtins import (
    FOO_SOURCE,
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    builtin_setup,
    default_helios_setup,
)
from protassert.dy import DYContext
from protassert.runtime import OBSERVER
from protassert.syntax import parse_assertion, print_assertion
from protassert.terms import replace_term

d = Basic("dc", "nonce")
e = Basic("ec", "nonce")
p = Basic("pk", "key")
q = Basic("qk", "key")
other = Basic("other", "nonce")

SWAP = {d: e, e: d, p: q, q: p}


def _rand_term(rng: random.Random, depth: int):
    pool = [d, e, p, q, other, Basic("A", "agent")]
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(pool)
    r = rng.random()
    if r < 0.45:
        return Pair(_rand_term(rng, depth - 1), _rand_term(rng, depth - 1))
    if r < 0.85:
        return Enc(_rand_term(rng, depth - 1), rng.choice([p, q]))
    return App("h", (_rand_term(rng, depth - 1),))


def test_swap_is_an_involution():
    rng = random.Random(101)
    for _ in range(250):
        t = _rand_term(rng, 3)
        assert replace_term(replace_term(t, SWAP), SWAP) == t


def test_swap_is_a_homomorphism():
    rng = random.Random(102)
    for _ in range(250):
        a, b = _rand_term(rng, 2), _rand_term(rng, 2)
        assert replace_term(Pair(a, b), SWAP) == Pair(replace_term(a, SWAP),
                                                      replace_term(b, SWAP))
        assert replace_term(Enc(a, p), SWAP) == Enc(replace_term(a, SWAP), q)
        assert replace_term(App("h", (a,)), SWAP) == App("h", (replace_term(a, SWAP),))


def test_swap_fixes_everything_else():
    assert replace_term(other, SWAP) == other
    assert replace_term(d, SWAP) == e and replace_term(e, SWAP) == d
    assert replace_term(p, SWAP) == q and replace_term(q, SWAP) == p


def test_swap_on_assertions_renormalizes():
    rng = random.Random(103)
    for _ in range(200):
        a = Eq(_rand_term(rng, 2), _rand_term(rng, 2))
        sw = swp_assertion(SWAP, a)
        assert sw == normalize(sw)
        assert swp_assertion(SWAP, sw) == normalize(a)


def test_derive_swap_reads_the_run():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    spec = derive_swap(run)
    # each voter's cast, its spec.cast-th own step, really is its anonymous send
    for sess in spec.sessions:
        assert [s for s in run.steps if s.session == sess][spec.cast].action.kind == "send*"


def _elector_foo():  # foo with its voter role named elector
    return parse_protocol(FOO_SOURCE.replace("role voter(", "role elector(")
                          .replace("; voter(id=V", "; elector(id=V")
                          .replace("setup Auth per voter:", "setup Auth per elector:"), "foo")


def _one_voter(run):  # foo at 2 voters: sessions 3 and 4 are the voters
    return replace(run, setup=replace(run.setup, sessions=run.setup.sessions[:3]))


def _cut_before_a_cast(run):
    spec = derive_swap(run)
    casts = [[n for n, s in enumerate(run.steps) if s.session == v][spec.cast]
             for v in spec.sessions]
    return replace(run, steps=run.steps[:min(casts)])


# (what is wrong, protocol, edit of its seed-0 run, derive_swap's arguments, refusal)
SWAP_REFUSALS = [
    ("no voter role", _elector_foo, None, {}, "no role named 'voter'"),
    ("unknown role", builtin_foo, None, {"voter_role": "nobody"},
     "no role named 'nobody'"),
    ("one send", builtin_foo, None, {"voter_role": "authority"},
     "role 'authority' does not commit then cast"),
    ("one voter session", builtin_foo, _one_voter, {},
     "need at least two 'voter' sessions, found 1"),
    ("a counter in the pair", builtin_foo, None, {"swap_sessions": (3, 5)},
     "swap_sessions must name two voter sessions"),
    ("one voter twice", builtin_foo_linked, None, {"swap_sessions": (3, 3)},
     "swap_sessions must name two voter sessions"),
    ("cut before a cast", builtin_foo, _cut_before_a_cast, {},
     "session 3 did not finish its role"),
]


@pytest.mark.parametrize("case", SWAP_REFUSALS, ids=[c[0] for c in SWAP_REFUSALS])
def test_derive_swap_refusals(case):
    _, make, edit, kwargs, text = case
    proto = make()
    run, _ = simulate(proto, anonymity_foo_setup(proto), seed=0)
    if edit is not None:
        run = edit(run)
    with pytest.raises(ValueError) as err:
        derive_swap(run, **kwargs)
    assert str(err.value) == text


def test_build_swapped_is_a_valid_run():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state_l = simulate(proto, setup, seed=2)
    swapped = build_swapped(run, derive_swap(run))
    ok, problems, state_r = validate_run(swapped)
    assert ok, problems
    # the observer's view of the twin is exactly the swapped view
    m = swap_of(state_l, state_r)
    kl = state_l.knowledge[OBSERVER]
    kr = state_r.knowledge[OBSERVER]
    assert {replace_term(t, m) for t in kl.terms} == set(kr.terms)
    assert {normalize(map_terms(a, lambda t: replace_term(t, m)))
            for a in kl.assertions} == set(kr.assertions)


def test_build_swapped_is_involutive_on_traffic():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=4)
    spec = derive_swap(run)
    twice = build_swapped(build_swapped(run, spec), spec)
    assert write_trace(twice) == write_trace(run)


def _swap_and_view(seed: int = 0):
    """σ of foo's seed's run and its twin, and the original observer view."""
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state = simulate(proto, setup, seed=seed)
    twin = validate_run(build_swapped(run, derive_swap(run)))[2]
    return swap_of(state, twin), state.knowledge[OBSERVER]


def test_safety_holds_for_the_voting_scenario():
    swap, k = _swap_and_view()
    ctx = DeriveContext(frozenset(k.terms), frozenset(k.assertions))
    ok, reasons = check_safety(ctx, swap)
    assert ok, reasons


def test_safety_fails_when_a_commitment_key_leaks():
    swap, k = _swap_and_view()
    key = next(t.key for t in swap if isinstance(t, Enc))
    leaked = frozenset(k.terms) | {key}
    ctx = DeriveContext(leaked, frozenset(k.assertions))
    ok, reasons = check_safety(ctx, swap)
    assert not ok
    assert reasons


def test_deterministic_battery_covers_sent_facts():
    tests = deterministic_tests(3, [Basic("Auth", "agent")], [other], [1])
    templates = [t for t in tests if not isinstance(t, tuple)]
    assert any("sent" in print_assertion(t) for t in templates)
    kinds = {type(t).__name__ for t in templates}
    assert "SentT" in kinds and "Eq" in kinds
    # probes for sent assertions carry a traffic index instead of a template
    assert (1, Basic("Auth", "agent")) in tests


def test_a_random_distinguisher_is_described_by_its_template(monkeypatch):
    # no traffic, so the deterministic block is empty; the left view holds
    # a closed fact the right one lacks, and the seeded random tests find
    # it.  Only the distinguisher is printed, and its text is the test.
    proto = builtin_foo()
    fact = Pred("valid", (Basic("v0", "nonce"),))
    printed = []

    def counted(a):
        printed.append(print_assertion(a))
        return printed[-1]

    monkeypatch.setattr(anonymity, "print_assertion", counted)
    no_traffic = SimpleNamespace(traffic=[])
    dist, total, det, inconclusive = run_battery(
        DeriveContext((), [fact]), DeriveContext((), []), no_traffic, no_traffic,
        proto, 4, 500, 3)
    assert (dist, total, det, inconclusive) == (
        anonymity.TestOutcome("ex x: valid(x)", "yes", "no"), 31, 0, 0)
    assert printed == [dist.desc]
    test = parse_assertion(dist.desc, proto.decls)
    assert DeriveContext((), [fact]).query(test).derivable
    assert not DeriveContext((), []).query(test).derivable


def test_full_check_reports_indistinguishable():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    rep = check_anonymity(proto, setup, seed=0, tests=120)
    assert rep.verdict == "indistinguishable"
    assert rep.inconclusive == 0
    assert rep.safety_ok
    assert rep.tests_total >= 120
    text = render_report(rep)
    assert "indistinguishable" in text


def test_linked_variant_is_distinguished():
    proto = builtin_foo_linked()
    setup = anonymity_foo_setup(proto)
    rep = check_anonymity(proto, setup, seed=0, tests=120)
    assert rep.verdict == "distinguished"
    assert rep.distinguisher is not None
    assert rep.distinguisher.left != rep.distinguisher.right
    assert "sent" in rep.distinguisher.desc


def test_the_observer_is_saturated_once_per_run(monkeypatch):
    # check_anonymity takes both observer contexts from the one table the
    # run and its swapped twin share, which already holds each final view
    # saturated: one saturation per check (the swap maps foo's view onto
    # itself).  This test's own run and states go first, or their table
    # would answer for the check's
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state_l = simulate(proto, setup, seed=0)
    state_r = validate_run(build_swapped(run, derive_swap(run)))[2]
    assert state_r.contexts is state_l.contexts is run.contexts
    views = {state.knowledge[OBSERVER].terms for state in (state_l, state_r)}
    del run, state_l, state_r
    made = Counter()
    init = DYContext.__init__

    def counted(self, X):
        made[frozenset(X)] += 1
        init(self, X)

    monkeypatch.setattr(DYContext, "__init__", counted)
    assert check_anonymity(proto, setup, seed=0, tests=20).verdict == "indistinguishable"
    assert sum(made[view] for view in views) == 1


def test_multi_voter_check_passes():
    proto = builtin_foo()
    for voters, seed in ((3, 1), (4, 2)):
        setup = anonymity_foo_setup(proto, voters)
        rep = check_anonymity(proto, setup, seed=seed, tests=60)
        assert rep.verdict == "indistinguishable", rep.notes
        assert rep.inconclusive == 0


def test_verdict_does_not_depend_on_the_swapped_pair():
    # metamorphic: the three voters of foo are symmetric, so whichever pair
    # is swapped the verdict is the same; foo-linked is caught for each pair
    foo, linked = builtin_foo(), builtin_foo_linked()
    for proto, want in ((foo, "indistinguishable"), (linked, "distinguished")):
        setup = anonymity_foo_setup(proto, 3)
        for pair in ((4, 5), (4, 6), (5, 6)):
            rep = check_anonymity(proto, setup, seed=0, tests=100, swap_sessions=pair)
            assert rep.verdict == want, (proto.name, pair, rep.notes)


def test_report_rendering_mentions_everything():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    rep = check_anonymity(proto, setup, seed=1, tests=40)
    text = render_report(rep)
    assert "foo" in text and "seed=1" in text
    assert "safety" in text


def _failed(proto, why: list[str]) -> str:
    return "\n".join([f"anonymity {proto.name} seed=0 verdict=failed tests=0 inconclusive=0",
                      "  safety: not established", *(f"  note: {w}" for w in why)])


def test_a_run_that_does_not_complete_fails_the_check():
    proto = builtin_foo()
    rep = check_anonymity(proto, anonymity_foo_setup(proto), budget=SearchBudget(node_cap=1))
    assert render_report(rep) == _failed(proto, ["no completing run found"])


def test_a_run_without_a_swap_fails_the_check():
    proto = builtin_foo()
    rep = check_anonymity(proto, anonymity_foo_setup(proto), voter_role="counter")
    assert render_report(rep) == _failed(proto, ["role 'counter' does not commit then cast"])


def test_a_swapped_run_that_is_not_valid_fails_the_check():
    # no phase separates helios's casts: when the first voter casts at step
    # 6, the other has not reached its cast, so the twin cannot cast there
    proto = builtin_helios()
    rep = check_anonymity(proto, default_helios_setup(proto))
    assert render_report(rep) == _failed(proto, [
        "the vote-swapped run is not a valid run",
        "step 6: session 2 has no cast pending"])


@pytest.mark.parametrize("commit", ["{v}k", "(id, {v}k)"], ids=["sent alone", "sent in a pair"])
def test_an_observer_holding_a_commitment_key_is_inconclusive(commit):
    # the observer starts out holding the first voter's commitment key; the
    # swap read off the traffic exchanges the two commitments only, so both
    # views agree beyond it, and safety finds the key derivable, also when
    # the swapped messages carry the commitments inside a pair
    proto = parse_protocol(f"""\
protocol keyed
phases commit, cast
agents V0, V1
nonces v0, v1
keys k0, k1

role voter(v, k):
  send id : {commit}
  @cast send* id : v
""", "keyed")
    k0, k1 = Basic("k0", "key"), Basic("k1", "key")
    sessions = parse_sessions("voter(id=V0, v=v0, k=k0); voter(id=V1, v=v1, k=k1)", proto)
    both = {"V0": {k0, k1}, "V1": {k0, k1}}
    rep = check_anonymity(proto, Setup(sessions, both), tests=20)
    assert rep.verdict == "indistinguishable"
    rep = check_anonymity(proto, Setup(sessions, {**both, "I": {k0}}), tests=20)
    assert render_report(rep) == "\n".join([
        "anonymity keyed seed=0 verdict=inconclusive tests=58 inconclusive=0",
        "  safety: not established",
        "  note: commitment key k0 is derivable"])


def test_the_swap_read_off_the_traffic_exchanges_the_first_sends():
    # on foo the twin differs from its original only in the two swapped
    # voters' first sends, their commitments
    proto = builtin_foo()
    for voters in (2, 3, 4):
        setup = anonymity_foo_setup(proto, voters)
        for seed in range(5):
            run, state_l = simulate(proto, setup, seed=seed)
            spec = derive_swap(run)
            state_r = validate_run(build_swapped(run, spec))[2]
            d, e = (next(s.action.term for s in run.steps if s.session == i)
                    for i in spec.sessions)
            assert swap_of(state_l, state_r) == {d: e, e: d}, (voters, seed)


def _foo_mutant(old: str, new: str):
    """foo with one line edited, and its two-voter anonymity set-up."""
    assert FOO_SOURCE.count(old) == 1
    proto = parse_protocol(FOO_SOURCE.replace(old, new), "foo")
    return proto, builtin_setup("foo", proto, anonymity=True)


def test_a_vote_sent_in_clear_is_distinguished():
    # the twin sends the other vote in that message, which a deterministic
    # test compares with v0
    proto, setup = _foo_mutant("  @vote send* id fresh(kc)",
                               "  send id : v\n  @vote send* id fresh(kc)")
    for seed in range(5):
        rep = check_anonymity(proto, setup, seed=seed)
        assert rep.verdict == "distinguished", (seed, rep.notes)
        assert "  distinguishing test: _h4 = v0" in render_report(rep).splitlines()


def test_a_vote_named_in_an_assertion_differs_beyond_the_swap():
    # before its cast each voter says its commitment hides v: the twin's
    # assertion names the other vote, which σ does not map, and no test of
    # the battery tells the two views apart
    proto, setup = _foo_mutant(
        "  @vote send* id fresh(kc)",
        "  send id : id, id says (ex x, r: ({x}r = {v}k /\\ x = v))\n  @vote send* id fresh(kc)")
    for seed in range(3):
        assert render_report(check_anonymity(proto, setup, seed=seed)) == "\n".join([
            f"anonymity foo seed={seed} verdict=inconclusive tests=795 inconclusive=0",
            "  safety: ok",
            "  note: observer assertion knowledge differs beyond the swap"])


def test_a_cast_that_carries_the_commitment_key_is_checked():
    # the twin casts the same message: the key travels with the cast, and
    # safety finds it derivable
    proto, setup = _foo_mutant("send* id fresh(kc) : ({v}kc, kc),",
                               "send* id fresh(kc) : (({v}kc, kc), k),")
    for seed in range(3):
        rep = check_anonymity(proto, setup, seed=seed)
        assert rep.verdict != "failed", (seed, rep.notes)
        assert "commitment key k_3 is derivable" in rep.notes


def test_a_receive_of_a_message_no_step_sent_is_refused():
    # a parsed trace is not validated: here the authority receives a
    # commitment that V0 never sent
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    text = write_trace(run)
    assert text.count("env={v0}k_3") == 1
    forged = parse_trace(text.replace("env={v0}k_3", "env={v1}k_3"), proto, setup)
    with pytest.raises(ValueError) as err:
        build_swapped(forged, derive_swap(forged))
    assert str(err.value) == "step 3: no earlier step sends the message it receives"


def test_a_step_of_a_finished_session_is_refused():
    # a hand-built run may record a step for a session already done with
    # its role; the twin refuses it in the words of the replay
    proto = builtin_foo()
    run, _ = simulate(proto, anonymity_foo_setup(proto), seed=0)
    spec = derive_swap(run)
    assert len(run.steps) == 20 and run.steps[-1].session == 6
    extra = replace(run, steps=run.steps + run.steps[-1:])
    with pytest.raises(ValueError) as err:
        build_swapped(extra, spec)
    assert str(err.value) == "step 21: session 6 already finished"
    assert validate_run(extra)[1][-1] == "step 21: session 6 already finished"


VOTER = """\
phases commit, cast
agents V0, V1, C
nonces v0, v1
predicates p/1

role voter(v):
  send id : (id, v)
  @cast send* id : v
"""

# (what breaks, the protocol's other lines, its sessions beside the voters, note)
BROKEN_TWINS = [
    ("a receive left unmatched", "\nrole collector:\n  recv id : (W, v0)\n",
     "; collector(id=C)", "step 3: the receive no longer matches step 1's message"),
]


@pytest.mark.parametrize("case", BROKEN_TWINS, ids=[c[0] for c in BROKEN_TWINS])
def test_a_twin_the_exchange_breaks_is_refused_at_its_step(case):
    # the collector reads V0's first send as (W, v0), which the twin sends
    # as (V0, v1)
    _, lines, others, note = case
    proto = parse_protocol("protocol broken\n" + VOTER + lines, "broken")
    sessions = parse_sessions("voter(id=V0, v=v0); voter(id=V1, v=v1)" + others, proto)
    rep = check_anonymity(proto, Setup(sessions), tests=20)
    assert render_report(rep) == _failed(proto, [
        "the vote-swapped run is not a valid run", note])


def test_a_step_after_the_cast_is_exchanged_with_the_cast():
    # both commit, then V0 casts and inserts before V1 does: the twin's V1
    # casts and inserts in V0's place, and the observer tells the two runs
    # apart by the first sends, which carry each voter's id with its vote
    proto = parse_protocol("protocol after\n" + VOTER + "  insert id : p(v)\n", "after")
    sessions = parse_sessions("voter(id=V0, v=v0); voter(id=V1, v=v1)", proto)
    run, _ = simulate(proto, Setup(sessions))
    twin = build_swapped(run, derive_swap(run))
    assert [s.session for s in run.steps] == [1, 2, 1, 1, 2, 2]
    assert [s.session for s in twin.steps] == [1, 2, 2, 2, 1, 1]
    assert render_report(check_anonymity(proto, Setup(sessions))) == "\n".join([
        "anonymity after seed=0 verdict=distinguished tests=169 inconclusive=0",
        "  safety: ok",
        "  distinguishing test: ex x: V1 sent (V1, _h3)",
        "    original run: no   swapped run: yes"])


def test_a_voter_that_did_not_finish_its_role_is_refused():
    # both voters have cast, and the second has its insert to go
    proto = parse_protocol("protocol unfinished\n" + VOTER + "  insert id : p(v)\n", "unfinished")
    sessions = parse_sessions("voter(id=V0, v=v0); voter(id=V1, v=v1)", proto)
    run, _ = simulate(proto, Setup(sessions))
    assert [s.session for s in run.steps] == [1, 2, 1, 1, 2, 2]
    with pytest.raises(ValueError) as err:
        derive_swap(replace(run, steps=run.steps[:5]))
    assert str(err.value) == "session 2 did not finish its role"


def test_each_run_checks_the_safety_of_the_messages_it_sends(monkeypatch):
    # σ maps (V0, v0) to (V0, v1) and (V1, v1) to (V1, v0), which is no
    # involution: the twin's check takes the twin's own messages
    checked = []

    def recording(ctx, swap):
        checked.append(set(swap))
        return real(ctx, swap)

    real = anonymity.check_safety
    monkeypatch.setattr(anonymity, "check_safety", recording)
    proto = parse_protocol("protocol paired\n" + VOTER, "paired")
    sessions = parse_sessions("voter(id=V0, v=v0); voter(id=V1, v=v1)", proto)
    check_anonymity(proto, Setup(sessions), tests=20)
    V0, V1 = Basic("V0", "agent"), Basic("V1", "agent")
    v0, v1 = Basic("v0", "nonce"), Basic("v1", "nonce")
    assert checked == [{Pair(V0, v0), Pair(V1, v1)}, {Pair(V0, v1), Pair(V1, v0)}]
