from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from protassert import (
    App,
    Basic,
    DeriveContext,
    Enc,
    Eq,
    Pair,
    SwapSpec,
    build_swapped,
    check_anonymity,
    check_safety,
    derive_swap,
    normalize,
    render_report,
    simulate,
    validate_run,
    write_trace,
)
from protassert.anonymity import (
    deterministic_tests,
    swp_assertion,
    swp_term,
)
from protassert.assertions import Pred, SentT, map_terms
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
)
from protassert.dy import DYContext
from protassert.terms import replace_term

d = Basic("dc", "nonce")
e = Basic("ec", "nonce")
p = Basic("pk", "key")
q = Basic("qk", "key")
other = Basic("other", "nonce")

SPEC = SwapSpec(sessions=(1, 2),
                agents=(Basic("V0", "agent"), Basic("V1", "agent")),
                commits=(d, e), keys=(p, q), cast_steps=(1, 2))


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
        assert swp_term(SPEC, swp_term(SPEC, t)) == t


def test_swap_is_a_homomorphism():
    rng = random.Random(102)
    for _ in range(250):
        a, b = _rand_term(rng, 2), _rand_term(rng, 2)
        assert swp_term(SPEC, Pair(a, b)) == Pair(swp_term(SPEC, a),
                                                  swp_term(SPEC, b))
        assert swp_term(SPEC, Enc(a, p)) == Enc(swp_term(SPEC, a), q)
        assert swp_term(SPEC, App("h", (a,))) == App("h", (swp_term(SPEC, a),))


def test_swap_fixes_everything_else():
    assert swp_term(SPEC, other) == other
    assert swp_term(SPEC, d) == e and swp_term(SPEC, e) == d
    assert swp_term(SPEC, p) == q and swp_term(SPEC, q) == p


def test_swap_on_assertions_renormalizes():
    rng = random.Random(103)
    for _ in range(200):
        a = Eq(_rand_term(rng, 2), _rand_term(rng, 2))
        sw = swp_assertion(SPEC, a)
        assert sw == normalize(sw)
        assert swp_assertion(SPEC, sw) == normalize(a)


def test_derive_swap_reads_the_run():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, _ = simulate(proto, setup, seed=0)
    spec = derive_swap(run)
    assert spec.agents[0] != spec.agents[1]
    assert spec.commits[0] != spec.commits[1]
    assert spec.keys is not None
    # the cast steps really are the anonymous sends of the two voters
    for idx, sess in zip(spec.cast_steps, spec.sessions):
        step = run.steps[idx - 1]
        assert step.session == sess
        assert step.action.kind == "send*"


def _without_voter_params(run):  # nothing tells foo-linked's voter sessions apart
    sessions = [(r, {"id": s["id"]}) for r, s in run.setup.sessions]
    return replace(run, setup=replace(run.setup, sessions=sessions))


def _one_voter(run):  # foo at 2 voters: sessions 3 and 4 are the voters
    return replace(run, setup=replace(run.setup, sessions=run.setup.sessions[:3]))


def _cut_before_a_cast(run):
    return replace(run, steps=run.steps[:min(derive_swap(run).cast_steps) - 1])


# (what is wrong, protocol, edit of its seed-0 run, derive_swap's arguments, refusal)
SWAP_REFUSALS = [
    ("no voter role", builtin_foo_linked, _without_voter_params, {},
     "cannot infer the voter role, pass it explicitly"),
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
    spec = derive_swap(run)
    swapped = build_swapped(run, spec)
    ok, problems, state_r = validate_run(swapped)
    assert ok, problems
    # the observer's view of the twin is exactly the swapped view
    m = spec.swap_map()
    kl = state_l.knowledge[setup.intruder]
    kr = state_r.knowledge[setup.intruder]
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


def test_safety_holds_for_the_voting_scenario():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state = simulate(proto, setup, seed=0)
    spec = derive_swap(run)
    k = state.knowledge[setup.intruder]
    ctx = DeriveContext(frozenset(k.terms), frozenset(k.assertions))
    ok, reasons = check_safety(ctx, spec)
    assert ok, reasons


def test_safety_fails_when_a_commitment_key_leaks():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state = simulate(proto, setup, seed=0)
    spec = derive_swap(run)
    k = state.knowledge[setup.intruder]
    leaked = frozenset(k.terms) | {spec.keys[0]}
    ctx = DeriveContext(leaked, frozenset(k.assertions))
    ok, reasons = check_safety(ctx, spec)
    assert not ok
    assert reasons


def test_deterministic_battery_covers_sent_facts():
    tests = deterministic_tests(3, [Basic("Auth", "agent")], [other], [1])
    descs = [desc for desc, _, _, _ in tests]
    assert any("sent" in t for t in descs)
    kinds = {type(a).__name__ for _, a, _, _ in tests if a is not None}
    assert "SentT" in kinds and "Eq" in kinds
    # probes for sent assertions carry a traffic index instead of a template
    assert any(a is None and i == 1 for _, a, i, _ in tests)


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
    # check_anonymity takes both observer contexts from the run tables,
    # which already hold each final view saturated: one saturation per
    # table (the swap maps foo's view onto itself, so both count for it)
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    run, state_l = simulate(proto, setup, seed=0)
    state_r = validate_run(build_swapped(run, derive_swap(run)))[2]
    views = [state.knowledge[setup.intruder].terms for state in (state_l, state_r)]
    made = Counter()
    init = DYContext.__init__

    def counted(self, X):
        made[frozenset(X)] += 1
        init(self, X)

    monkeypatch.setattr(DYContext, "__init__", counted)
    assert check_anonymity(proto, setup, seed=0, tests=20).verdict == "indistinguishable"
    assert sum(made[view] for view in set(views)) == 2


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
