"""End-to-end acceptance checks.

Each test covers one headline capability and prints a single PASS or FAIL
line for it.  The checks recompute everything from scratch so a green run
here vouches for the whole toolchain, not for any cached result.
"""
from __future__ import annotations

import random
import re
import time

import protassert.checker as checker
import protassert.engine as engine
from protassert import (
    App,
    Basic,
    DeriveContext,
    DYContext,
    Enc,
    Pair,
    build_swapped,
    check_anonymity,
    check_safety,
    derive,
    derive_safe,
    derive_swap,
    dy_derive,
    normalize,
    simulate,
    validate_run,
    write_trace,
)
from protassert.anonymity import swp_assertion
from protassert.assertions import And, Eq, Exists, Or, Pred, Says, SentT
from protassert.builtins import (
    Setup,
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.checker import replay_assertion_proof, replay_term_proof
from protassert.protocol import action_subst
from protassert.runtime import (
    OBSERVER,
    Run,
    SessionState,
    Step,
    _copy_state,
    apply_candidate,
    candidates_for,
    initial_state,
)
from protassert.syntax import parse_sequent, print_term
from protassert.terms import Var, replace_term, sk

from oracles import oracle_dy, random_instance

LEAK = """\
nonces: v, 0, 1, 2
keys: k
terms: {v}k
assertions:
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 1))
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 2))
goal: ex y: {v}k = {0}y
"""


def _report(n: int, problems: list[str], detail: str) -> None:
    ok = not problems
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} "
          f"({detail if ok else '; '.join(problems[:4])})")
    assert ok, f"criterion {n}: {problems[:4]}"


def _rules(node, acc=None):
    if acc is None:
        acc = set()
    acc.add(node.rule)
    for q in node.premises:
        _rules(q, acc)
    return acc


# ---------------------------------------------------------------------------
# 1. two disjunctive certificates about one ciphertext leak the plaintext

def test_criterion_1_certificate_vote_leak():
    problems: list[str] = []
    seq = parse_sequent(LEAK, "leak")
    t0 = time.perf_counter()
    v = derive(seq.terms, seq.assertions, seq.goal)
    dt = time.perf_counter() - t0
    if not v.derivable:
        problems.append("goal not derivable")
    else:
        rules = _rules(v.proof)
        for r in ("exists_e", "or_e", "proj_enc", "trans"):
            if r not in rules:
                problems.append(f"proof never uses {r}")
        ok, why = replay_assertion_proof(v.proof, seq.terms, seq.assertions,
                                         seq.goal)
        if not ok:
            problems.append(f"proof replay failed: {why}")
    if dt >= 1.0:
        problems.append(f"derivation took {dt:.2f}s")
    sv = derive_safe(seq.terms, seq.assertions, seq.goal)
    if sv.derivable:
        problems.append("monotone-rule mode still derives the leak")
    if sv.budget_exhausted:
        problems.append("monotone-rule refusal is not definite")
    _report(1, problems,
            f"leak derived and replayed in {dt * 1000:.0f}ms, "
            f"refused under monotone rules")


# ---------------------------------------------------------------------------
# 2. message derivation agrees with an independent closure oracle

def test_criterion_2_term_engine_matches_oracle():
    problems: list[str] = []
    rng = random.Random(20260822)
    mismatches = 0
    positives = 0
    replay_failures = 0
    for _ in range(1000):
        X, q = random_instance(rng)
        got = dy_derive(X, q)
        if got.derivable != oracle_dy(X, q):
            mismatches += 1
            continue
        if got.derivable:
            positives += 1
            ok, _ = replay_term_proof(got.proof, X)
            if not ok:
                replay_failures += 1
    if mismatches:
        problems.append(f"{mismatches} oracle mismatches")
    if replay_failures:
        problems.append(f"{replay_failures} term proofs failed replay")
    if positives < 100:
        problems.append(f"only {positives} positive instances")
    _report(2, problems,
            f"1000 random instances, 0 mismatches, "
            f"{positives} positive proofs replayed")


# ---------------------------------------------------------------------------
# 3. every positive verdict carries a proof the rule checker accepts

def test_criterion_3_positive_verdicts_replay():
    problems: list[str] = []
    if not engine.REPLAY_CHECK:
        problems.append("proof replay checking is switched off for the suite")
    before = dict(checker.STATS)
    A = Basic("A", "agent")
    n = Basic("n", "nonce")
    m = Basic("m", "nonce")
    k = Basic("k", "key")
    rng = random.Random(424242)
    positives = 0
    failures = 0

    def ground(depth):
        pool = [A, n, m, k]
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice(pool)
        if rng.random() < 0.6:
            return Pair(ground(depth - 1), ground(depth - 1))
        return Enc(ground(depth - 1), k)

    def flat(depth):
        if depth <= 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                return Pred(rng.choice("pq"), (ground(1),))
            return Eq(ground(1), ground(1))
        if rng.random() < 0.5:
            return And(flat(depth - 1), flat(depth - 1))
        return Or(flat(depth - 1), flat(depth - 1))

    queries = [(parse_sequent(LEAK, "leak"), None)]
    for seq, _ in queries:
        v = derive(seq.terms, seq.assertions, seq.goal)
        if v.derivable:
            positives += 1
            ok, why = replay_assertion_proof(v.proof, seq.terms,
                                             seq.assertions, seq.goal)
            if not ok:
                failures += 1
    for _ in range(200):
        X = frozenset(ground(2) for _ in range(rng.randint(0, 3)))
        phi = frozenset(flat(2) for _ in range(rng.randint(1, 3)))
        goal = flat(2)
        v = derive(X, phi, goal)
        if v.derivable:
            positives += 1
            ok, why = replay_assertion_proof(v.proof, X, phi, normalize(goal))
            if not ok:
                failures += 1
    after = checker.STATS
    if failures:
        problems.append(f"{failures} of {positives} proofs failed replay")
    if positives < 50:
        problems.append(f"only {positives} positive verdicts to replay")
    if after["assertion"] <= before["assertion"]:
        problems.append("the rule checker never ran")
    _report(3, problems,
            f"{positives} positive verdicts replayed, 0 failures, "
            f"checker active for the whole suite")


# ---------------------------------------------------------------------------
# 4. vote privacy of the commitment scheme under a fully armed observer

def test_criterion_4_vote_privacy_battery():
    problems: list[str] = []
    proto = builtin_foo()
    t0 = time.perf_counter()
    for seed in range(20):
        voters = 2 + (seed % 3)
        setup = anonymity_foo_setup(proto, voters)
        st = initial_state(proto, setup)
        k_obs = st.knowledge[OBSERVER].terms
        for insider in ("Auth", "Cnt"):
            if not st.knowledge[insider].terms <= k_obs:
                problems.append(f"seed {seed}: observer lacks {insider}'s keys")
        rep = check_anonymity(proto, setup, seed=seed, tests=500)
        if rep.verdict != "indistinguishable":
            problems.append(f"seed {seed}: verdict {rep.verdict} {rep.notes[:2]}")
        if rep.inconclusive:
            problems.append(f"seed {seed}: {rep.inconclusive} inconclusive tests")
        if rep.tests_total != rep.deterministic + 500:
            problems.append(f"seed {seed}: ran {rep.tests_total} tests, "
                            f"expected {rep.deterministic} + 500")
        if not rep.safety_ok:
            problems.append(f"seed {seed}: commitment safety failed")
    dt = time.perf_counter() - t0
    if dt > 600:
        problems.append(f"battery took {dt:.0f}s, limit 600s")
    _report(4, problems,
            f"20 seeds with 2 to 4 voters indistinguishable, "
            f"0 inconclusive, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 5. the identity-revealing variant is caught, with a replayable witness

def _observer_contexts(proto, setup, seed):
    run, state_l = simulate(proto, setup, seed=seed)
    spec = derive_swap(run)
    swapped = build_swapped(run, spec)
    ok, _, state_r = validate_run(swapped)
    assert ok
    kl = state_l.knowledge[OBSERVER]
    kr = state_r.knowledge[OBSERVER]
    ctx_l = DeriveContext(frozenset(kl.terms), frozenset(kl.assertions))
    ctx_r = DeriveContext(frozenset(kr.terms), frozenset(kr.assertions))
    return run, state_l, state_r, ctx_l, ctx_r


def _cast_traffic_indices(run) -> set[int]:
    idxs = set()
    ti = 0
    for step in run.steps:
        if step.action.kind not in ("send", "send*"):
            continue
        ti += 1
        role = run.setup.sessions[step.session - 1][0]
        if role == "voter" and step.action.phase > 0:
            idxs.add(ti)
    return idxs


def test_criterion_5_linked_casts_are_distinguished():
    problems: list[str] = []
    mut = builtin_foo_linked()
    setup = anonymity_foo_setup(mut)
    witness = ""
    for seed in range(20):
        rep = check_anonymity(mut, setup, seed=seed, tests=500)
        if rep.verdict != "distinguished":
            problems.append(f"seed {seed}: verdict {rep.verdict}")
            continue
        d = rep.distinguisher
        m = re.fullmatch(r"(\w+) sent _h(\d+)", d.desc)
        if m is None:
            m = re.fullmatch(r"(\w+) sent the assertion of message (\d+)", d.desc)
        if m is None:
            problems.append(f"seed {seed}: distinguisher {d.desc!r} "
                            f"is not a sent fact")
            continue
        agent, idx = Basic(m.group(1), "agent"), int(m.group(2))
        run, state_l, state_r, ctx_l, ctx_r = _observer_contexts(mut, setup, seed)
        if idx not in _cast_traffic_indices(run):
            problems.append(f"seed {seed}: message {idx} is not a cast")
        if "assertion" in d.desc:
            from protassert.assertions import SentA
            a_l = SentA(agent, state_l.traffic[idx - 1].assertion)
            a_r = SentA(agent, state_r.traffic[idx - 1].assertion)
        else:
            a_l = SentT(agent, state_l.traffic[idx - 1].term)
            a_r = SentT(agent, state_r.traffic[idx - 1].term)
        got_l = "yes" if ctx_l.query(normalize(a_l)).derivable else "no"
        got_r = "yes" if ctx_r.query(normalize(a_r)).derivable else "no"
        if (got_l, got_r) != (d.left, d.right) or got_l == got_r:
            problems.append(f"seed {seed}: witness does not replay "
                            f"({got_l}, {got_r}) vs ({d.left}, {d.right})")
        witness = d.desc
    _report(5, problems,
            f"20 seeds distinguished, witness {witness!r} replayed each time")


# ---------------------------------------------------------------------------
# 6. replayed submissions die at the gate, double votes at the refusal

def test_criterion_6_replay_and_double_vote_prevention():
    problems: list[str] = []
    I = Basic("I", "agent")

    # --- ballot replay under a new identity in the helios model ---
    hp = builtin_helios()
    hs = default_helios_setup(hp)
    hrun, hstate = simulate(hp, hs, seed=0)
    if not hrun.complete:
        problems.append("helios run did not complete")
    hkI = hstate.knowledge[OBSERVER]
    v0 = Basic("v0", "nonce")
    forged = normalize(Says(Basic("Scr", "agent"), Exists("u",
        And(Eq(App("ballot", (v0,)), App("ballot", (Var("u"),))),
            Says(I, Pred("valid", (Var("u"),)))))))
    fv = derive(frozenset(hkI.terms), frozenset(hkI.assertions), forged)
    if fv.derivable:
        problems.append("helios: resubmission certificate is derivable")
    if fv.budget_exhausted:
        problems.append("helios: refusal is not definite")
    genuine = [a for a in hkI.assertions
               if isinstance(a, Says) and a.agent == Basic("Scr", "agent")
               and isinstance(a.body, Exists)]
    if not genuine or not derive(frozenset(hkI.terms),
                                 frozenset(hkI.assertions),
                                 normalize(genuine[0])).derivable:
        problems.append("helios: genuine certificate should stay derivable")

    ht = _copy_state(hstate)
    ht.sessions.append(SessionState("admin", {"id": Basic("Adm", "agent")}))
    hidx = len(ht.sessions) - 1
    cands, _ = candidates_for(ht, hidx)
    ws = {print_term(dict(c.binds)["W1"]) for c in cands}
    if "I" in ws:
        problems.append("helios: the gate admits a ballot in the observer's name")
    if not ws & {"V0", "V1"}:
        problems.append("helios: replayed ballots never reach the gate")

    # a scripted resubmission forced into the trace is rejected for the
    # missing certificate
    admin = hp.roles["admin"]
    sigma = {"id": Basic("Adm", "agent"), "W1": I, "w1": v0}
    forced = action_subst(admin.actions[0], sigma)
    hs2 = Setup(sessions=[*hs.sessions, ("admin", {"id": Basic("Adm", "agent")})],
                agent_terms=hs.agent_terms,
                agent_assertions=hs.agent_assertions)
    hsteps = list(hrun.steps) + [
        Step(len(hs2.sessions), forced,
             binds=(("W1", I), ("w1", v0)))]
    ok, why, _ = validate_run(Run(hp, hs2, None, hsteps, complete=False))
    if ok:
        problems.append("helios: forced resubmission passed validation")
    elif not any("cannot justify the assertion" in p for p in why):
        problems.append(f"helios: rejected for the wrong reason {why[:2]}")

    # double voting: replaying a recorded ballot wedges the admin at deny
    replays = [c for c in cands if print_term(dict(c.binds)["W1"]) == "V0"]
    apply_candidate(ht, replays[0])
    after, wedged = candidates_for(ht, hidx)
    if after or not wedged:
        problems.append("helios: double vote not refused at deny")

    # --- the commitment scheme: replaying an envelope is double voting ---
    fp = builtin_foo()
    fs = default_foo_setup(fp)
    frun, fstate = simulate(fp, fs, seed=0)
    if not frun.complete:
        problems.append("foo run did not complete")
    d = next(tr.term for tr in fstate.traffic
             if tr.sender == "V0" and isinstance(tr.term, Enc))
    ft = _copy_state(fstate)
    Auth = Basic("Auth", "agent")
    ft.sessions.append(SessionState("authority", {"id": Auth}))
    fidx = len(ft.sessions) - 1
    cands, _ = candidates_for(ft, fidx)
    replays = [c for c in cands if dict(c.binds)["W"] == Basic("V0", "agent")]
    if not replays:
        problems.append("foo: recorded envelope cannot even be replayed")
    else:
        apply_candidate(ft, replays[0])
        after, wedged = candidates_for(ft, fidx)
        if after or not wedged:
            problems.append("foo: double vote not refused at deny")

    # the same scripted replay written into the trace is rejected at deny
    auth = fp.roles["authority"]
    sigma = {"id": Auth, "W": Basic("V0", "agent"), "env": d}
    fs2 = Setup(sessions=[*fs.sessions, ("authority", {"id": Auth})],
                agent_terms=fs.agent_terms,
                agent_assertions=fs.agent_assertions)
    extra = len(fs2.sessions)
    fsteps = list(frun.steps) + [
        Step(extra, action_subst(auth.actions[0], sigma),
             binds=(("W", Basic("V0", "agent")), ("env", d))),
        Step(extra, action_subst(auth.actions[1], sigma)),
    ]
    ok, why, _ = validate_run(Run(fp, fs2, None, fsteps, complete=False))
    if ok:
        problems.append("foo: scripted double vote passed validation")
    elif not any("deny of a derivable assertion" in p for p in why):
        problems.append(f"foo: rejected for the wrong reason {why[:2]}")

    # an envelope stolen and re-signed by the observer gets past the door
    # but the authority can never certify an ineligible name
    fkI = fstate.knowledge[OBSERVER]
    cert = next(a for a in fkI.assertions
                if isinstance(a, Says) and a.agent == Basic("V0", "agent")
                and isinstance(a.body, Exists))
    resigned = normalize(Says(I, cert.body))
    rv = derive(frozenset(fkI.terms), frozenset(fkI.assertions), resigned)
    if not rv.derivable:
        problems.append("foo: observer cannot re-sign a learned certificate")
    st = _copy_state(fstate)
    st.sessions.append(SessionState("authority", {"id": Auth}))
    j = len(st.sessions) - 1
    sigma = {"id": Auth, "W": I, "env": d}
    recv = action_subst(auth.actions[0], sigma)
    apply_candidate(st, Step(j + 1, recv, binds=(("W", I), ("env", d))))
    for _ in range(2):  # deny passes (no prior vote), insert records it
        cs, wedged = candidates_for(st, j)
        if wedged or not cs:
            problems.append("foo: observer's submission stopped early")
            break
        apply_candidate(st, cs[0])
    cs, _ = candidates_for(st, j)
    if cs:
        problems.append("foo: authority certified an ineligible name")
    eligible = derive(frozenset(st.knowledge["Auth"].terms),
                      frozenset(st.knowledge["Auth"].assertions),
                      Pred("elg", (I,)))
    if eligible.derivable or eligible.budget_exhausted:
        problems.append("foo: eligibility of the observer is not definitely refused")

    _report(6, problems,
            "resubmission certificates underivable, forced traces rejected, "
            "double votes wedge at deny, ineligible names never certified")


# ---------------------------------------------------------------------------
# 7. the algebraic property batteries

def test_criterion_7_property_batteries():
    problems: list[str] = []
    counts: dict[str, int] = {}

    # swap involution and homomorphism
    dd, ee = Basic("dc", "nonce"), Basic("ec", "nonce")
    pp, qq = Basic("pk", "key"), Basic("qk", "key")
    swap = {dd: ee, ee: dd, pp: qq, qq: pp}
    rng = random.Random(71)

    def sterm(depth):
        pool = [dd, ee, pp, qq, Basic("z", "nonce"), Basic("A", "agent")]
        if depth <= 0 or rng.random() < 0.4:
            return rng.choice(pool)
        r = rng.random()
        if r < 0.45:
            return Pair(sterm(depth - 1), sterm(depth - 1))
        if r < 0.85:
            return Enc(sterm(depth - 1), rng.choice([pp, qq]))
        return App("h", (sterm(depth - 1),))

    bad = 0
    for _ in range(220):
        t, u = sterm(3), sterm(2)
        if replace_term(replace_term(t, swap), swap) != t:
            bad += 1
        if replace_term(Pair(t, u), swap) != Pair(replace_term(t, swap),
                                                  replace_term(u, swap)):
            bad += 1
        a = Eq(t, u)
        if swp_assertion(swap, swp_assertion(swap, a)) != normalize(a):
            bad += 1
    counts["swap"] = 220
    if bad:
        problems.append(f"swap battery: {bad} failures")

    # shared generators for the derivation batteries
    A = Basic("A", "agent")
    n, m2, k = Basic("n", "nonce"), Basic("m", "nonce"), Basic("k", "key")
    rng = random.Random(72)

    def ground(depth):
        pool = [A, n, m2, k]
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice(pool)
        if rng.random() < 0.6:
            return Pair(ground(depth - 1), ground(depth - 1))
        return Enc(ground(depth - 1), k)

    def flat(depth):
        if depth <= 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                return Pred(rng.choice("pq"), (ground(1),))
            return Eq(ground(1), ground(1))
        if rng.random() < 0.5:
            return And(flat(depth - 1), flat(depth - 1))
        return Or(flat(depth - 1), flat(depth - 1))

    # growing the hypotheses never loses a conclusion
    hits = bad = 0
    for _ in range(200):
        X = frozenset(ground(2) for _ in range(rng.randint(0, 2)))
        phi = [flat(1) for _ in range(rng.randint(1, 3))]
        goal = flat(1)
        if not derive(X, phi, goal).derivable:
            continue
        hits += 1
        if not derive(X, phi + [flat(1)], goal).derivable:
            bad += 1
    counts["monotone"] = 200
    if bad or hits < 40:
        problems.append(f"monotonicity battery: {bad} failures, {hits} hits")

    # the monotone fragment only ever proves what the full calculus proves
    hits = bad = 0
    for _ in range(200):
        X = frozenset(ground(2) for _ in range(rng.randint(0, 2)))
        phi = [flat(2) for _ in range(rng.randint(1, 3))]
        goal = flat(2)
        if derive_safe(X, phi, goal).derivable:
            hits += 1
            if not derive(X, phi, goal).derivable:
                bad += 1
    counts["safe-subset"] = 200
    if bad or hits < 40:
        problems.append(f"fragment battery: {bad} failures, {hits} hits")

    # an inconsistent theory proves everything
    bad = 0
    for _ in range(200):
        X = frozenset(ground(2) for _ in range(rng.randint(0, 2)))
        phi = [flat(1) for _ in range(rng.randint(0, 2))]
        phi.append(Eq(n, m2))
        if not derive(X, phi, flat(2)).derivable:
            bad += 1
    counts["explosion"] = 200
    if bad:
        problems.append(f"explosion battery: {bad} failures")

    # attribution requires the signing key and a provable body
    hits = bad = 0
    for _ in range(200):
        phi = [Pred(rng.choice("pq"), (ground(1),))
               for _ in range(rng.randint(1, 3))]
        goal = rng.choice(phi) if rng.random() < 0.6 else \
            Pred(rng.choice("pq"), (ground(1),))
        body_holds = derive(frozenset(), phi, goal).derivable
        hits += body_holds
        armed = derive(frozenset({sk(A)}), phi, Says(A, goal)).derivable
        unarmed = derive(frozenset(), phi, Says(A, goal)).derivable
        if armed != body_holds or unarmed:
            bad += 1
    counts["attribution"] = 200
    if bad or hits < 40:
        problems.append(f"attribution battery: {bad} failures, {hits} hits")

    # along any run, what an agent knows only grows
    proto = builtin_foo()
    cases = bad = 0
    for seed in range(20):
        run, _ = simulate(proto, default_foo_setup(proto), seed=seed)
        state = initial_state(run.proto, run.setup)
        snap = {a: (set(kn.terms), set(kn.assertions))
                for a, kn in state.knowledge.items()}
        for step in run.steps:
            apply_candidate(state, Step(step.session, step.action,
                                        step.fresh, step.binds))
            cases += 1
            for agent, kn in state.knowledge.items():
                terms0, asserts0 = snap[agent]
                if not (terms0 <= kn.terms and asserts0 <= kn.assertions):
                    bad += 1
                snap[agent] = (set(kn.terms), set(kn.assertions))
    counts["growth"] = cases
    if bad or cases < 200:
        problems.append(f"growth battery: {bad} failures over {cases} steps")

    # simulation is reproducible and every simulated run validates
    cases = bad = 0
    jobs = [(builtin_foo(), default_foo_setup, range(100)),
            (builtin_helios(), default_helios_setup, range(50))]
    fp = builtin_foo()
    jobs.append((fp, lambda p: default_foo_setup(p, voters=3), range(50)))
    for proto, mk, seeds in jobs:
        setup = mk(proto)
        for seed in seeds:
            run1, _ = simulate(proto, setup, seed=seed)
            run2, _ = simulate(proto, setup, seed=seed)
            cases += 1
            if write_trace(run1) != write_trace(run2):
                bad += 1
                continue
            if not run1.complete:
                bad += 1
                continue
            ok, _, _ = validate_run(run1)
            if not ok:
                bad += 1
    counts["round-trip"] = cases
    if bad or cases < 200:
        problems.append(f"round-trip battery: {bad} failures over {cases} runs")

    detail = ", ".join(f"{k} {v}" for k, v in counts.items())
    _report(7, problems, detail)
