"""Vote-privacy checking by run swapping.

Given a completed run with two sessions of the voter role (the role named
`voter`, or the one the caller names: it is never guessed), the swap
exchanges their votes: the twin run is instantiated from the roles, with
the two voters' parameters and fresh values exchanged and their steps from
the casts on exchanged whole, and σ, the map from each message to the one
the twin sends in its place, is read off the two runs' traffic.  If the
twin is valid and the observer's final knowledge in the two runs supports
exactly the same tests, the observer cannot tell who cast which vote.

Tests are assertions over message handles (placeholders standing for the
n-th message on the network, resolved per run) plus the protocol's declared
constants.  A deterministic block covers sender facts and equalities over
all handles; the rest are randomly generated from a seed so a failure can
be replayed.  Any query that exhausts the search budget makes the whole
check inconclusive rather than a pass.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .assertions import (
    And,
    Assertion,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    SentA,
    SentT,
    is_closed,
    map_terms,
    normalize,
    substitute,
)
from .engine import DEFAULT_BUDGET, BudgetExhausted, DeriveContext, SearchBudget
from .protocol import Protocol
from .runtime import (
    OBSERVER,
    Run,
    SessionState,
    Setup,
    Step,
    WorldState,
    _instantiate,
    match_message,
    simulate,
    validate_run,
)
from .syntax import print_assertion, print_term
from .terms import (
    AGENT,
    App,
    Basic,
    Enc,
    Pair,
    Term,
    Var,
    iter_subterms,
    replace_term,
    sk,
    vk,
)


@dataclass(frozen=True)
class SwapSpec:
    """Which two voter sessions exchange their votes, and where they cast."""

    sessions: tuple[int, int]  # 1-based voter session indices
    cast: int  # the cast's 0-based index in the voter role, its last send


def swp_assertion(swap: dict[Term, Term], a: Assertion) -> Assertion:
    return normalize(map_terms(a, lambda t: replace_term(t, swap)))


def derive_swap(run: Run, voter_role: str = "voter",
                swap_sessions: tuple[int, int] | None = None) -> SwapSpec:
    """Read the swap off a completed run: two sessions of the voter role
    (`voter` unless another is named), each done with its role, swap their
    votes; each casts with its last send.  With more than two voter
    sessions the first two are swapped unless a pair is given; the others
    are left exactly as they played."""
    role = run.proto.roles.get(voter_role)
    if role is None:
        raise ValueError(f"no role named {voter_role!r}")
    sends = [i for i, a in enumerate(role.actions) if a.kind in ("send", "send*")]
    if len(sends) < 2:
        raise ValueError(f"role {voter_role!r} does not commit then cast")

    voter_sessions = [i for i, (r, _) in enumerate(run.setup.sessions, 1)
                      if r == voter_role]
    if len(voter_sessions) < 2:
        raise ValueError(
            f"need at least two {voter_role!r} sessions, "
            f"found {len(voter_sessions)}")
    pair = tuple(voter_sessions[:2] if swap_sessions is None else swap_sessions)
    if len(set(pair)) != 2 or any(s not in voter_sessions for s in pair):
        raise ValueError("swap_sessions must name two voter sessions")

    for s in pair:
        if sum(step.session == s for step in run.steps) < len(role.actions):
            raise ValueError(f"session {s} did not finish its role")
    return SwapSpec(pair, sends[-1])


def build_swapped(run: Run, spec: SwapSpec) -> Run:
    """The vote-swapped twin, instantiated from the roles: the two voter
    sessions exchange their non-id parameters and the fresh values of their
    steps before the casts, and from the casts on their steps are exchanged
    whole, each voter's k-th step from its cast taking the place of its
    partner's.  Each session keeps its schedule, and each receive matches
    again the message of the step it read; a step the exchange breaks
    raises ValueError naming it."""
    partner = dict(zip(spec.sessions, reversed(spec.sessions)))
    sessions = [(role, {**run.setup.sessions[partner.get(n, n) - 1][1], "id": sigma["id"]})
                for n, (role, sigma) in enumerate(run.setup.sessions, 1)]
    states = [SessionState(role, dict(sigma)) for role, sigma in sessions]
    played = {s: [t.fresh for t in run.steps if t.session == s] for s in partner}  # by pc
    done = dict.fromkeys(partner, 0)  # each voter's steps so far in the original run
    sent: dict[tuple[Term, Assertion | None], int] = {}  # each message's first send
    steps: list[Step] = []
    for n, step in enumerate(run.steps, 1):
        s = step.session
        if s in partner:
            done[s] += 1
            if done[s] > spec.cast:
                s = partner[s]
                if states[s - 1].pc < spec.cast:
                    raise ValueError(f"step {n}: session {s} has no cast pending")
        st = states[s - 1]
        action = st.pending(run.proto)
        fresh = played[partner[s]][st.pc] if s in partner else step.fresh
        binds: tuple[tuple[str, Term], ...] = ()
        if action.kind == "recv":
            m = sent.get((step.action.term, step.action.assertion))
            if m is None:
                raise ValueError(f"step {n}: no earlier step sends the message it receives")
            got = match_message(action.instance(st.sigma), steps[m].action)
            if got is None:
                raise ValueError(f"step {n}: the receive no longer matches step {m + 1}'s message")
            binds = tuple(sorted(got.items()))
        elif action.kind in ("send", "send*"):  # a receive without an assertion reads either
            for key in ((step.action.term, step.action.assertion), (step.action.term, None)):
                sent.setdefault(key, n - 1)
        try:
            inst = _instantiate(action, st.sigma, fresh, binds)
        except ValueError as e:
            raise ValueError(f"step {n}: {e}") from None
        steps.append(Step(s, inst, fresh, binds))
        st.advance(fresh, binds)
    return Run(run.proto, replace(run.setup, sessions=sessions), run.seed, steps,
               complete=run.complete)


def swap_of(left: WorldState, right: WorldState) -> dict[Term, Term]:
    """σ read off two runs' traffic: each message of the original run that
    the twin replaces, mapped to the one the twin sends in its place."""
    return {a.term: b.term for a, b in zip(left.traffic, right.traffic) if a.term != b.term}


# ---------------------------------------------------------------------------
# safety of the commitments

def check_safety(ctx: DeriveContext, swap: dict[Term, Term]) -> tuple[bool, list[str]]:
    """The swap only hides the votes if the messages it swaps (`swap`'s
    domain, one run's side of σ) are opaque commitments: the key of every
    encryption in them must sit in a singleton equality class and be
    non-derivable, and nothing with concrete content may be provably equal
    to a swapped message."""
    keys = list(dict.fromkeys(s.key for d in swap for s in iter_subterms(d)
                              if isinstance(s, Enc)))
    reasons: list[str] = []
    try:
        # the commitments join each leaf's classes in place; leaves()
        # undoes them before the next leaf
        for _ in ctx.leaves():
            cc = ctx.cc
            for t in (*swap, *keys):
                cc.add_term(t)
            for d in swap:
                for member in cc.class_members(d):
                    if member != d and any(isinstance(s, Basic) for s in iter_subterms(member)):
                        reasons.append(
                            f"{print_term(member)} is provably equal to the "
                            f"commitment {print_term(d)}")
            for p in keys:
                if len(cc.class_members(p)) > 1:
                    reasons.append(
                        f"commitment key {print_term(p)} is provably equal "
                        f"to something else")
    except BudgetExhausted:
        return False, ["knowledge closure exceeded the budget"]
    for p in keys:
        if ctx.dyctx.derivable(p):
            reasons.append(f"commitment key {print_term(p)} is derivable")
    return (not reasons, reasons)


# ---------------------------------------------------------------------------
# observer tests

@dataclass(frozen=True)
class TestOutcome:
    desc: str
    left: str  # "yes" | "no" | "budget"
    right: str


@dataclass
class AnonymityReport:
    protocol: str
    seed: int
    verdict: str  # indistinguishable | distinguished | inconclusive | failed
    tests_total: int = 0
    deterministic: int = 0
    inconclusive: int = 0
    distinguisher: TestOutcome | None = None
    safety_ok: bool = False
    notes: list[str] = field(default_factory=list)


def _verdict_tag(v) -> str:
    if v.budget_exhausted:
        return "budget"
    return "yes" if v.derivable else "no"


def _handle(i: int) -> Var:
    return Var(f"_h{i}")


def deterministic_tests(n_handles: int, agents: list[Basic],
                        consts: list[Basic],
                        assertion_slots: list[int]) -> list[Assertion | tuple[int, Basic]]:
    """Templates every battery runs: who-sent facts for every handle, handle
    equalities, and handle against constant equalities.  A sent-assertion
    probe, which needs the per-run assertion, is a (traffic index, agent)
    pair instead of a template."""
    out: list[Assertion | tuple[int, Basic]] = []
    for i in range(1, n_handles + 1):
        out.extend(SentT(a, _handle(i)) for a in agents)
    for i in assertion_slots:
        out.extend((i, a) for a in agents)
    for i in range(1, n_handles + 1):
        out.extend(Eq(_handle(i), _handle(j)) for j in range(i + 1, n_handles + 1))
        out.extend(Eq(_handle(i), c) for c in consts)
    return out


class _TemplateGen:
    """Seeded random observer tests over handles and declared constants."""

    def __init__(self, rng: random.Random, proto: Protocol, n_handles: int, depth: int):
        self.rng = rng
        self.depth = depth
        self.handles = [_handle(i) for i in range(1, n_handles + 1)]
        self.agents = [Basic(a, AGENT) for a in sorted(proto.decls.agents)]
        if OBSERVER not in proto.decls.agents:
            self.agents.append(Basic(OBSERVER, AGENT))
        # agents and nonces: the constants of the deterministic block too
        self.names: list[Basic] = self.agents + [
            Basic(n, "nonce") for n in sorted(proto.decls.nonces)]
        basic_keys = [Basic(k, "key") for k in sorted(proto.decls.keys)]
        self.consts = self.names + basic_keys
        self.keys = basic_keys + [sk(a) for a in self.agents] + [vk(a) for a in self.agents]
        self.ctors = [(c, n) for c, n in sorted(proto.decls.constructors.items())
                      if c not in ("sk", "vk")]
        self.preds = sorted(proto.decls.predicates.items())
        self.qdepth = 0

    def term(self, depth: int, extra: list[Var]) -> Term:
        r = self.rng
        leaves = self.handles + self.consts + extra
        if depth <= 0 or r.random() < 0.45:
            return r.choice(leaves)
        roll = r.random()
        if roll < 0.40:
            return Pair(self.term(depth - 1, extra), self.term(depth - 1, extra))
        if roll < 0.70:
            key = r.choice(self.keys + self.handles + extra) if (self.keys or extra) \
                else r.choice(self.handles)
            return Enc(self.term(depth - 1, extra), key)
        if self.ctors:
            c, arity = r.choice(self.ctors)
            arity = arity if arity is not None else r.randint(1, 2)
            return App(c, tuple(self.term(depth - 1, extra) for _ in range(arity)))
        return Pair(self.term(depth - 1, extra), self.term(depth - 1, extra))

    def assertion(self, depth: int, extra: list[Var]) -> Assertion:
        r = self.rng
        roll = r.random()
        if depth <= 0:
            roll = min(roll, 0.49)  # force an atom
        if roll < 0.30:
            return Eq(self.term(depth - 1, extra), self.term(depth - 1, extra))
        if roll < 0.42 and self.preds:
            name, arity = r.choice(self.preds)
            return Pred(name, tuple(self.term(depth - 1, extra)
                                    for _ in range(arity)))
        if roll < 0.50:
            return SentT(r.choice(self.agents), self.term(depth - 1, extra))
        if roll < 0.62:
            return Says(r.choice(self.agents), self.assertion(depth - 1, extra))
        if roll < 0.72:
            return And(self.assertion(depth - 1, extra),
                       self.assertion(depth - 1, extra))
        if roll < 0.80:
            return Or(self.assertion(depth - 1, extra),
                      self.assertion(depth - 1, extra))
        if roll < 0.86:
            return SentA(r.choice(self.agents), self.assertion(depth - 1, extra))
        self.qdepth += 1
        qv = Var(f"qv{self.qdepth}")
        body = self.assertion(depth - 1, extra + [qv])
        return Exists(qv.name, body)

    def next(self) -> Assertion:
        return normalize(self.assertion(self.depth, []))


def run_battery(ctx_left: DeriveContext, ctx_right: DeriveContext,
                left: WorldState, right: WorldState,
                proto: Protocol, seed: int,
                tests: int, depth: int) -> tuple[TestOutcome | None, int, int, int]:
    """Evaluate the shared test battery against both runs.  Returns the
    first distinguishing test (or None), total tests run, how many were
    deterministic, and how many were inconclusive.  Each context answers a
    goal once, and a test is described only when it distinguishes."""
    n = len(left.traffic)
    if len(right.traffic) != n:
        return (TestOutcome("number of network messages", str(n),
                            str(len(right.traffic))), 0, 0, 0)
    map_l = {_handle(i).name: tr.term for i, tr in enumerate(left.traffic, 1)}
    map_r = {_handle(i).name: tr.term for i, tr in enumerate(right.traffic, 1)}
    # building the generator draws nothing from its random stream
    gen = _TemplateGen(random.Random(seed ^ 0x5EED), proto, n, depth)
    slots = [i for i, tr in enumerate(left.traffic, 1) if tr.assertion is not None]
    det = deterministic_tests(n, gen.agents, gen.names, slots)

    def stream():
        """(test, left goal, right goal): the deterministic block, then
        the seeded random templates that instantiate to closed tests."""
        for test in det:
            if isinstance(test, tuple):
                slot, agent = test
                yield (test, SentA(agent, left.traffic[slot - 1].assertion),
                       SentA(agent, right.traffic[slot - 1].assertion))
            else:
                yield test, substitute(test, map_l), substitute(test, map_r)
        made = 0
        while made < tests:
            template = gen.next()
            try:
                a_l, a_r = substitute(template, map_l), substitute(template, map_r)
            except ValueError:
                # a compound message landed in a key slot, not a wellformed test
                continue
            if is_closed(a_l):
                made += 1
                yield template, a_l, a_r

    total = inconclusive = 0
    for test, a_l, a_r in stream():
        total += 1
        tl, tr = _verdict_tag(ctx_left.query(a_l)), _verdict_tag(ctx_right.query(a_r))
        if "budget" in (tl, tr):
            inconclusive += 1
        elif tl != tr:
            desc = (f"{test[1].name} sent the assertion of message {test[0]}"
                    if isinstance(test, tuple) else print_assertion(test))
            return TestOutcome(desc, tl, tr), total, len(det), inconclusive
    return None, total, len(det), inconclusive


# ---------------------------------------------------------------------------
# the full check

def check_anonymity(proto: Protocol, setup: Setup, seed: int = 0,
                    tests: int = 500, depth: int = 3,
                    budget: SearchBudget = DEFAULT_BUDGET,
                    voter_role: str = "voter",
                    swap_sessions: tuple[int, int] | None = None) -> AnonymityReport:
    """Simulate one run, build its vote-swapped twin, and look for an
    observer test telling them apart.  The swapped run is replayed while
    the original lives, so both share its `ContextTable`, and the
    observer's contexts are the ones it holds over each final knowledge."""
    report = AnonymityReport(proto.name, seed, "failed")
    run, state_l = simulate(proto, setup, seed=seed, budget=budget)
    if not run.complete:
        report.notes.append("no completing run found")
        return report
    try:
        spec = derive_swap(run, voter_role, swap_sessions)
    except ValueError as e:
        report.notes.append(str(e))
        return report
    try:
        ok, problems, state_r = validate_run(build_swapped(run, spec), budget)
    except ValueError as e:
        ok, problems = False, [str(e)]
    if not ok:
        report.notes.append("the vote-swapped run is not a valid run")
        report.notes.extend(problems[:5])
        return report

    swap = swap_of(state_l, state_r)
    left = state_l.knowledge[OBSERVER]
    right = state_r.knowledge[OBSERVER]
    mismatches: list[str] = []
    if {replace_term(t, swap) for t in left.terms} != right.terms:
        mismatches.append("observer term knowledge differs beyond the swap")
    if {swp_assertion(swap, a) for a in left.assertions} != right.assertions:
        mismatches.append("observer assertion knowledge differs beyond the swap")
    report.notes.extend(mismatches)

    ctx_l = state_l.contexts.context(left.terms, left.assertions, budget)
    ctx_r = state_r.contexts.context(right.terms, right.assertions, budget)
    safety_l, reasons_l = check_safety(ctx_l, swap)
    safety_r, reasons_r = check_safety(ctx_r, {b: a for a, b in swap.items()})
    report.safety_ok = safety_l and safety_r
    report.notes.extend(sorted(set(reasons_l + reasons_r)))

    dist, total, det, inconclusive = run_battery(
        ctx_l, ctx_r, state_l, state_r, proto, seed, tests, depth)
    report.tests_total = total
    report.deterministic = det
    report.inconclusive = inconclusive
    report.distinguisher = dist
    if dist is not None:
        report.verdict = "distinguished"
    elif inconclusive or mismatches or not report.safety_ok:
        report.verdict = "inconclusive"
    else:
        report.verdict = "indistinguishable"
    return report


def render_report(r: AnonymityReport) -> str:
    lines = [
        f"anonymity {r.protocol} seed={r.seed} verdict={r.verdict} "
        f"tests={r.tests_total} inconclusive={r.inconclusive}"
    ]
    lines.append(f"  safety: {'ok' if r.safety_ok else 'not established'}")
    if r.distinguisher is not None:
        d = r.distinguisher
        lines.append(f"  distinguishing test: {d.desc}")
        lines.append(f"    original run: {d.left}   swapped run: {d.right}")
    for note in r.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
