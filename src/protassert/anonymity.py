"""Vote-privacy checking by run swapping.

Given a completed run with two voter sessions, the swap exchanges the two
votes: the swapped run has every occurrence of the first commitment (and its
key) replaced by the second and vice versa, and the two anonymous cast steps
exchanged between the voter sessions.  If the swapped run is a valid run and
the observer's final knowledge in the two runs supports exactly the same
tests, the observer cannot tell who cast which vote.

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
from .protocol import Action, Protocol
from .runtime import Run, Setup, Step, WorldState, simulate, validate_run
from .syntax import print_assertion, print_term
from .terms import (
    AGENT,
    App,
    Basic,
    Enc,
    Pair,
    Term,
    Var,
    cached,
    iter_subterms,
    replace_term,
    sk,
    vk,
)


@dataclass(frozen=True)
class SwapSpec:
    """What to exchange between the two runs."""

    sessions: tuple[int, int]  # 1-based voter session indices
    agents: tuple[Basic, Basic]
    commits: tuple[Term, Term]  # the two vote commitments d, e
    keys: tuple[Term, Term] | None  # their commitment keys, when visible
    cast_steps: tuple[int, int]  # 1-based global indices of the cast sends

    @cached
    def swap_map(self) -> dict[Term, Term]:
        d, e = self.commits
        out = {d: e, e: d}
        if self.keys is not None:
            p, q = self.keys
            out[p] = q
            out[q] = p
        return out


def swp_term(spec: SwapSpec, t: Term) -> Term:
    return replace_term(t, spec.swap_map)

def swp_assertion(spec: SwapSpec, a: Assertion) -> Assertion:
    m = spec.swap_map
    return normalize(map_terms(a, lambda t: replace_term(t, m)))


def derive_swap(run: Run, voter_role: str | None = None,
                swap_sessions: tuple[int, int] | None = None) -> SwapSpec:
    """Read the swap off a completed run: the voter role is the one with an
    anonymous send (or the named one), two of its sessions provide the
    commitments (their first send) and the casts (their last send).  With
    more than two voter sessions the first two are swapped unless a pair is
    given; the others are left exactly as they played."""
    proto = run.proto
    if voter_role is None:
        starred = [name for name, role in proto.roles.items()
                   if any(a.kind == "send*" for a in role.actions)]
        if not starred:
            # No anonymous send anywhere: fall back to the one role whose
            # sessions are told apart by a non-id parameter.
            varying: list[str] = []
            for name in proto.roles:
                params = [{k: v for k, v in sig.items() if k != "id"}
                          for rname, sig in run.setup.sessions if rname == name]
                if len(params) >= 2 and any(p != params[0] for p in params[1:]):
                    varying.append(name)
            starred = varying
        if len(starred) != 1:
            raise ValueError(
                "cannot infer the voter role, pass it explicitly")
        voter_role = starred[0]
    if voter_role not in proto.roles:
        raise ValueError(f"no role named {voter_role!r}")
    role = proto.roles[voter_role]
    send_idx = [i for i, a in enumerate(role.actions)
                if a.kind in ("send", "send*")]
    if len(send_idx) < 2:
        raise ValueError(f"role {voter_role!r} does not commit then cast")
    commit_idx, cast_idx = send_idx[0], send_idx[-1]

    voter_sessions = [i for i, (r, _) in enumerate(run.setup.sessions, 1)
                      if r == voter_role]
    if len(voter_sessions) < 2:
        raise ValueError(
            f"need at least two {voter_role!r} sessions, "
            f"found {len(voter_sessions)}")
    if swap_sessions is not None:
        if len(set(swap_sessions)) != 2 or any(s not in voter_sessions for s in swap_sessions):
            raise ValueError("swap_sessions must name two voter sessions")
        sess_nums = list(swap_sessions)
    else:
        sess_nums = voter_sessions[:2]

    commits: list[Term] = []
    casts: list[int] = []
    agents: list[Basic] = []
    for s in sess_nums:
        mine = [n for n, step in enumerate(run.steps, 1) if step.session == s]
        if len(mine) <= cast_idx:  # the cast comes after the commit
            raise ValueError(f"session {s} did not finish its role")
        commit = run.steps[mine[commit_idx] - 1].action
        assert isinstance(commit.agent, Basic)
        commits.append(commit.term)
        casts.append(mine[cast_idx])
        agents.append(commit.agent)

    d, e = commits
    keys: tuple[Term, Term] | None = None
    if isinstance(d, Enc) and isinstance(e, Enc) and d.key != e.key:
        keys = (d.key, e.key)
    return SwapSpec(
        sessions=(sess_nums[0], sess_nums[1]),
        agents=(agents[0], agents[1]),
        commits=(d, e),
        keys=keys,
        cast_steps=(casts[0], casts[1]),
    )


def build_swapped(run: Run, spec: SwapSpec) -> Run:
    """The image of the run under the swap: terms and assertions rewritten
    everywhere, the two cast steps exchanged between the voter sessions,
    and the voter sessions' parameters exchanged in the setup."""
    i, j = spec.sessions
    ai, aj = spec.agents
    ki, kj = spec.cast_steps

    partner = {i: j, j: i}
    sessions = []
    for n, (role, sigma) in enumerate(run.setup.sessions, 1):
        theirs = run.setup.sessions[partner.get(n, n) - 1][1]
        params = {k: v for k, v in theirs.items() if k != "id"}
        if "id" in sigma:
            params["id"] = sigma["id"]
        sessions.append((role, params))
    setup = replace(run.setup, sessions=sessions)

    steps: list[Step] = []
    for n, step in enumerate(run.steps, 1):
        act = step.action
        term = swp_term(spec, act.term) if act.term is not None else None
        assertion = swp_assertion(spec, act.assertion) if act.assertion is not None else None
        agent = act.agent
        session = step.session
        if n in (ki, kj):
            if session == i:
                session, agent = j, aj
            elif session == j:
                session, agent = i, ai
        fresh = tuple((nm, swp_term(spec, b)) for nm, b in step.fresh)
        for _, b in fresh:
            assert isinstance(b, Basic)
        binds = tuple((k, swp_term(spec, v)) for k, v in step.binds)
        steps.append(Step(
            session,
            Action(act.kind, agent, act.fresh, term, assertion, act.phase),
            fresh,
            binds,
        ))
    return Run(run.proto, setup, run.seed, steps, complete=run.complete)


# ---------------------------------------------------------------------------
# safety of the commitments

def check_safety(ctx: DeriveContext, spec: SwapSpec) -> tuple[bool, list[str]]:
    """The swap only hides the votes if the commitments are opaque: their
    keys must sit in singleton equality classes and be non-derivable, and
    nothing with concrete content may be provably equal to a commitment."""
    reasons: list[str] = []
    try:
        # the commitments join each leaf's classes in place; leaves()
        # undoes them before the next leaf
        for _ in ctx.leaves():
            cc = ctx.cc
            for d in spec.commits:
                cc.add_term(d)
            for p in spec.keys or ():
                cc.add_term(p)
            for d in spec.commits:
                for member in cc.class_members(d):
                    if member != d and any(isinstance(s, Basic) for s in iter_subterms(member)):
                        reasons.append(
                            f"{print_term(member)} is provably equal to the "
                            f"commitment {print_term(d)}")
            for p in spec.keys or ():
                if len(cc.class_members(p)) > 1:
                    reasons.append(
                        f"commitment key {print_term(p)} is provably equal "
                        f"to something else")
    except BudgetExhausted:
        return False, ["knowledge closure exceeded the budget"]
    for p in spec.keys or ():
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

    def __init__(self, rng: random.Random, proto: Protocol, intruder: str,
                 n_handles: int, depth: int):
        self.rng = rng
        self.depth = depth
        self.handles = [_handle(i) for i in range(1, n_handles + 1)]
        self.agents = [Basic(a, AGENT) for a in sorted(proto.decls.agents)]
        if intruder not in proto.decls.agents:
            self.agents.append(Basic(intruder, AGENT))
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
                proto: Protocol, intruder: str, seed: int,
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
    gen = _TemplateGen(random.Random(seed ^ 0x5EED), proto, intruder, n, depth)
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
                    voter_role: str | None = None,
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
    swapped = build_swapped(run, spec)
    ok, problems, state_r = validate_run(swapped, budget)
    if not ok:
        report.notes.append("the vote-swapped run is not a valid run")
        report.notes.extend(problems[:5])
        return report

    left = state_l.knowledge[setup.intruder]
    right = state_r.knowledge[setup.intruder]
    mismatches: list[str] = []
    if {swp_term(spec, t) for t in left.terms} != right.terms:
        mismatches.append("observer term knowledge differs beyond the swap")
    if {swp_assertion(spec, a) for a in left.assertions} != right.assertions:
        mismatches.append("observer assertion knowledge differs beyond the swap")
    report.notes.extend(mismatches)

    ctx_l = state_l.contexts.context(left.terms, left.assertions, budget)
    ctx_r = state_r.contexts.context(right.terms, right.assertions, budget)
    safety_l, reasons_l = check_safety(ctx_l, spec)
    safety_r, reasons_r = check_safety(ctx_r, spec)
    report.safety_ok = safety_l and safety_r
    report.notes.extend(sorted(set(reasons_l + reasons_r)))

    dist, total, det, inconclusive = run_battery(
        ctx_l, ctx_r, state_l, state_r, proto, setup.intruder, seed, tests, depth)
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
