"""Run semantics: session setups, per-agent knowledge states, action
enabling, a seeded scheduler, trace serialization, and run validation.

Knowledge is tracked per agent name (all sessions of one agent share state),
plus a distinguished network observer who sees every message.  One rule,
`check_step`, decides whether an instantiated action may fire: send actions
require the payload to be derivable and the attached assertion to be
derivable without the composition-unsound rules; receives bind variables by
matching patterns against prior traffic (the shared matcher of `assertions`,
under `SYNTACTIC`) and are enabled only if the observer could produce the
message; confirm needs a full derivation, deny a definite refusal (a
budget-capped refusal blocks and is reported); insert always fires but
warns when it makes the agent's own theory inconsistent.  The scheduler asks
it which steps are enabled, and `validate_run` asks it of every recorded
step.

Knowledge is immutable: applying a step swaps in an extended `Knowledge` for
the agents it changes, and a copied state shares the rest.  The contexts
that answer `check_step`, the insert check and an anonymity check's
observer live in one `ContextTable` per run, made by `initial_state` and
shared by every state copied from it, keyed by the exact knowledge sets.  A
set is saturated into a `DYContext` once, and one derive context per
knowledge set, budget and mode reuses it.  A query on a context answers as
a single `derive` (or `derive_safe`) would, since its case splits and
witness names are its own, so one context answers every goal and the
insert check alike.  The same table memoizes the run's pure per-state
work: each role action instantiated under a session's bindings, and each
match of a receive pattern against a message on the network, since every
state re-enumerates every session's candidates.

Actions are scheduled lowest-phase-first among enabled candidates, with a
seeded random choice among ties, so runs are reproducible from their seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .assertions import (
    SYNTACTIC,
    Assertion,
    SentA,
    SentT,
    match_assertion,
    match_term,
    normalize,
)
from .dy import DYContext
from .engine import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    DeriveContext,
    SearchBudget,
    Verdict,
)
from .protocol import Action, Protocol, action_subst
from .syntax import Cursor, ParseError, parse_session, print_term, tokenize
from .terms import (
    AGENT,
    App,
    Basic,
    KEY,
    NONCE,
    Term,
    iter_subterms,
)


@dataclass
class Setup:
    """Session layout and initial knowledge for a batch of runs."""

    sessions: list[tuple[str, dict[str, Term]]]
    agent_terms: dict[str, set[Term]] = field(default_factory=dict)
    agent_assertions: dict[str, set[Assertion]] = field(default_factory=dict)
    intruder_terms: set[Term] = field(default_factory=set)
    intruder_assertions: set[Assertion] = field(default_factory=set)
    intruder: str = "I"


@dataclass(frozen=True)
class Knowledge:
    terms: frozenset[Term] = frozenset()
    assertions: frozenset[Assertion] = frozenset()

    def extend(self, terms=(), assertions=()) -> "Knowledge":
        return Knowledge(self.terms.union(terms), self.assertions.union(assertions))


_UNSEEN = object()


class ContextTable:
    """The knowledge contexts of one run, keyed by the exact term and
    assertion sets they are built over, and the run's memoized
    instantiations and receive matches (see the module docstring)."""

    def __init__(self) -> None:
        self._dy: dict[frozenset[Term], DYContext] = {}
        self._contexts: dict[tuple, DeriveContext] = {}
        self._answers: dict[tuple, Verdict] = {}
        self._instances: dict[tuple, Action] = {}
        self._received: dict[tuple, tuple[tuple[str, Term], ...] | None] = {}

    def instance(self, action: Action, sigma: dict[str, Term]) -> Action:
        """`action_subst(action, sigma)`, computed once per distinct pair."""
        key = (action, frozenset(sigma.items()))
        inst = self._instances.get(key)
        if inst is None:
            inst = self._instances[key] = action_subst(action, sigma)
        return inst

    def received(self, pat: Action, tr: Traffic) -> tuple[tuple[str, Term], ...] | None:
        """The binding, as sorted pairs, under which the receive pattern
        pat matches the message tr, or None when it does not match."""
        key = (pat, tr.term, tr.assertion)
        binding = self._received.get(key, _UNSEEN)
        if binding is _UNSEEN:
            holes = pat.used_vars()
            found = match_term(pat.term, tr.term, holes, {}, SYNTACTIC)
            if found and pat.assertion is not None:
                found = [] if tr.assertion is None else match_assertion(
                    pat.assertion, tr.assertion, holes, found[0], SYNTACTIC)
            binding = self._received[key] = (tuple(sorted(found[0].items()))
                                             if found else None)
        return binding

    def dy(self, terms: frozenset[Term]) -> DYContext:
        ctx = self._dy.get(terms)
        if ctx is None:
            ctx = self._dy[terms] = DYContext(terms)
        return ctx

    def context(self, terms: frozenset[Term], assertions: frozenset[Assertion],
                budget: SearchBudget = DEFAULT_BUDGET, safe: bool = False) -> DeriveContext:
        """The run's one derive context over these sets, budget and mode."""
        key = (terms, assertions, budget, safe)
        if key not in self._contexts:
            self._contexts[key] = DeriveContext(terms, assertions, budget, safe=safe,
                                                dyctx=self.dy(terms))
        return self._contexts[key]

    def derive(self, terms: frozenset[Term], assertions: frozenset[Assertion],
               goal: Assertion, budget: SearchBudget, safe: bool = False) -> Verdict:
        """What `derive` (or with safe, `derive_safe`) answers for goal."""
        key = (terms, assertions, goal, budget, safe)
        v = self._answers.get(key)
        if v is None:
            v = self._answers[key] = self.context(terms, assertions, budget, safe).query(goal)
        return v

    def inconsistent(self, terms: frozenset[Term],
                     assertions: frozenset[Assertion]) -> bool:
        """Whether some leaf of the fully split theory holds two distinct
        basics in one class, under the default budget; an expansion that
        goes over it counts as consistent, so every leaf is drawn before
        any decides."""
        try:
            return any([l.bottom for l in self.context(terms, assertions).leaves()])
        except BudgetExhausted:
            return False


@dataclass(frozen=True)
class Traffic:
    term: Term
    assertion: Assertion | None
    sender: str | None  # None: anonymous channel


@dataclass
class SessionState:
    role: str
    sigma: dict[str, Term]
    pc: int = 0


@dataclass
class WorldState:
    proto: Protocol
    setup: Setup
    knowledge: dict[str, Knowledge]
    sessions: list[SessionState]
    traffic: list[Traffic] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    used_basics: set[str] = field(default_factory=set)
    contexts: ContextTable = field(default_factory=ContextTable)

    def agent_of(self, s: SessionState) -> str:
        ag = s.sigma["id"]
        assert isinstance(ag, Basic)
        return ag.name


@dataclass(frozen=True)
class Step:
    session: int  # 1-based
    action: Action  # fully instantiated
    fresh: tuple[tuple[str, Basic], ...] = ()
    binds: tuple[tuple[str, Term], ...] = ()


@dataclass
class Run:
    proto: Protocol
    setup: Setup
    seed: int | None
    steps: list[Step]
    complete: bool = True
    warnings: list[str] = field(default_factory=list)
    cut: bool = False  # the search refused a step under a budget or hit max_states


def initial_state(proto: Protocol, setup: Setup) -> WorldState:
    names = set(proto.decls.agents) | {setup.intruder}
    for _, sigma in setup.sessions:
        ag = sigma.get("id")
        if not isinstance(ag, Basic) or ag.sort != AGENT:
            raise ValueError("every session needs a declared agent for id")
        names.add(ag.name)
    public: set[Term] = {Basic(n, AGENT) for n in names}
    public |= {App("vk", (Basic(n, AGENT),)) for n in names}
    public |= {Basic(n, NONCE) for n in proto.decls.nonces}
    knowledge: dict[str, Knowledge] = {}
    for n in sorted(names):
        knowledge[n] = Knowledge(frozenset(public)).extend(
            {App("sk", (Basic(n, AGENT),))} | setup.agent_terms.get(n, set()),
            {normalize(a) for a in setup.agent_assertions.get(n, set())})
    knowledge[setup.intruder] = knowledge[setup.intruder].extend(
        setup.intruder_terms, {normalize(a) for a in setup.intruder_assertions})
    sessions = [SessionState(role, dict(sigma)) for role, sigma in setup.sessions]
    state = WorldState(proto, setup, knowledge, sessions)
    for k in knowledge.values():
        for t in k.terms:
            for s in iter_subterms(t):
                if isinstance(s, Basic):
                    state.used_basics.add(s.name)
    state.used_basics |= proto.decls.agents | proto.decls.nonces | proto.decls.keys
    return state


# ---------------------------------------------------------------------------
# instantiation helpers

def _instantiate(table: ContextTable, action: Action, sigma: dict[str, Term],
                 fresh: tuple[tuple[str, Basic], ...],
                 binds: tuple[tuple[str, Term], ...]) -> Action | None:
    """The action under a session's sigma extended by its fresh values and
    then its bindings, or None when that leaves a variable free."""
    inst = table.instance(action, {**sigma, **dict(fresh), **dict(binds)})
    return inst if inst.is_ground() else None


def _allocate_fresh(state: WorldState, session_index: int,
                    action: Action) -> tuple[tuple[str, Basic], ...]:
    out: list[tuple[str, Basic]] = []
    for name in action.fresh:
        base = f"{name}_{session_index}"
        cand = base
        n = 1
        while cand in state.used_basics:
            n += 1
            cand = f"{base}_{n}"
        # a fresh value used in key position anywhere in the action is a key
        out.append((name, Basic(cand, KEY if name in action.key_vars else NONCE)))
    return tuple(out)


def _traffic_binds(state: WorldState, action: Action,
                   sigma: dict[str, Term]) -> list[tuple[tuple[str, Term], ...]]:
    """Distinct bindings under which a receive pattern matches a message on
    the network, in traffic order."""
    table = state.contexts
    pat = table.instance(action, sigma)
    out: dict[tuple[tuple[str, Term], ...], None] = {}
    for tr in state.traffic:
        binding = table.received(pat, tr)
        if binding is not None:
            out[binding] = None
    return list(out)


# ---------------------------------------------------------------------------
# enabling

_DENY_DERIVABLE = "deny of a derivable assertion"


def check_step(state: WorldState, step: Step,
               budget: SearchBudget = DEFAULT_BUDGET) -> Iterator[tuple[str, str | None]]:
    """The enabling rule: yields, in order, each condition that keeps the
    instantiated step from firing in this state, as (problem, warning).  The
    warning is set when a capped search caused the failure.  A caller that
    stops at the first failure skips the later derivability checks."""
    act = step.action
    table = state.contexts

    def failed(problem: str, v, warning: str) -> tuple[str, str | None]:
        return problem, (f"session {step.session}: {warning}"
                         if v.budget_exhausted else None)

    if act.kind == "recv":
        intr = state.knowledge[state.setup.intruder]
        if not table.dy(intr.terms).derivable(act.term):
            yield "message not derivable on the network", None
        if act.assertion is not None:
            v = table.derive(intr.terms, intr.assertions, act.assertion, budget, safe=True)
            if not v.derivable:
                yield failed("network cannot justify the assertion", v,
                             "receive check hit the search budget")
        return
    agent = state.agent_of(state.sessions[step.session - 1])
    know = state.knowledge[agent]
    if act.kind in ("send", "send*"):
        base = know.terms.union(b for _, b in step.fresh)
        if not table.dy(base).derivable(act.term):
            yield f"payload not derivable by {agent}", None
        if act.assertion is not None:
            v = table.derive(base, know.assertions, act.assertion, budget, safe=True)
            if not v.derivable:
                yield failed("send assertion not derivable", v,
                             "send assertion hit the search budget")
    elif act.kind in ("confirm", "deny"):
        v = table.derive(know.terms, know.assertions, act.assertion, budget)
        if act.kind == "confirm":
            if not v.derivable:
                yield failed("confirm not derivable", v, "confirm hit the search budget")
        elif v.derivable:
            yield _DENY_DERIVABLE, None
        elif v.budget_exhausted:
            yield failed("deny not definite under the budget", v,
                         "deny blocked, refusal not definite under the search budget")


def candidates_for(state: WorldState, idx: int,
                   budget: SearchBudget = DEFAULT_BUDGET) -> tuple[list[Step], bool]:
    """Enabled instantiations of session idx's next action, plus a flag set
    when the session is permanently stuck.  Knowledge only ever grows, so a
    deny whose assertion is already derivable can never fire later."""
    sess = state.sessions[idx]
    role = state.proto.roles[sess.role]
    if sess.pc >= len(role.actions):
        return [], False
    action = role.actions[sess.pc]
    if action.kind == "recv":
        offers = [((), b) for b in _traffic_binds(state, action, sess.sigma)]
    else:
        offers = [(_allocate_fresh(state, idx + 1, action), ())]
    found: list[Step] = []
    for fresh, binds in offers:
        inst = _instantiate(state.contexts, action, sess.sigma, fresh, binds)
        if inst is None:
            continue
        step = Step(idx + 1, inst, fresh, binds)
        problem, warning = next(check_step(state, step, budget), (None, None))
        if problem is None:
            found.append(step)
        elif warning is not None:
            state.warnings.append(warning)
        elif problem == _DENY_DERIVABLE:
            return [], True
    return found, False


def enabled_actions(state: WorldState,
                    budget: SearchBudget = DEFAULT_BUDGET) -> tuple[list[Step], bool]:
    """All enabled steps at the lowest enabled phase, plus whether some
    incomplete session can never move again."""
    out: list[Step] = []
    wedged = False
    for i in range(len(state.sessions)):
        cands, w = candidates_for(state, i, budget)
        out.extend(cands)
        wedged = wedged or w
    if not out:
        return [], wedged
    low = min(c.action.phase for c in out)
    return [c for c in out if c.action.phase == low], wedged


def _learn(state: WorldState, agent: str, terms=(), assertions=()) -> Knowledge:
    know = state.knowledge[agent] = state.knowledge[agent].extend(terms, assertions)
    return know


def apply_candidate(state: WorldState, step: Step) -> Step:
    sess = state.sessions[step.session - 1]
    agent = state.agent_of(sess)
    act = step.action
    said = () if act.assertion is None else (act.assertion,)

    if act.kind in ("send", "send*"):
        _learn(state, agent, [value for _, value in step.fresh])
        for name, value in step.fresh:
            state.used_basics.add(value.name)
            sess.sigma[name] = value
        heard = said
        if act.kind == "send":
            heard += (SentT(act.agent, act.term), *(SentA(act.agent, a) for a in said))
        _learn(state, state.setup.intruder, (act.term,), heard)
        state.traffic.append(Traffic(act.term, act.assertion,
                                     agent if act.kind == "send" else None))
    elif act.kind == "recv":
        _learn(state, agent, (act.term,), said)
        sess.sigma.update(dict(step.binds))
    elif act.kind == "insert":
        know = _learn(state, agent, (), said)
        if state.contexts.inconsistent(know.terms, know.assertions):
            state.warnings.append(
                f"session {step.session}: insert made {agent}'s theory inconsistent")
    # confirm and deny leave knowledge unchanged
    sess.pc += 1
    return step


def _copy_state(s: WorldState) -> WorldState:
    return WorldState(
        s.proto, s.setup,
        dict(s.knowledge),
        [SessionState(x.role, dict(x.sigma), x.pc) for x in s.sessions],
        list(s.traffic), list(s.warnings), set(s.used_basics), s.contexts)


def _all_done(state: WorldState) -> bool:
    return all(s.pc >= len(state.proto.roles[s.role].actions)
               for s in state.sessions)


def _fingerprint(state: WorldState):
    """Two interleavings with the same counters, bindings and traffic give
    the same knowledge everywhere, so this identifies the state."""
    return (
        tuple(s.pc for s in state.sessions),
        tuple(tuple(sorted(s.sigma.items())) for s in state.sessions),
        frozenset((tr.term, tr.assertion, tr.sender) for tr in state.traffic),
    )


def simulate(proto: Protocol, setup: Setup, seed: int = 0,
             budget: SearchBudget = DEFAULT_BUDGET,
             max_states: int = 20_000) -> tuple[Run, WorldState]:
    """Search for a run that completes every session, exploring candidate
    choices depth first in a seeded random order.  Branches where a session
    is permanently stuck are cut early.  Returns the first completing run,
    or the longest partial run found if none completes within max_states;
    the run is marked cut when the search stopped at max_states or refused
    a step only because a search budget ran out."""
    rng = random.Random(seed)
    visited = 0
    cut = False
    best: tuple[list[Step], WorldState] | None = None
    seen: set = set()

    def rec(state: WorldState, steps: list[Step]) -> tuple[list[Step], WorldState] | None:
        nonlocal visited, best, cut
        if _all_done(state):
            return steps, state
        fp = _fingerprint(state)
        if fp in seen:
            return None
        seen.add(fp)
        visited += 1
        if visited > max_states:
            cut = True
            return None
        warned = len(state.warnings)
        cands, wedged = enabled_actions(state, budget)
        cut |= len(state.warnings) > warned  # only budget refusals warn here
        if wedged or not cands:
            if best is None or len(steps) > len(best[0]):
                best = (steps, state)
            return None
        # A step without bindings has no choice in it and only ever adds
        # knowledge, so taking it can never make a completable state
        # uncompletable.  Apply one straight away instead of branching: a
        # group of one, whose shuffle draws nothing from rng.
        eager = [c for c in cands if not c.binds]
        if eager:
            groups = [[min(eager, key=lambda c: c.session)]]
        else:
            # Branch over the bindings of a single session first (the one
            # with the fewest options).  Only if all of those fail fall back
            # to the other sessions' candidates, in case this session's good
            # option has not been sent yet; the memo keeps the fallback from
            # re-walking states the first pass already settled.
            by_sess: dict[int, list[Step]] = {}
            for c in cands:
                by_sess.setdefault(c.session, []).append(c)
            picked = min(by_sess.values(), key=lambda cs: (len(cs), cs[0].session))
            groups = [picked, [c for c in cands if c.session != picked[0].session]]
        for group in groups:
            group.sort(key=lambda c: (c.session, repr(c.binds)))
            rng.shuffle(group)
            for cand in group:
                child = _copy_state(state)
                step = apply_candidate(child, cand)
                hit = rec(child, steps + [step])
                if hit is not None:
                    return hit
        return None

    state0 = initial_state(proto, setup)
    hit = rec(state0, [])
    if hit is not None:
        steps, state = hit
        return Run(proto, setup, seed, steps, complete=True,
                   warnings=list(state.warnings)), state
    if best is None:
        best = ([], state0)
    steps, state = best
    state.warnings.append("no completing run found")
    return Run(proto, setup, seed, steps, complete=False,
               warnings=list(state.warnings), cut=cut), state


# ---------------------------------------------------------------------------
# validation

def validate_run(run: Run, budget: SearchBudget = DEFAULT_BUDGET) -> tuple[bool, list[str], WorldState]:
    """Replay a recorded run: each step must be the pending action of its
    session, instantiated with genuinely fresh values, and pass the same
    enabling rule as the scheduler's (`check_step`)."""
    problems, state = run_problems(run, budget)
    return (not problems, [p for p, _ in problems], state)


def run_problems(run: Run, budget: SearchBudget = DEFAULT_BUDGET
                 ) -> tuple[list[tuple[str, bool]], WorldState]:
    """`validate_run`'s problems, each with whether it rests on a search
    budget alone, and the state the replay reached."""
    state = initial_state(run.proto, run.setup)
    problems: list[tuple[str, bool]] = []
    for n, step in enumerate(run.steps, 1):
        if not 1 <= step.session <= len(state.sessions):
            problems.append((f"step {n}: no session {step.session}", False))
            break
        sess = state.sessions[step.session - 1]
        role = run.proto.roles[sess.role]
        if sess.pc >= len(role.actions):
            problems.append((f"step {n}: session {step.session} already finished", False))
            break
        action = role.actions[sess.pc]

        for name, value in step.fresh:
            if name not in action.fresh:
                problems.append((f"step {n}: unexpected fresh variable {name}", False))
            if value.name in state.used_basics:
                problems.append((f"step {n}: fresh value {value.name} is not fresh", False))
        if set(n0 for n0, _ in step.fresh) != set(action.fresh):
            problems.append((f"step {n}: fresh variables do not match the action", False))
        inst = _instantiate(state.contexts, action, sess.sigma, step.fresh, step.binds)
        if inst is None:
            problems.append((f"step {n}: action not ground after instantiation", False))
            break
        if inst != step.action:
            problems.append((f"step {n}: recorded action does not match the role", False))
            break
        if action.kind == "recv" and not any(
                tr.term == inst.term
                and (inst.assertion is None or tr.assertion == inst.assertion)
                for tr in state.traffic):
            problems.append((f"step {n}: received message never offered", False))
        problems.extend((f"step {n}: {problem}", warning is not None)
                        for problem, warning in check_step(state, step, budget))
        apply_candidate(state, step)
    return problems, state


# ---------------------------------------------------------------------------
# traces

def write_trace(run: Run) -> str:
    lines = [f"run {run.proto.name} seed={run.seed if run.seed is not None else '-'}"]
    for i, (role, sigma) in enumerate(run.setup.sessions, 1):
        parts = ", ".join(f"{k}={print_term(v)}" for k, v in sorted(sigma.items()))
        lines.append(f"session {i} {role} {parts}")
    for i, step in enumerate(run.steps, 1):
        line = f"step {i} session {step.session}"
        if step.fresh:
            line += " fresh " + ", ".join(f"{n}={b.name}:{b.sort}"
                                          for n, b in step.fresh)
        if step.binds:
            line += " bind " + ", ".join(f"{k}={print_term(v)}"
                                         for k, v in step.binds)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _fresh_value(p: Cursor) -> tuple[str, Basic]:
    """name '=' value ':' sort, declaring value for the rest of the trace."""
    name = p.ident()
    p.expect("=")
    value = p.ident()
    p.expect(":")
    sort = p.expect_ident()
    if sort.val not in (NONCE, KEY):
        raise ParseError(f"bad fresh sort {sort.val!r}", sort.pos)
    (p.decls.keys if sort.val == KEY else p.decls.nonces).add(value)
    return name, Basic(value, sort.val)


def parse_trace(text: str, proto: Protocol, setup: Setup | None = None) -> Run:
    """Rebuild a run from its trace (grammar in the `syntax` docstring).
    The protocol must be the one the trace was produced from; the setup
    (initial knowledge) defaults to bare sessions as listed in the trace."""
    d = proto.decls
    p = Cursor(tokenize(text, "trace"),
               replace(d, nonces=set(d.nonces), keys=set(d.keys), strict=False))
    p.expect("run")
    tok = p.expect_ident()
    if tok.val != proto.name:
        raise ParseError(f"trace is not for protocol {proto.name}", tok.pos)
    p.expect("seed")
    p.expect("=")
    negative = p.eat("-")
    seed = None if negative and p.peek().kind != "int" else p.number() * (-1 if negative else 1)

    sessions: list[tuple[str, dict[str, Term]]] = []
    while p.eat("session"):
        tok = p.peek()
        if p.number() != len(sessions) + 1:
            raise ParseError("sessions out of order", tok.pos)
        sessions.append(parse_session(p, proto))
    if setup is None:
        setup = Setup(sessions=sessions)
    elif [(r, dict(s)) for r, s in setup.sessions] != sessions:
        raise ParseError("trace sessions do not match the given setup", "trace")

    states = [SessionState(r, dict(s)) for r, s in sessions]
    table = ContextTable()
    steps: list[Step] = []
    while p.eat("step"):
        tok = p.peek()
        if p.number() != len(steps) + 1:
            raise ParseError("steps out of order", tok.pos)
        p.expect("session")
        tok = p.peek()
        snum = p.number()
        if not 1 <= snum <= len(states):
            raise ParseError(f"no session {snum}", tok.pos)
        fresh = tuple(p.items(lambda: _fresh_value(p))) if p.eat("fresh") else ()
        binds = tuple(p.items(p.binding)) if p.eat("bind") else ()
        st = states[snum - 1]
        role = proto.roles[st.role]
        if st.pc >= len(role.actions):
            raise ParseError(f"session {snum} has no pending action", tok.pos)
        inst = _instantiate(table, role.actions[st.pc], st.sigma, fresh, binds)
        if inst is None:
            raise ParseError(f"step {len(steps) + 1} leaves variables unbound", tok.pos)
        steps.append(Step(snum, inst, fresh, binds))
        st.sigma.update(fresh)
        st.sigma.update(binds)
        st.pc += 1
    p.end()
    return Run(proto, setup, seed, steps)
