"""Run semantics: session setups, per-agent knowledge states, action
enabling, a seeded scheduler, trace serialization, and run validation.
A state keeps the steps that reached it, the one record of its run, and
the network (`WorldState.traffic`) is read off its send steps.

Knowledge is tracked per agent name (all sessions of one agent share state),
plus a distinguished network observer who sees every message.  One rule,
`check_step`, decides whether an instantiated action may fire: send actions
require the payload to be derivable and the attached assertion to be
derivable without the composition-unsound rules; receives bind variables by
matching patterns against sent messages (`match_message`, the shared matcher
of `assertions` under `SYNTACTIC`) and are enabled only if the observer
could produce the message; confirm needs a full derivation, deny a definite
refusal (a budget-capped refusal blocks and is reported); insert always
fires but warns when it makes the agent's own theory inconsistent.  The
scheduler asks it which steps are enabled, and `validate_run` asks it of
every recorded step.

Knowledge is immutable: applying a step swaps in an extended `Knowledge` for
the agents it changes, and a copied state shares the rest.  The contexts
that answer `check_step`, the insert check and an anonymity check's
observer live in one `ContextTable` per public term set, keyed by the
exact knowledge sets.  `initial_state` takes the set's table from a weak
registry, so the table lives while a run or state holds it: every state
copied from the first shares it, the `Run` that `simulate` returns holds
it, and a replay of that run or its vote-swapped twin, made while it
lives, finds every context the search built.  A set is saturated into a
`DYContext` once, and one derive context per knowledge set, budget and
mode reuses it.  A query on a context answers as a single `derive` (or
`derive_safe`) would, since its case splits and witness names are its
own, so one context answers every goal, each distinct goal once, for
whichever run asks; an insert of facts over the agent's terms is checked
on the context before it, often built by the deny before it.  A role
action memoizes its instances for as long as its protocol lives, so every
run and replay over one parsed protocol reuses them.  A state carries
its receive patterns' bindings to its copies, which match only the
steps taken since.

Actions are scheduled lowest-phase-first among enabled candidates, with a
seeded random choice among ties, so runs are reproducible from their seed.
`simulate` searches depth first in a loop over a stack that holds, for
each open state, a generator of its child states, which shuffles each group
of candidates when the search reaches it: no recursion, so a run's length is
not bounded by Python's recursion limit.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterator

from .assertions import (
    SYNTACTIC,
    Assertion,
    SentA,
    SentT,
    match_canonical,
    match_term,
    normalize,
    substitute,
)
from .dy import DYContext
from .engine import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    DeriveContext,
    SearchBudget,
    inert,
)
from .protocol import Action, Protocol
from .syntax import Cursor, ParseError, parse_session, print_term
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


OBSERVER = "I"  # the network observer; a set-up's maps hold its knowledge as any agent's


@dataclass(slots=True, unsafe_hash=True)
class Knowledge:
    """What an agent holds; its assertions are normal forms, as `initial_state`
    and every action instance (`assertions.substitute`) give them."""

    terms: frozenset[Term] = frozenset()
    assertions: frozenset[Assertion] = frozenset()

    def extend(self, terms=(), assertions=()) -> "Knowledge":
        return Knowledge(self.terms.union(terms), self.assertions.union(assertions))


class ContextTable:
    """The knowledge contexts of the live runs over one public term set,
    keyed by the exact term and assertion sets (see the module docstring)."""

    def __init__(self) -> None:
        self._dy: dict[frozenset[Term], DYContext] = {}
        self._contexts: dict[tuple, DeriveContext] = {}

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

    def inconsistent(self, terms: frozenset[Term], assertions: frozenset[Assertion],
                     before: frozenset[Assertion] | None = None) -> bool:
        """Whether every leaf of the fully split theory holds two distinct
        basics in one class, under the default budget: one consistent case
        keeps the theory consistent.  An expansion that goes over the budget
        counts as consistent, so every leaf is drawn before any decides.
        When what an insert added to before is inert, before's context answers."""
        if before is not None and all(inert(self.dy(terms), a) for a in assertions - before):
            assertions = before
        try:
            return all([l.bottom for l in self.context(terms, assertions).leaves()])
        except BudgetExhausted:
            return False


@dataclass
class SessionState:
    role: str
    sigma: dict[str, Term]
    pc: int = 0

    def pending(self, proto: Protocol) -> Action | None:
        """The role action the session takes next, None once it is done."""
        actions = proto.roles[self.role].actions
        return actions[self.pc] if self.pc < len(actions) else None

    def advance(self, fresh: tuple[tuple[str, Basic], ...],
                binds: tuple[tuple[str, Term], ...]) -> None:
        """Move past the pending action, fired with these fresh values and bindings."""
        self.sigma.update(fresh + binds)
        self.pc += 1


@dataclass
class WorldState:
    """A point of a run: each agent's knowledge, each session's progress,
    and the steps that reached it, in order, which `apply_candidate` appends."""

    proto: Protocol
    knowledge: dict[str, Knowledge]
    sessions: list[SessionState]
    steps: list[Step] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    used_basics: set[str] = field(default_factory=set)
    contexts: ContextTable = field(default_factory=ContextTable)
    matches: dict[Action, tuple[int, dict]] = field(default_factory=dict)  # see _traffic_binds

    @property
    def traffic(self) -> list[Action]:
        """The messages on the network, in order: the send steps' actions."""
        return [s.action for s in self.steps if s.action.kind in ("send", "send*")]

    def agent_of(self, s: SessionState) -> str:
        ag = s.sigma["id"]
        assert isinstance(ag, Basic)
        return ag.name


@dataclass(slots=True, unsafe_hash=True)
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
    contexts: ContextTable | None = field(default=None, compare=False, repr=False)


def parties(proto: Protocol, setup: Setup) -> set[str]:
    """The run's agent names: the declared ones, the observer and every
    session's id."""
    names = set(proto.decls.agents) | {OBSERVER}
    for _, sigma in setup.sessions:
        ag = sigma.get("id")
        if not isinstance(ag, Basic) or ag.sort != AGENT:
            raise ValueError("every session needs a declared agent for id")
        names.add(ag.name)
    return names


def stated_setup(proto: Protocol, layout: list[tuple[str, dict[str, Term]]] | int = 2,
                 privacy: bool = False) -> Setup:
    """The set-up proto's text states (its scenario) over a session list, or
    over its layout at a voter count; the observer's terms are held in a
    privacy check only."""
    sc = proto.scenario
    setup = Setup(layout if isinstance(layout, list) else sc.sessions(proto.decls, layout))
    for party in parties(proto, setup):
        setup.agent_assertions[party] = set(sc.facts)
    for agent, role, fact in sc.held:
        setup.agent_assertions[agent].update(
            substitute(fact, sigma) for r, sigma in setup.sessions if r == role)
    if privacy:
        setup.agent_terms[OBSERVER] = set(sc.observer)
    return setup


# each public term set's table, while some run or state holds it
_TABLES: weakref.WeakValueDictionary[frozenset[Term], ContextTable] = weakref.WeakValueDictionary()


def initial_state(proto: Protocol, setup: Setup) -> WorldState:
    names = parties(proto, setup)
    public: set[Term] = {Basic(n, AGENT) for n in names}
    public |= {App("vk", (Basic(n, AGENT),)) for n in names}
    public |= {Basic(n, NONCE) for n in proto.decls.nonces}
    table = _TABLES.get(pub := frozenset(public))
    if table is None:
        table = _TABLES[pub] = ContextTable()
    knowledge: dict[str, Knowledge] = {}
    for n in sorted(names):
        knowledge[n] = Knowledge(pub).extend(
            {App("sk", (Basic(n, AGENT),))} | setup.agent_terms.get(n, set()),
            {normalize(a) for a in setup.agent_assertions.get(n, set())})
    sessions = [SessionState(role, dict(sigma)) for role, sigma in setup.sessions]
    state = WorldState(proto, knowledge, sessions, contexts=table)
    state.used_basics |= {s.name for t in frozenset().union(*(k.terms for k in knowledge.values()))
                          for s in iter_subterms(t) if isinstance(s, Basic)}
    state.used_basics |= proto.decls.agents | proto.decls.nonces | proto.decls.keys
    return state


# ---------------------------------------------------------------------------
# instantiation helpers

def _instantiate(action: Action, sigma: dict[str, Term],
                 fresh: tuple[tuple[str, Basic], ...],
                 binds: tuple[tuple[str, Term], ...]) -> Action:
    """The action under a session's sigma extended by its fresh values and
    then its bindings.  Raises ValueError when that leaves a variable free,
    or puts a non-key in a key slot, which only a recorded step can ask for."""
    inst = action.instance({**sigma, **dict(fresh), **dict(binds)})
    if inst.used_vars():
        raise ValueError("action not ground after instantiation")
    return inst


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
    """Distinct bindings, as sorted pairs, under which a receive pattern
    matches a message on the network, in send order.  A state's steps only
    grow, so it keeps them with the number of steps seen, and matches only
    the sends among the rest."""
    pat = action.instance(sigma)
    seen, found = state.matches.get(pat, (0, {}))
    if seen < len(state.steps):
        found = dict(found)  # it may be a parent state's too
        for step in state.steps[seen:]:
            if step.action.kind in ("send", "send*"):
                got = match_message(pat, step.action)
                if got is not None:
                    found[tuple(sorted(got.items()))] = None
    state.matches[pat] = (len(state.steps), found)  # and keeps pat alive
    return list(found)


def match_message(pattern: Action, message: Action) -> dict[str, Term] | None:
    """The first binding of a receive pattern's variables that makes it the
    message, a send action, with the assertion if the pattern has one."""
    holes = pattern.used_vars()
    got = match_term(pattern.term, message.term, holes, {}, SYNTACTIC)
    if got and pattern.assertion is not None:
        got = [] if message.assertion is None else match_canonical(
            pattern.assertion, message.assertion, holes, got[0], SYNTACTIC)
    return got[0] if got else None


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
        intr = state.knowledge[OBSERVER]
        if not table.dy(intr.terms).derivable(act.term):
            yield "message not derivable on the network", None
        if act.assertion is not None:
            v = table.context(intr.terms, intr.assertions, budget, safe=True).query(act.assertion)
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
            v = table.context(base, know.assertions, budget, safe=True).query(act.assertion)
            if not v.derivable:
                yield failed("send assertion not derivable", v,
                             "send assertion hit the search budget")
    elif act.kind in ("confirm", "deny"):
        v = table.context(know.terms, know.assertions, budget).query(act.assertion)
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
    action = sess.pending(state.proto)
    if action is None:
        return [], False
    if action.kind == "recv":
        offers = [((), b) for b in _traffic_binds(state, action, sess.sigma)]
    else:
        offers = [(_allocate_fresh(state, idx + 1, action), ())]
    found: list[Step] = []
    for fresh, binds in offers:
        try:
            inst = _instantiate(action, sess.sigma, fresh, binds)
        except ValueError:  # a variable no session binds
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


def apply_candidate(state: WorldState, step: Step) -> WorldState:
    sess = state.sessions[step.session - 1]
    agent = state.agent_of(sess)
    act = step.action
    said = () if act.assertion is None else (act.assertion,)

    if act.kind in ("send", "send*"):
        _learn(state, agent, [value for _, value in step.fresh])
        state.used_basics.update(value.name for _, value in step.fresh)
        heard = said
        if act.kind == "send":
            heard += (SentT(act.agent, act.term), *(SentA(act.agent, a) for a in said))
        _learn(state, OBSERVER, (act.term,), heard)
    elif act.kind == "recv":
        _learn(state, agent, (act.term,), said)
    elif act.kind == "insert":
        before = state.knowledge[agent].assertions
        know = _learn(state, agent, (), said)
        if state.contexts.inconsistent(know.terms, know.assertions, before):
            state.warnings.append(
                f"session {step.session}: insert made {agent}'s theory inconsistent")
    # confirm and deny leave knowledge unchanged
    sess.advance(step.fresh, step.binds)
    state.steps.append(step)
    return state


def _copy_state(s: WorldState) -> WorldState:
    return WorldState(
        s.proto, dict(s.knowledge),
        [SessionState(x.role, dict(x.sigma), x.pc) for x in s.sessions],
        list(s.steps), list(s.warnings), set(s.used_basics), s.contexts, dict(s.matches))


def _fingerprint(state: WorldState):
    """The sessions' counters and bindings identify the state: a session's
    actions are its role's first pc actions under its bindings, so two
    interleavings that agree here took the same steps, in some order."""
    return (tuple(s.pc for s in state.sessions),
            tuple(tuple(sorted(s.sigma.items())) for s in state.sessions))


def _children(state: WorldState, cands: list[Step],
              rng: random.Random) -> Iterator[WorldState]:
    """The states one candidate step past state, made as the search
    reaches them.  Branch first over one session's
    candidates: a step without bindings, or else the session with the
    fewest options.  If all fail, fall back to the others: a step can wedge
    a run (a receive teaches what a pending deny refuses), and a good option
    may not have been sent yet.  Each group is shuffled when the search
    reaches it, so the draws follow the search's order."""
    by_sess: dict[int, list[Step]] = {}
    for c in cands:
        by_sess.setdefault(c.session, []).append(c)
    picked = min(by_sess.values(),
                 key=lambda cs: (bool(cs[0].binds), len(cs), cs[0].session))
    for group in (picked, [c for c in cands if c.session != picked[0].session]):
        group.sort(key=lambda c: (c.session, repr(c.binds)))
        rng.shuffle(group)
        for cand in group:
            yield apply_candidate(_copy_state(state), cand)


def simulate(proto: Protocol, setup: Setup, seed: int = 0,
             budget: SearchBudget = DEFAULT_BUDGET,
             max_states: int = 20_000) -> tuple[Run, WorldState]:
    """Search for a run that completes every session, exploring candidate
    choices depth first in a seeded random order, over a stack of each
    open state's `_children`.  Branches where a session is permanently
    stuck are cut early, and a state reached before is not explored again,
    so the fallback does not re-walk states the first pass settled.  The
    stack holds states, each with its own steps, and the one `Run` is read
    off the state the search ends at: the first completing one, or, if
    none completes within max_states, the one with the longest partial
    run.  The run is marked cut when the search stopped at max_states or
    refused a step only because a search budget ran out; it holds its
    table of contexts, and each distinct warning once, in the order first
    given."""
    rng = random.Random(seed)
    cut = False
    seen: set = set()
    best = initial_state(proto, setup)
    stack = [iter([best])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        if all(s.pending(proto) is None for s in state.sessions):
            break
        fp = _fingerprint(state)
        if fp in seen:
            continue
        seen.add(fp)
        if len(seen) > max_states:
            cut = True
            continue
        warned = len(state.warnings)
        cands, wedged = enabled_actions(state, budget)
        cut |= len(state.warnings) > warned  # only budget refusals warn here
        if wedged or not cands:
            if len(state.steps) > len(best.steps):
                best = state
            continue
        stack.append(_children(state, cands, rng))
    else:
        state = best
        state.warnings.append("no completing run found")
    complete = bool(stack)  # the search stopped at a completing state
    return Run(proto, setup, seed, list(state.steps), complete=complete,
               warnings=list(dict.fromkeys(state.warnings)), cut=cut and not complete,
               contexts=state.contexts), state


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
        action = sess.pending(run.proto)
        if action is None:
            problems.append((f"step {n}: session {step.session} already finished", False))
            break

        for name, value in step.fresh:
            if name not in action.fresh:
                problems.append((f"step {n}: unexpected fresh variable {name}", False))
            if value.name in state.used_basics:
                problems.append((f"step {n}: fresh value {value.name} is not fresh", False))
        if sorted(n0 for n0, _ in step.fresh) != sorted(action.fresh):
            problems.append((f"step {n}: fresh variables do not match the action", False))
        unbound = action.instance(sess.sigma).used_vars() if action.kind == "recv" else ()
        if sorted(k for k, _ in step.binds) != sorted(unbound):
            problems.append((f"step {n}: bindings do not match the action", False))
        try:
            inst = _instantiate(action, sess.sigma, step.fresh, step.binds)
        except ValueError as e:
            problems.append((f"step {n}: {e}", False))
            break
        if inst != step.action:
            problems.append((f"step {n}: recorded action does not match the role", False))
            break
        if action.kind == "recv" and (inst.term, inst.assertion) not in {
                (tr.term, a) for tr in state.traffic for a in (tr.assertion, None)}:
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
    at = p.i
    sort = p.ident()
    if sort not in (NONCE, KEY):
        raise ParseError(f"bad fresh sort {sort!r}", p.pos(at))
    (p.decls.keys if sort == KEY else p.decls.nonces).add(value)
    return name, Basic(value, sort)


def parse_trace(text: str, proto: Protocol, setup: Setup | None = None) -> Run:
    """Rebuild a run from its trace (grammar in the `syntax` docstring).
    The protocol must be the one the trace was produced from; the setup
    (initial knowledge) defaults to the one its text states over the
    trace's sessions (`stated_setup`)."""
    d = proto.decls
    p = Cursor(text, replace(d, nonces=set(d.nonces), keys=set(d.keys), strict=False), "trace")
    p.expect("run")
    at = p.i
    if p.ident() != proto.name:
        raise ParseError(f"trace is not for protocol {proto.name}", p.pos(at))
    p.expect("seed")
    p.expect("=")
    sign = -1 if p.eat("-") else 1
    seed = None if sign < 0 and not p.vals[p.i][:1].isdigit() else sign * p.number()

    sessions: list[tuple[str, dict[str, Term]]] = []
    while p.eat("session"):
        at = p.i
        if p.number() != len(sessions) + 1:
            raise ParseError("sessions out of order", p.pos(at))
        sessions.append(parse_session(p, proto))
    if setup is None:
        setup = stated_setup(proto, sessions)
    elif [(r, dict(s)) for r, s in setup.sessions] != sessions:
        raise ParseError("trace sessions do not match the given setup", "trace")

    states = [SessionState(r, dict(s)) for r, s in sessions]
    steps: list[Step] = []
    while p.eat("step"):
        at = p.i
        if p.number() != len(steps) + 1:
            raise ParseError("steps out of order", p.pos(at))
        p.expect("session")
        at = p.i
        snum = p.number()
        if not 1 <= snum <= len(states):
            raise ParseError(f"no session {snum}", p.pos(at))
        fresh = tuple(p.items(lambda: _fresh_value(p))) if p.eat("fresh") else ()
        binds = tuple(p.items(p.binding)) if p.eat("bind") else ()
        st = states[snum - 1]
        action = st.pending(proto)
        if action is None:
            raise ParseError(f"step {len(steps) + 1}: session {snum} already finished", p.pos(at))
        try:
            inst = _instantiate(action, st.sigma, fresh, binds)
        except ValueError as e:
            raise ParseError(f"step {len(steps) + 1}: {e}", p.pos(at)) from None
        steps.append(Step(snum, inst, fresh, binds))
        st.advance(fresh, binds)
    p.end()
    return Run(proto, setup, seed, steps)
