"""Protocol model: actions, roles, scenarios, validation, and instantiation.

An action is one of send, send* (anonymous send), recv, confirm, deny,
insert.  Sends may declare fresh variables; send and recv carry a term and
optionally an assertion; the local actions carry an assertion only.  A role
is one principal's finite action sequence; a protocol is a set of roles plus
declarations, and the scenario its text states.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .assertions import Assertion, assertion_terms, free_vars, reveals, substitute
from .dy import _synth_ok, dy_saturate
from .terms import (
    AGENT,
    Basic,
    Declarations,
    Enc,
    NONCE,
    Term,
    Var,
    cached,
    has_bound_name,
    is_ground,
    is_key_position,
    iter_subterms,
    subst_term,
    term_vars,
)

COMMUNICATING = ("send", "send*", "recv")
LOCAL = ("confirm", "deny", "insert")


@dataclass(frozen=True)
class Action:
    kind: str
    agent: Term
    fresh: tuple[str, ...] = ()
    term: Term | None = None
    assertion: Assertion | None = None
    phase: int = 0

    def __post_init__(self) -> None:
        if self.kind not in COMMUNICATING + LOCAL:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in COMMUNICATING and self.term is None:
            raise ValueError(f"{self.kind} action needs a term")
        if self.kind in LOCAL and (self.assertion is None or self.term is not None):
            raise ValueError(f"{self.kind} action carries exactly an assertion")
        if self.fresh and self.kind not in ("send", "send*"):
            raise ValueError("only sends declare fresh variables")

    def instance(self, sigma: dict[str, Term]) -> "Action":
        """`action_subst(self, sigma)`, one object per image of the action's
        variables, held weakly as terms are: unused, its entry goes."""
        names, live = self._instances
        key = tuple(map(sigma.get, names))
        inst = live.get(key)
        if inst is None:
            inst = live[key] = action_subst(self, sigma)
        return inst

    @cached
    def _instances(self) -> tuple[tuple[str, ...], weakref.WeakValueDictionary]:
        return tuple(sorted(self.used_vars())), weakref.WeakValueDictionary()

    def used_vars(self) -> frozenset[str]:
        out: set[str] = set()
        if isinstance(self.agent, Var):
            out.add(self.agent.name)
        if self.term is not None:
            out |= term_vars(self.term)
        if self.assertion is not None:
            out |= free_vars(self.assertion)
        return frozenset(out)

    @cached
    def key_vars(self) -> frozenset[str]:
        """The variables that occupy an encryption's key slot anywhere in the
        action.  Assertions are alpha-normal, so a bound one is a %n name."""
        terms = [self.agent] if self.term is None else [self.agent, self.term]
        if self.assertion is not None:
            terms += assertion_terms(self.assertion)
        return frozenset(s.key.name for t in terms for s in iter_subterms(t)
                         if isinstance(s, Enc) and isinstance(s.key, Var))


@dataclass(frozen=True)
class Role:
    name: str
    params: tuple[str, ...]
    actions: tuple[Action, ...]

    @cached
    def key_slot_vars(self) -> frozenset[str]:
        """The variables in an encryption's key slot in some action, outside its fresh ones."""
        return frozenset().union(*(act.key_vars - set(act.fresh) for act in self.actions))


@dataclass
class Scenario:
    """What a text's `setup` lines state (grammar in the `syntax` docstring):
    a layout of (role, bindings, once per voter) entries, the facts every
    party holds, the (agent, role, fact) facts an agent holds per session of
    a role over its bindings, and the observer's terms in a privacy check."""

    layout: list[tuple[str, dict[str, Term], bool]] = field(default_factory=list)
    facts: list[Assertion] = field(default_factory=list)
    held: list[tuple[str, str, Assertion]] = field(default_factory=list)
    observer: list[Term] = field(default_factory=list)

    def sessions(self, decls: Declarations, voters: int) -> list[tuple[str, dict[str, Term]]]:
        """The layout at a voter count: a per-voter entry once per voter i,
        each undeclared name N in its bindings read as the declared N<i>."""
        if voters < 2:
            raise ValueError(f"a layout needs at least 2 voters, got {voters}")
        out = []
        for role, sigma, each in self.layout:
            for i in range(voters if each else 1):
                index = {x: decls.classify(f"{x}{i}") for t in sigma.values()
                         for x in term_vars(t)} if each else {}
                for x, t in index.items():
                    if isinstance(t, Var):
                        raise ValueError(f"{x}{i} is not declared: names for at most {i} "
                                         f"voter{'s' * (i != 1)}")
                out.append((role, {k: subst_term(t, index) for k, t in sigma.items()}))
        return out


@dataclass
class Protocol:
    name: str
    decls: Declarations
    roles: dict[str, Role]
    phases: tuple[str, ...] = ()
    scenario: Scenario = field(default_factory=Scenario)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    role: str
    index: int
    detail: str

    def __str__(self) -> str:
        return f"{self.role}[{self.index}]: {self.code}: {self.detail}"


def validate_role(role: Role, proto: Protocol) -> list[Diagnostic]:
    """Static discipline checks.  Empty list means the role is well-formed."""
    diags: list[Diagnostic] = []
    d = proto.decls
    grounded: set[str] = set(role.params) | {"id"}
    seen: set[str] = set(grounded)
    payloads: list[Term] = []
    principal = role.actions[0].agent if role.actions else None

    for i, act in enumerate(role.actions):
        if principal is not None and act.agent != principal:
            diags.append(Diagnostic("mixed-principal", role.name, i,
                                    f"expected {principal}, found {act.agent}"))
        used = act.used_vars() - {"id"}

        if act.kind in ("send", "send*"):
            for v in act.fresh:
                if v in seen:
                    diags.append(Diagnostic("fresh-reuse", role.name, i, v))
            scope = grounded | set(act.fresh)
            for v in sorted(used - scope):
                if v not in seen:
                    diags.append(Diagnostic("unbound-variable", role.name, i, v))
                # a variable already flagged (or received earlier) is not re-flagged
            grounded |= set(act.fresh)
        elif act.kind == "recv":
            # pattern variables originating here become bound
            grounded |= used
        else:
            for v in sorted(used - grounded):
                diags.append(Diagnostic("unbound-variable", role.name, i,
                                        f"{v} in {act.kind}"))
        seen |= used | set(act.fresh)

        if act.term is not None:
            payloads.append(act.term)

        if act.kind in ("send", "send*") and act.assertion is not None:
            seed = set(payloads)
            seed.update(Var(v) for v in grounded)
            seed.update(Basic(n, AGENT) for n in d.agents)
            seed.update(Basic(n, NONCE) for n in d.nonces)
            analyzed, _ = dy_saturate(seed)
            for t in sorted(reveals(act.assertion), key=lambda s: str(s)):
                # terms under a quantifier are hidden by it, not checkable
                if has_bound_name(t):
                    continue
                if isinstance(t, Var):
                    continue
                if not _synth_ok(analyzed, t, vars_axiomatic=False):
                    diags.append(Diagnostic("reveal-violation", role.name, i,
                                            f"revealed term never communicated: {t!r}"))
    return diags


def validate_protocol(proto: Protocol) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for name in sorted(proto.roles):
        out.extend(validate_role(proto.roles[name], proto))
    return out


def action_subst(act: Action, sigma: dict[str, Term]) -> Action:
    return Action(
        act.kind,
        subst_term(act.agent, sigma),
        act.fresh,
        None if act.term is None else subst_term(act.term, sigma),
        None if act.assertion is None else substitute(act.assertion, sigma),
        act.phase,
    )


def suitable(sigma: dict[str, Term], role: Role, proto: Protocol) -> bool:
    """True when sigma grounds the role: defined on id and every parameter,
    id maps to a declared agent, values are ground and sort-respecting.
    The last means that every action of the role instantiates: a name sigma
    binds that sits in an encryption's key slot, outside that action's fresh
    variables (which sigma does not touch), gets key material."""
    needed = set(role.params) | {"id"}
    if not needed <= set(sigma):
        return False
    ag = sigma["id"]
    if not (isinstance(ag, Basic) and ag.sort == AGENT):
        return False
    for v in needed:
        if not is_ground(sigma[v]):
            return False
    return all(is_key_position(sigma[v]) for v in role.key_slot_vars if v in sigma)
