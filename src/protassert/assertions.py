"""Assertion language: equalities, predicates, conjunction, disjunction,
existentials, says, and sent facts over terms.

Internally every stored assertion is alpha-normalized: bound variables are
renamed to reserved names %1, %2, ... in preorder.  Those names cannot be
produced by the parser, so substitution for free variables can never capture
and structural equality coincides with alpha-equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .terms import Term, Var, iter_subterms, subst_term, term_key


class Assertion:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Assertion):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Pred(Assertion):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class And(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True)
class Or(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True)
class Exists(Assertion):
    var: str
    body: Assertion


@dataclass(frozen=True)
class Says(Assertion):
    agent: Term  # agent name or variable
    body: Assertion


@dataclass(frozen=True)
class SentT(Assertion):
    agent: Term
    term: Term


@dataclass(frozen=True)
class SentA(Assertion):
    agent: Term
    body: Assertion


def _map_terms(a: Assertion, f) -> Assertion:
    if isinstance(a, Eq):
        return Eq(f(a.lhs), f(a.rhs))
    if isinstance(a, Pred):
        return Pred(a.name, tuple(f(t) for t in a.args))
    if isinstance(a, And):
        return And(_map_terms(a.left, f), _map_terms(a.right, f))
    if isinstance(a, Or):
        return Or(_map_terms(a.left, f), _map_terms(a.right, f))
    if isinstance(a, Exists):
        return Exists(a.var, _map_terms(a.body, f))
    if isinstance(a, Says):
        return Says(f(a.agent), _map_terms(a.body, f))
    if isinstance(a, SentT):
        return SentT(f(a.agent), f(a.term))
    if isinstance(a, SentA):
        return SentA(f(a.agent), _map_terms(a.body, f))
    raise TypeError(f"not an assertion: {a!r}")


def map_terms(a: Assertion, f) -> Assertion:
    """Apply f to every term position (agents included); binders untouched."""
    return _map_terms(a, f)


def assertion_terms(a: Assertion) -> list[Term]:
    """All top term positions, in traversal order (agents included)."""
    out: list[Term] = []
    _collect_terms(a, out)
    return out


def _collect_terms(a: Assertion, out: list[Term]) -> None:
    if isinstance(a, (And, Or)):
        _collect_terms(a.left, out)
        _collect_terms(a.right, out)
    elif isinstance(a, Exists):
        _collect_terms(a.body, out)
    elif isinstance(a, (Says, SentA)):
        out.append(a.agent)
        _collect_terms(a.body, out)
    elif isinstance(a, SentT):
        out += (a.agent, a.term)
    elif isinstance(a, Eq):
        out += (a.lhs, a.rhs)
    elif isinstance(a, Pred):
        out += a.args
    else:
        raise TypeError(f"not an assertion: {a!r}")


def assertion_vars(a: Assertion) -> frozenset[str]:
    names: set[str] = set()
    for t in assertion_terms(a):
        for s in iter_subterms(t):
            if isinstance(s, Var):
                names.add(s.name)
    return frozenset(names)


def free_vars(a: Assertion, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    if isinstance(a, Exists):
        return free_vars(a.body, bound | {a.var})
    out: set[str] = set()
    if isinstance(a, (And, Or)):
        out |= free_vars(a.left, bound) | free_vars(a.right, bound)
    elif isinstance(a, (Says, SentA)):
        if isinstance(a.agent, Var) and a.agent.name not in bound:
            out.add(a.agent.name)
        out |= free_vars(a.body, bound)
    else:
        for t in assertion_terms(a):
            for s in iter_subterms(t):
                if isinstance(s, Var) and s.name not in bound:
                    out.add(s.name)
    return frozenset(out)


def is_closed(a: Assertion) -> bool:
    return not free_vars(a)


def normalize(a: Assertion) -> Assertion:
    """Alpha-normal form: bound variables become %1, %2, ... in preorder."""
    counter = [0]

    def walk(a: Assertion, env: dict[str, Term]) -> Assertion:
        if isinstance(a, Exists):
            counter[0] += 1
            fresh = f"%{counter[0]}"
            return Exists(fresh, walk(a.body, {**env, a.var: Var(fresh)}))
        if isinstance(a, And):
            return And(walk(a.left, env), walk(a.right, env))
        if isinstance(a, Or):
            return Or(walk(a.left, env), walk(a.right, env))
        if isinstance(a, Says):
            return Says(subst_term(a.agent, env), walk(a.body, env))
        if isinstance(a, SentA):
            return SentA(subst_term(a.agent, env), walk(a.body, env))
        return _map_terms(a, lambda t: subst_term(t, env))

    return walk(a, {})


def substitute(a: Assertion, sigma: dict[str, Term]) -> Assertion:
    """Capture-avoiding substitution; the result is re-normalized.

    Safe because bound names are reserved (%n) and substitution images never
    contain them, so naive replacement cannot capture."""
    return normalize(substitute_raw(a, sigma))


def substitute_raw(a: Assertion, sigma: dict[str, Term]) -> Assertion:
    if isinstance(a, Exists):
        inner = {k: v for k, v in sigma.items() if k != a.var}
        return Exists(a.var, substitute_raw(a.body, inner))
    if isinstance(a, And):
        return And(substitute_raw(a.left, sigma), substitute_raw(a.right, sigma))
    if isinstance(a, Or):
        return Or(substitute_raw(a.left, sigma), substitute_raw(a.right, sigma))
    if isinstance(a, Says):
        return Says(subst_term(a.agent, sigma), substitute_raw(a.body, sigma))
    if isinstance(a, SentA):
        return SentA(subst_term(a.agent, sigma), substitute_raw(a.body, sigma))
    return _map_terms(a, lambda t: subst_term(t, sigma))


def reveals(a: Assertion) -> frozenset[Term]:
    """Terms laid open by an assertion: equality sides and predicate
    arguments, collected through /\\, \\/, existentials, says and sent
    bodies.  Occurrence inside a collected encryption does not reveal the
    plaintext; sent-term facts reveal nothing (the term was communicated
    anyway)."""
    out: set[Term] = set()

    def walk(a: Assertion) -> None:
        if isinstance(a, Eq):
            out.add(a.lhs)
            out.add(a.rhs)
        elif isinstance(a, Pred):
            out.update(a.args)
        elif isinstance(a, (And, Or)):
            walk(a.left)
            walk(a.right)
        elif isinstance(a, Exists):
            walk(a.body)
        elif isinstance(a, (Says, SentA)):
            walk(a.body)
        # SentT: nothing

    walk(a)
    return frozenset(out)


def assertion_key(a: Assertion):
    if isinstance(a, Eq):
        return (0, term_key(a.lhs), term_key(a.rhs))
    if isinstance(a, Pred):
        return (1, a.name, tuple(term_key(t) for t in a.args))
    if isinstance(a, SentT):
        return (2, term_key(a.agent), term_key(a.term))
    if isinstance(a, SentA):
        return (3, term_key(a.agent), assertion_key(a.body))
    if isinstance(a, Says):
        return (4, term_key(a.agent), assertion_key(a.body))
    if isinstance(a, And):
        return (5, assertion_key(a.left), assertion_key(a.right))
    if isinstance(a, Or):
        return (6, assertion_key(a.left), assertion_key(a.right))
    if isinstance(a, Exists):
        return (7, a.var, assertion_key(a.body))
    raise TypeError(f"not an assertion: {a!r}")


def sorted_assertions(assertions) -> list[Assertion]:
    return sorted(assertions, key=assertion_key)
