"""Assertion language: equalities, predicates, conjunction, disjunction,
existentials, says, and sent facts over terms.

Every rebuild that touches binders is one walk, `rebind`, which replaces
free variables and renames each binder in the same pass: a binder of the
input cannot capture an image by construction, whatever its name.
Normalization, substitution and the printer's readable names are `rebind`
under different renamings.  Stored assertions are alpha-normal: bound
variables are the reserved names %1, %2, ... in preorder, which the parser
cannot produce and no substituted image mentions, so structural equality
coincides with alpha-equivalence.

Assertions are hash-consed like terms (`terms.Interned`, one shared weak
table): equal structures are one object, so `==` and `hash` are identity.
What depends only on the structure is computed once and cached on each
object: `assertion_key`, `normalize` (a normal form caches itself as its own
normal form), an existential's body `opened` per witness name,
`assertion_terms`, `assertion_vars`, `free_vars`, and the assertions inside
it that `subassertions` lists.

The one pattern matcher, `match_term`/`match_assertion`, lives here too.  It
binds a pattern's holes so that the pattern equals a target modulo an
equality: the runtime binds receive patterns under `SYNTACTIC`, and the
engine binds witness candidates modulo a branch's congruence classes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .terms import (
    Interned,
    Term,
    Var,
    cache,
    children,
    has_bound_name,
    iter_subterms,
    same_head,
    subst_term,
    term_key,
    term_vars,
)


class Assertion(metaclass=Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Eq(Assertion):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False)
class Pred(Assertion):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True, eq=False)
class And(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, eq=False)
class Or(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, eq=False)
class Exists(Assertion):
    var: str
    body: Assertion


@dataclass(frozen=True, eq=False)
class Says(Assertion):
    agent: Term  # agent name or variable
    body: Assertion


@dataclass(frozen=True, eq=False)
class SentT(Assertion):
    agent: Term
    term: Term


@dataclass(frozen=True, eq=False)
class SentA(Assertion):
    agent: Term
    body: Assertion


def parts(a: Assertion) -> tuple[tuple[Term, ...], tuple[Assertion, ...]]:
    """The term positions of a, agents included, and its direct
    subassertions, each left to right."""
    if isinstance(a, Eq):
        return (a.lhs, a.rhs), ()
    if isinstance(a, Pred):
        return a.args, ()
    if isinstance(a, SentT):
        return (a.agent, a.term), ()
    if isinstance(a, (Says, SentA)):
        return (a.agent,), (a.body,)
    if isinstance(a, (And, Or)):
        return (), (a.left, a.right)
    if isinstance(a, Exists):
        return (), (a.body,)
    raise TypeError(f"not an assertion: {a!r}")


def rebuilt(a: Assertion, terms, subs) -> Assertion:
    """a with its term positions and direct subassertions replaced, in the
    order of parts(a); predicate names and binders stay."""
    if isinstance(a, Pred):
        return Pred(a.name, tuple(terms))
    if isinstance(a, Exists):
        return Exists(a.var, *subs)
    return type(a)(*terms, *subs)


# Inline switch, not parts()/rebuilt(): runs on every query's substitutions.
def map_terms(a: Assertion, f) -> Assertion:
    """Apply f to every term position (agents included); binders untouched."""
    if isinstance(a, Eq):
        return Eq(f(a.lhs), f(a.rhs))
    if isinstance(a, Pred):
        return Pred(a.name, tuple(f(t) for t in a.args))
    if isinstance(a, And):
        return And(map_terms(a.left, f), map_terms(a.right, f))
    if isinstance(a, Or):
        return Or(map_terms(a.left, f), map_terms(a.right, f))
    if isinstance(a, Exists):
        return Exists(a.var, map_terms(a.body, f))
    if isinstance(a, Says):
        return Says(f(a.agent), map_terms(a.body, f))
    if isinstance(a, SentT):
        return SentT(f(a.agent), f(a.term))
    if isinstance(a, SentA):
        return SentA(f(a.agent), map_terms(a.body, f))
    raise TypeError(f"not an assertion: {a!r}")


def assertion_terms(a: Assertion) -> tuple[Term, ...]:
    """All top term positions, in traversal order (agents included).
    Cached on a."""
    try:
        return a._terms
    except AttributeError:
        return cache(a, "_terms", _assertion_terms(a))


# Inline switch, not parts(): runs on every goal and hypothesis registered.
def _assertion_terms(a: Assertion) -> tuple[Term, ...]:
    if isinstance(a, (And, Or)):
        return assertion_terms(a.left) + assertion_terms(a.right)
    if isinstance(a, Exists):
        return assertion_terms(a.body)
    if isinstance(a, (Says, SentA)):
        return (a.agent, *assertion_terms(a.body))
    if isinstance(a, SentT):
        return (a.agent, a.term)
    if isinstance(a, Eq):
        return (a.lhs, a.rhs)
    if isinstance(a, Pred):
        return a.args
    raise TypeError(f"not an assertion: {a!r}")


def assertion_vars(a: Assertion) -> frozenset[str]:
    """The names of every variable in a's terms, bound ones included.
    Cached on a."""
    try:
        return a._vars
    except AttributeError:
        return cache(a, "_vars", frozenset(
            s.name for t in assertion_terms(a) for s in iter_subterms(t)
            if isinstance(s, Var)))


def free_vars(a: Assertion) -> frozenset[str]:
    """The variables of a that no binder of a captures.  Cached on a."""
    try:
        return a._free
    except AttributeError:
        return cache(a, "_free", _free_vars(a))


# Inline switch, not parts(): runs on every battery test and protocol step.
def _free_vars(a: Assertion) -> frozenset[str]:
    if isinstance(a, Exists):
        return free_vars(a.body) - {a.var}
    if isinstance(a, (And, Or)):
        return free_vars(a.left) | free_vars(a.right)
    if isinstance(a, (Says, SentA)):
        agent = {a.agent.name} if isinstance(a.agent, Var) else set()
        return free_vars(a.body) | agent
    return assertion_vars(a)


def subassertions(a: Assertion) -> tuple[Assertion, ...]:
    """a and every assertion inside it, in preorder.  The ones inside are
    cached on a; a itself is not, so that the cache is no reference cycle."""
    try:
        inner = a._inner
    except AttributeError:
        inner = cache(a, "_inner", tuple(s for sub in parts(a)[1]
                                         for s in subassertions(sub)))
    return (a, *inner)


def is_closed(a: Assertion) -> bool:
    return not free_vars(a)


# Inline switch, not parts()/rebuilt(): every normalize and substitute runs it.
def rebind(a: Assertion, env: dict[str, Term], rename) -> Assertion:
    """Rebuild a in one pass: each free variable named in env becomes its
    image, and each binder x becomes rename(x), called in preorder.  Under
    a binder, its own name hides whatever image env gives that name."""
    if isinstance(a, Exists):
        fresh = rename(a.var)
        return Exists(fresh, rebind(a.body, {**env, a.var: Var(fresh)}, rename))
    if isinstance(a, (And, Or)):
        return type(a)(rebind(a.left, env, rename), rebind(a.right, env, rename))
    if isinstance(a, (Says, SentA)):
        return type(a)(subst_term(a.agent, env), rebind(a.body, env, rename))
    return map_terms(a, lambda t: subst_term(t, env))


def numbered():
    """A binder renaming that yields the reserved names %1, %2, ... in turn."""
    count = itertools.count(1)
    return lambda _old: f"%{next(count)}"


def normalize(a: Assertion) -> Assertion:
    """Alpha-normal form: bound variables become %1, %2, ... in preorder.
    Cached on a; the normal form is its own normal form, because renaming
    binders that already read %1, %2, ... in preorder changes nothing."""
    try:
        return a._normal
    except AttributeError:
        nf = rebind(a, {}, numbered())
        cache(nf, "_normal", nf)
        return cache(a, "_normal", nf)


def substitute(a: Assertion, sigma: dict[str, Term]) -> Assertion:
    """Capture-avoiding substitution, with the result in alpha-normal form.

    When a is its own normal form (as every parsed assertion is) and no
    image holds a variable, the result is what `rebind` gives, built
    without it: a's binders already read %1, %2, ... in preorder and no
    image adds one, so renaming them changes nothing and a binder only
    hides its own name.  Only the spine above the replaced occurrences is
    rebuilt, and the result is its own normal form."""
    if getattr(a, "_normal", None) is a and not any(map(term_vars, sigma.values())):
        out = _ground(a, sigma)
        return cache(out, "_normal", out)
    return rebind(a, sigma, numbered())


def _ground(a: Assertion, sigma: dict[str, Term]) -> Assertion:
    """`rebind` of a normal a under variable-free images, renaming nothing."""
    if free_vars(a).isdisjoint(sigma):
        return a
    if isinstance(a, Exists):
        if a.var in sigma:
            sigma = {k: v for k, v in sigma.items() if k != a.var}
        return Exists(a.var, _ground(a.body, sigma))
    if isinstance(a, (And, Or)):
        return type(a)(_ground(a.left, sigma), _ground(a.right, sigma))
    if isinstance(a, (Says, SentA)):
        return type(a)(subst_term(a.agent, sigma), _ground(a.body, sigma))
    return map_terms(a, lambda t: t if term_vars(t).isdisjoint(sigma) else subst_term(t, sigma))


def opened(psi: Exists, var: str) -> Assertion:
    """psi's body over the variable var, memoized on psi per name."""
    by_var = getattr(psi, "_opened", None) or cache(psi, "_opened", {})
    if var not in by_var:
        by_var[var] = substitute(psi.body, {psi.var: Var(var)})
    return by_var[var]


def reveals(a: Assertion) -> frozenset[Term]:
    """Terms laid open by an assertion: equality sides and predicate
    arguments, collected through /\\, \\/, existentials, says and sent
    bodies.  Occurrence inside a collected encryption does not reveal the
    plaintext; sent-term facts reveal nothing (the term was communicated
    anyway)."""
    terms, subs = parts(a)
    out = set(terms) if isinstance(a, (Eq, Pred)) else set()
    for sub in subs:
        out |= reveals(sub)
    return frozenset(out)


def assertion_key(a: Assertion):
    """Total ordering key, built from `term_key`.  Cached on a."""
    try:
        return a._key
    except AttributeError:
        return cache(a, "_key", _assertion_key(a))


def _assertion_key(a: Assertion):
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


# ---------------------------------------------------------------------------
# matching modulo an equality (E-matching, as in de Moura & Bjorner, CADE
# 2007).  `eq` offers same(a, b) and members(t), the terms known equal to t;
# for a term that mentions a bound name, same is == and members is the term
# alone.


class _Syntactic:
    """Plain structural equality: every term is alone in its class."""

    @staticmethod
    def same(a: Term, b: Term) -> bool:
        return a == b

    @staticmethod
    def members(t: Term) -> tuple[Term, ...]:
        return (t,)


SYNTACTIC = _Syntactic()
_NO_BINDERS: dict[str, Term] = {}


def match_term(pat: Term, tgt: Term, holes, binding: dict[str, Term], eq,
               env_p: dict[str, Term] = _NO_BINDERS,
               env_t: dict[str, Term] = _NO_BINDERS) -> list[dict[str, Term]]:
    """Every extension of binding over the variables in holes under which
    pat equals tgt modulo eq.  A hole never takes a term that mentions a
    bound name.  env_p and env_t map the binders in scope on each side to
    shared tokens (see `match_assertion`): pat and tgt are matched as if
    each such variable were its token."""
    if env_p or env_t:
        renamed_p, renamed_t = _mentions(pat, env_p), _mentions(tgt, env_t)
        if renamed_p or renamed_t:
            return _match_tokens(pat, tgt, holes, binding, eq, env_p, env_t,
                                 renamed_p, renamed_t)
    if isinstance(pat, Var) and pat.name in holes:
        bound = binding.get(pat.name)
        if bound is not None:
            return [binding] if eq.same(bound, tgt) else []
        if has_bound_name(tgt):
            return []
        return [{**binding, pat.name: tgt}]
    if pat == tgt or (not has_bound_name(pat) and eq.same(pat, tgt)):
        return [binding]
    out: list[dict[str, Term]] = []
    for m in eq.members(tgt):
        if same_head(pat, m):
            out += _match_all(zip(children(pat), children(m)), holes, binding, eq)
    return out


def _mentions(t: Term, env: dict[str, Term]) -> bool:
    return bool(env) and not env.keys().isdisjoint(term_vars(t))


def _match_tokens(pat: Term, tgt: Term, holes, binding: dict[str, Term], eq,
                  env_p: dict[str, Term], env_t: dict[str, Term],
                  renamed_p: bool, renamed_t: bool) -> list[dict[str, Term]]:
    """match_term where pat or tgt, read through its binders, holds a token
    (renamed_p, renamed_t).  A token is a bound name: no hole takes a term
    with one, and eq compares such a term by identity only, so it can equal
    nothing but the other side read the same way, and its only class member
    is itself."""
    if isinstance(pat, Var):  # a token meets only its own token
        token = env_p.get(pat.name)
        return [binding] if (token is not None and isinstance(tgt, Var)
                             and env_t.get(tgt.name) is token) else []
    if renamed_p and renamed_t and _aligned(pat, tgt, env_p, env_t):
        return [binding]
    out: list[dict[str, Term]] = []
    for m in (tgt,) if renamed_t else eq.members(tgt):
        if same_head(pat, m):
            out += _match_all(zip(children(pat), children(m)), holes, binding, eq,
                              env_p, env_t if renamed_t else _NO_BINDERS)
    return out


def _aligned(p: Term, t: Term, env_p: dict[str, Term], env_t: dict[str, Term]) -> bool:
    """p and t are one term once each binder in scope is read as its token."""
    if isinstance(p, Var) or isinstance(t, Var):
        return (isinstance(p, Var) and isinstance(t, Var)
                and env_p.get(p.name, p) is env_t.get(t.name, t))
    if not same_head(p, t):
        return p is t
    return all(_aligned(a, b, env_p, env_t) for a, b in zip(children(p), children(t)))


def _match_all(pairs, holes, binding: dict[str, Term], eq,
               env_p: dict[str, Term] = _NO_BINDERS,
               env_t: dict[str, Term] = _NO_BINDERS) -> list[dict[str, Term]]:
    """match_term over each (pattern, target) pair in turn."""
    found = [binding]
    for pat, tgt in pairs:
        found = [b for prev in found
                 for b in match_term(pat, tgt, holes, prev, eq, env_p, env_t)]
    return found


def match_assertion(pat: Assertion, tgt: Assertion, holes,
                    binding: dict[str, Term], eq) -> list[dict[str, Term]]:
    """Every extension of binding under which pat equals tgt: terms modulo
    eq, agents syntactically.  Bound variables on both sides stand for
    shared tokens %b0, %b1, ... by depth, read through one binder map per
    side, so binder structure must align and never leaks into a binding."""
    return _match_assertion(pat, tgt, holes, binding, eq, _NO_BINDERS, _NO_BINDERS)


def _match_assertion(pat: Assertion, tgt: Assertion, holes, binding: dict[str, Term],
                     eq, env_p: dict[str, Term], env_t: dict[str, Term]) -> list[dict[str, Term]]:
    if isinstance(pat, Exists):
        if not isinstance(tgt, Exists):
            return []
        token = Var(f"%b{len(env_p)}")
        return _match_assertion(pat.body, tgt.body, holes, binding, eq,
                                {**env_p, pat.var: token}, {**env_t, tgt.var: token})
    if type(pat) is not type(tgt):
        return []
    if isinstance(pat, (And, Or)):
        return [b for prev in _match_assertion(pat.left, tgt.left, holes, binding, eq, env_p, env_t)
                for b in _match_assertion(pat.right, tgt.right, holes, prev, eq, env_p, env_t)]
    if isinstance(pat, (Says, SentA, SentT)):
        found = match_term(pat.agent, tgt.agent, holes, binding, SYNTACTIC, env_p, env_t)
        if isinstance(pat, SentT):
            return [b for prev in found
                    for b in match_term(pat.term, tgt.term, holes, prev, eq, env_p, env_t)]
        return [b for prev in found
                for b in _match_assertion(pat.body, tgt.body, holes, prev, eq, env_p, env_t)]
    if isinstance(pat, Pred) and (pat.name != tgt.name or len(pat.args) != len(tgt.args)):
        return []
    return _match_all(zip(assertion_terms(pat), assertion_terms(tgt)),
                      holes, binding, eq, env_p, env_t)
