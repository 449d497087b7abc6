"""Assertion language: equalities, predicates, conjunction, disjunction,
existentials, says, and sent facts over terms.

Every rebuild that touches binders is one walk, `rebind`, which replaces
free variables and renames each binder in the same pass: a binder of the
input cannot capture an image by construction, whatever its name.
Normalization, substitution and the printer's readable names are `rebind`
under different renamings.  Stored assertions are alpha-normal: a binder at
nesting depth d is the reserved name %(d+1) (de Bruijn levels), which the
parser cannot produce and no substituted image mentions.  So a conjunct,
disjunct or says or sent body is alpha-normal too, and structural equality
coincides with alpha-equivalence for it as for the whole assertion.

Assertions are hash-consed like terms (`terms.Interned`, one shared weak
table): equal structures are one object, so `==` and `hash` are identity.
What depends only on the structure is computed once and cached on each
object, as a term's is (`terms.cached` attributes of `Assertion`, read by
their public names): `assertion_key`, `normalize`, `assertion_terms`,
`assertion_vars` and `free_vars` (each from its parts' cached values), the
assertions inside it that `subassertions` lists, and its `canonical` form;
an existential keeps its body `opened` per witness term.  `normalize`,
`substitute` and the parser mark a normal form as its own (`terms.cache`).

The one pattern matcher, `match_term`/`match_canonical`, lives here too.
It binds a pattern's holes so that the pattern equals a target modulo an
equality, both sides read in `canonical` form: the runtime binds receive
patterns, closed normal forms and so their own canonical form, under
`SYNTACTIC`, and the engine binds witness candidates modulo a branch's
congruence classes, a pattern's free bound names standing as its holes.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .terms import (
    Interned,
    Term,
    Var,
    cache,
    cached,
    children,
    has_bound_name,
    same_head,
    subst_term,
    term_vars,
)


class Assertion(metaclass=Interned):
    __slots__ = ()

    # Inline switch, not parts(): runs on every goal and hypothesis registered.
    @cached
    def _terms(self) -> tuple[Term, ...]:
        """All top term positions, in traversal order (agents included)."""
        if isinstance(self, (And, Or)):
            return self.left._terms + self.right._terms
        if isinstance(self, Exists):
            return self.body._terms
        if isinstance(self, (Says, SentA)):
            return (self.agent, *self.body._terms)
        if isinstance(self, SentT):
            return (self.agent, self.term)
        if isinstance(self, Eq):
            return (self.lhs, self.rhs)
        return self.args

    @cached
    def _vars(self) -> frozenset[str]:
        """The names of every variable in the terms, bound ones included."""
        terms, subs = parts(self)
        return frozenset().union(*map(term_vars, terms), *map(assertion_vars, subs))

    # Inline switch, not parts(): runs on every battery test and protocol step.
    @cached
    def _free(self) -> frozenset[str]:
        """The variables that no binder of the assertion captures."""
        if isinstance(self, Exists):
            return self.body._free - {self.var}
        if isinstance(self, (And, Or)):
            return self.left._free | self.right._free
        if isinstance(self, (Says, SentA)):
            agent = {self.agent.name} if isinstance(self.agent, Var) else set()
            return self.body._free | agent
        return self._vars

    @cached
    def _inner(self) -> tuple[Assertion, ...]:
        """Every assertion inside this one, in preorder."""
        out: tuple[Assertion, ...] = ()
        for sub in parts(self)[1]:  # a loop: a generator's frame per level halves the depth reached
            out += (sub, *sub._inner)
        return out

    @cached
    def _normal(self) -> Assertion:
        """Alpha-normal form: each binder becomes %(d+1) at its depth d.  It
        is its own normal form: renaming binders that already read %1, %2,
        ... by depth changes nothing."""
        nf = rebind(self, {}, numbered())
        return cache(nf, "_normal", nf)

    @cached
    def _key(self):
        """Total ordering key, built from `term_key`."""
        if isinstance(self, Eq):
            return (0, self.lhs._key, self.rhs._key)
        if isinstance(self, Pred):
            return (1, self.name, tuple(t._key for t in self.args))
        if isinstance(self, SentT):
            return (2, self.agent._key, self.term._key)
        if isinstance(self, SentA):
            return (3, self.agent._key, self.body._key)
        if isinstance(self, Says):
            return (4, self.agent._key, self.body._key)
        if isinstance(self, And):
            return (5, self.left._key, self.right._key)
        if isinstance(self, Or):
            return (6, self.left._key, self.right._key)
        return (7, self.var, self.body._key)

    @cached
    def _canonical(self) -> tuple[Assertion, dict[str, str]]:
        """The assertion as the matcher reads it, binders numbered by depth
        from its top so that aligned binders share a name, and the wildcard
        %?k that stands for each free bound name %k (a bound name too, but
        no binder's); with none, its normal form."""
        wild = {n: "%?" + n[1:] for n in self._free if n.startswith("%")}
        if not wild:
            return self._normal, wild
        return rebind(self, {n: Var(w) for n, w in wild.items()}, numbered()), wild


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

    @cached
    def _opened(self) -> dict[Term, Assertion]:  # filled by `opened`
        return {}


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


# Each reads a value cached on the assertion (see `Assertion`).
assertion_terms = attrgetter("_terms")
assertion_vars = attrgetter("_vars")
free_vars = attrgetter("_free")
normalize = attrgetter("_normal")
assertion_key = attrgetter("_key")
canonical = attrgetter("_canonical")


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


def subassertions(a: Assertion) -> tuple[Assertion, ...]:
    """a and every assertion inside it, in preorder.  The ones inside are
    cached on a; a itself is not, so that the cache is no reference cycle."""
    return (a, *a._inner)


def is_closed(a: Assertion) -> bool:
    return not free_vars(a)


# Inline switch, not parts()/rebuilt(): every normalize and substitute runs it.
def rebind(a: Assertion, env: dict[str, Term], rename, depth: int = 0) -> Assertion:
    """Rebuild a in one pass: each free variable named in env becomes its
    image, and each binder x at nesting depth d (counted from a's top, or
    from depth) becomes rename(x, d), called in preorder.  Under a binder,
    its own name hides whatever image env gives that name."""
    if isinstance(a, Exists):
        fresh = rename(a.var, depth)
        return Exists(fresh, rebind(a.body, {**env, a.var: Var(fresh)}, rename, depth + 1))
    if isinstance(a, (And, Or)):
        return type(a)(rebind(a.left, env, rename, depth), rebind(a.right, env, rename, depth))
    if isinstance(a, (Says, SentA)):
        return type(a)(subst_term(a.agent, env), rebind(a.body, env, rename, depth))
    if assertion_vars(a).isdisjoint(env):  # an Eq, Pred or SentT leaf env leaves as it is
        return a
    return map_terms(a, lambda t: subst_term(t, env))


def numbered():
    """The normal form's binder renaming: at depth d, the reserved name %(d+1)."""
    return lambda _old, depth: f"%{depth + 1}"


def substitute(a: Assertion, sigma: dict[str, Term]) -> Assertion:
    """Capture-avoiding substitution, with the result in alpha-normal form.

    When a is its own normal form (as every parsed assertion is) and no
    image holds a variable, the result is what `rebind` gives, built
    without it: a's binders already read %1, %2, ... by depth and no
    image adds one, so renaming them changes nothing and a binder only
    hides its own name.  Only the spine above the replaced occurrences is
    rebuilt, and the result is its own normal form.  The instance dict
    holds the mark: reading `_normal` would compute a's normal form."""
    if a.__dict__.get("_normal") is a and not any(map(term_vars, sigma.values())):
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
    return map_terms(a, lambda t: subst_term(t, sigma))


def opened(psi: Exists, u: Term) -> Assertion:
    """psi's body with the term u for its variable, memoized on psi per u;
    a u that raises ValueError (a non-key in a key slot) is not kept."""
    by_u = psi._opened
    if u not in by_u:
        by_u[u] = substitute(psi.body, {psi.var: u})
    return by_u[u]


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


def match_term(pat: Term, tgt: Term, holes, binding: dict[str, Term],
               eq) -> list[dict[str, Term]]:
    """Every extension of binding over the variables in holes under which
    pat equals tgt modulo eq.  A hole never takes a term that mentions a
    bound name, and a bound name that is no hole matches only itself."""
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


def _match_all(pairs, holes, binding: dict[str, Term], eq) -> list[dict[str, Term]]:
    """match_term over each (pattern, target) pair in turn."""
    found = [binding]
    for pat, tgt in pairs:
        found = [b for prev in found for b in match_term(pat, tgt, holes, prev, eq)]
    return found


def match_canonical(pat: Assertion, tgt: Assertion, holes, binding: dict[str, Term],
                    eq) -> list[dict[str, Term]]:
    """Every extension of binding under which pat equals tgt, two sides in
    `canonical` form: terms modulo eq, agents syntactically, binders
    aligned and never in a binding; holes are named as in pat's form."""
    if type(pat) is not type(tgt):
        return []
    if isinstance(pat, Exists):
        return match_canonical(pat.body, tgt.body, holes, binding, eq)
    if isinstance(pat, (And, Or)):
        return [b for prev in match_canonical(pat.left, tgt.left, holes, binding, eq)
                for b in match_canonical(pat.right, tgt.right, holes, prev, eq)]
    if isinstance(pat, (Says, SentA, SentT)):
        found = match_term(pat.agent, tgt.agent, holes, binding, SYNTACTIC)
        if isinstance(pat, SentT):
            return [b for prev in found for b in match_term(pat.term, tgt.term, holes, prev, eq)]
        return [b for prev in found for b in match_canonical(pat.body, tgt.body, holes, prev, eq)]
    if isinstance(pat, Pred) and (pat.name != tgt.name or len(pat.args) != len(tgt.args)):
        return []
    return _match_all(zip(assertion_terms(pat), assertion_terms(tgt)), holes, binding, eq)
