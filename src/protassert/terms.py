"""Term algebra: basics, variables, pairs, encryptions, constructor applications.

Terms are immutable and hash-consed (Filliatre & Conchon, *Type-safe modular
hash-consing*, ML 2006): constructing a term looks its class and fields up in
one weak table, so while any reference to a structure lives it exists as
exactly one object.  Equality and hashing are therefore object identity, the
C-level defaults, and values that depend only on the structure are computed
once per object and cached on it: for a term, `term_key`, `has_bound_name`
and `term_vars`.  Assertions share the table and the metaclass
(`Interned`); the `assertions` docstring lists what each assertion caches.

Encryption keys are constrained at construction: a key position holds a basic of
sort key, a variable, or an application of a key constructor (sk/vk).

`Declarations` is the signature a sequent, protocol or trace declares: which
names are basics of which sort, and the arities of its symbols.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

AGENT = "agent"
NONCE = "nonce"
KEY = "key"
SORTS = (AGENT, NONCE, KEY)

# Reserved constructors that build key material.  They are atomic for
# derivation purposes: never synthesized from their arguments and never
# decomposed, unlike ordinary constructors which are composition-only.
KEY_CONSTRUCTORS = frozenset({"sk", "vk"})


# (class, *fields) -> the one live object with that structure.  Lookups read
# its dict of weak references directly, which skips a Python-level method
# call; stores go through the table, which removes an entry when its object
# dies.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_REFS: dict = _TABLE.data


class Interned(type):
    """Metaclass of the hash-consed dataclasses (terms and assertions).

    A call returns the live object with the same class and fields if there
    is one; otherwise it builds one, which runs `__post_init__` validation
    before anything enters the table.  The classes are dataclasses with
    `eq=False`, so `==` and `hash` are identity.  They are not slotted, so
    each instance has the `__weakref__` the table needs and a `__dict__` for
    the per-object caches; a slotted dataclass would need `weakref_slot`,
    which is Python 3.11 only."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            # Rare (tests, readable call sites): let the dataclass bind and
            # check the arguments, then intern by its fields.
            obj = super().__call__(*args, **kwargs)
            return _TABLE.setdefault((cls, *(getattr(obj, f) for f in cls.__match_args__)), obj)
        key = (cls, *args)
        ref = _REFS.get(key)
        obj = None if ref is None else ref()
        if obj is None:  # never built, or collected
            obj = _TABLE[key] = super().__call__(*args)
        return obj


def cache(obj, name: str, value):
    """Store value on obj under name (the dataclasses are frozen) and
    return it."""
    object.__setattr__(obj, name, value)
    return value


class Term(metaclass=Interned):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Basic(Term):
    name: str
    sort: str

    def __post_init__(self) -> None:
        if self.sort not in SORTS:
            raise ValueError(f"unknown sort {self.sort!r}")


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Enc(Term):
    body: Term
    key: Term

    def __post_init__(self) -> None:
        if not is_key_position(self.key):
            raise ValueError(f"encryption key must be key material, got {self.key!r}")


@dataclass(frozen=True, eq=False)
class App(Term):
    ctor: str
    args: tuple[Term, ...]


def is_key_position(t: Term) -> bool:
    """True when t may occur in the key slot of an encryption."""
    if isinstance(t, Var):
        return True
    if isinstance(t, Basic):
        return t.sort == KEY
    if isinstance(t, App):
        return t.ctor in KEY_CONSTRUCTORS
    return False


def sk(agent: Term) -> Term:
    return App("sk", (agent,))


def vk(agent: Term) -> Term:
    return App("vk", (agent,))


class KeyStructure:
    """Inverse-key map: sk(A) and vk(A) are mutually inverse, basic keys and
    variables are self-inverse."""

    def inverse(self, t: Term) -> Term:
        if isinstance(t, Var):
            return t
        if isinstance(t, Basic) and t.sort == KEY:
            return t
        if isinstance(t, App) and t.ctor == "sk":
            return App("vk", t.args)
        if isinstance(t, App) and t.ctor == "vk":
            return App("sk", t.args)
        raise ValueError(f"not key material: {t!r}")


KEYS = KeyStructure()


@dataclass
class Declarations:
    agents: set[str] = field(default_factory=set)
    nonces: set[str] = field(default_factory=set)
    keys: set[str] = field(default_factory=set)
    predicates: dict[str, int] = field(default_factory=dict)
    constructors: dict[str, int | None] = field(default_factory=dict)  # None: variadic
    strict: bool = False  # undeclared predicates and constructors are refused

    def classify(self, name: str) -> Term:
        if name in self.agents:
            return Basic(name, AGENT)
        if name in self.nonces:
            return Basic(name, NONCE)
        if name in self.keys:
            return Basic(name, KEY)
        return Var(name)


def children(t: Term) -> tuple[Term, ...]:
    """The direct subterms of t, left to right: a pair's sides, an
    encryption's body then key, a constructor's arguments."""
    if isinstance(t, Pair):
        return (t.left, t.right)
    if isinstance(t, Enc):
        return (t.body, t.key)
    if isinstance(t, App):
        return t.args
    return ()


def rebuild(t: Term, kids) -> Term:
    """t with its children replaced by kids, in the order of children(t).
    Raises ValueError when an encryption would get a non-key key."""
    if isinstance(t, (Pair, Enc)):
        return type(t)(*kids)
    if isinstance(t, App):
        return App(t.ctor, tuple(kids))
    return t


def same_head(a: Term, b: Term) -> bool:
    """a and b are compounds of one constructor and arity, so their
    children line up."""
    if isinstance(a, App):
        return isinstance(b, App) and a.ctor == b.ctor and len(a.args) == len(b.args)
    return isinstance(a, (Pair, Enc)) and type(a) is type(b)


# Inline switch, not children(): runs on every query, where a call per node shows.
def iter_subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Pair):
        yield from iter_subterms(t.left)
        yield from iter_subterms(t.right)
    elif isinstance(t, Enc):
        yield from iter_subterms(t.body)
        yield from iter_subterms(t.key)
    elif isinstance(t, App):
        for a in t.args:
            yield from iter_subterms(a)


def term_vars(t: Term) -> frozenset[str]:
    """The names of the variables in t.  Cached on t."""
    try:
        return t._vars
    except AttributeError:
        return cache(t, "_vars", frozenset(s.name for s in iter_subterms(t)
                                           if isinstance(s, Var)))


def is_ground(t: Term) -> bool:
    return not term_vars(t)


def has_bound_name(t: Term) -> bool:
    """Mentions a reserved bound name (%n), so t lives under a quantifier.
    Cached on t."""
    try:
        return t._bound
    except AttributeError:
        if isinstance(t, Var):
            return cache(t, "_bound", t.name.startswith("%"))
        return cache(t, "_bound", any(map(has_bound_name, children(t))))


_SORT_RANK = {AGENT: 0, NONCE: 1, KEY: 2}


def term_key(t: Term):
    """Total ordering key: basics by sort then name, then variables, then
    structure for compound terms.  Cached on t."""
    try:
        return t._key
    except AttributeError:
        return cache(t, "_key", _term_key(t))


def _term_key(t: Term):
    if isinstance(t, Basic):
        return (0, _SORT_RANK[t.sort], t.name)
    if isinstance(t, Var):
        return (1, t.name)
    if isinstance(t, Pair):
        return (2, term_key(t.left), term_key(t.right))
    if isinstance(t, Enc):
        return (3, term_key(t.body), term_key(t.key))
    if isinstance(t, App):
        return (4, t.ctor, tuple(term_key(a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def sorted_terms(terms) -> list[Term]:
    return sorted(terms, key=term_key)


# Inline switch, not children()/rebuild(): runs on every query's substitutions.
def subst_term(t: Term, sigma: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if isinstance(t, Pair):
        return Pair(subst_term(t.left, sigma), subst_term(t.right, sigma))
    if isinstance(t, Enc):
        return Enc(subst_term(t.body, sigma), subst_term(t.key, sigma))
    if isinstance(t, App):
        return App(t.ctor, tuple(subst_term(a, sigma) for a in t.args))
    return t


def replace_term(t: Term, mapping: dict[Term, Term]) -> Term:
    """Replace every occurrence of each mapping key (matched as a whole
    subterm, outermost first) by its image."""
    if t in mapping:
        return mapping[t]
    return rebuild(t, [replace_term(c, mapping) for c in children(t)])
