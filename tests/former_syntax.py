# The parser as it was before it read assertions straight to alpha-normal
# form, kept as the specification of the current one: src/protassert/syntax.py
# at that point, verbatim but for absolute imports and without its printer
# (print_term, print_assertion, print_action, print_protocol and the helpers
# only they used), which no test called.  tests/test_parser_differential.py
# runs both parsers over the same inputs.  Nothing under perfbench/ imports
# this module.
"""Concrete syntax: parsing and printing for terms, assertions, sequent
files, the protocol description language and session lists, and the cursor
that the trace reader (`runtime.parse_trace`) shares.

Term grammar:      t ::= IDENT | '(' t ',' t ')' | '{' t '}' k | IDENT '(' t, ... ')'
Assertion grammar: a ::= t '=' t | IDENT '(' t, ... ')' | a '/\\' a | a '\\/' a
                       | 'ex' IDENT, ... ':' a | IDENT 'says' a | IDENT 'sent' t
                       | IDENT 'sent' '<' a '>'
'/\\' binds tighter than '\\/'; 'ex' extends maximally to the right; says
takes the tightest following unit.  Identifiers are [A-Za-z][A-Za-z0-9_]*;
'ex', 'says' and 'sent' are reserved.  Whitespace is insignificant; '#'
starts a comment.

Every `x, ...` list in these grammars is read by one helper, `Cursor.items`:
item (',' item)*, then the closing bracket if there is one.

Sequent file, one line per item:
    ('agents' | 'nonces' | 'keys') ':' NAME, ...
    'predicates' ':' IDENT '/' INT, ...
    'constructors' ':' IDENT '/' (INT | '*'), ...
    'terms' ':' t, ...      'assertions' ':' a      'goal' ':' a
  Declarations come first.  A section header may carry its first line, and
  the lines after it belong to it until the next header.
Protocol file, one line per item:
    'protocol' IDENT      'phases' IDENT, ...
    declaration lines as above, the ':' optional
    'role' IDENT ['(' IDENT, ... ')'] ':'
    ['@' PHASE] KIND ['*'] IDENT ['fresh' '(' IDENT, ... ')'] ':' [t ','] a
  where KIND is send, recv, confirm, deny or insert; send and recv carry a
  term and an optional assertion, the others an assertion.
Session:    IDENT '(' IDENT '=' t, ... ')'   or   IDENT IDENT '=' t, ...
  a role and the bindings that ground it (`parse_session`); `--sessions`
  lists them separated by ';'.
Trace, one token stream (read by `runtime.parse_trace`, written by
`runtime.write_trace`, one record per line):
    'run' IDENT 'seed' '=' (['-'] INT | '-')
    ('session' INT session)*
    ('step' INT 'session' INT ['fresh' (IDENT '=' IDENT ':' SORT), ...]
                              ['bind' (IDENT '=' t), ...])*
  where SORT is nonce or key, and a seed of '-' is a run without one.

Identifier classification needs declarations: declared names parse to basics
of the declared sort, anything else to a variable.

Input nested more than MAX_NESTING levels deep (brackets, prefixes such as
'says' and 'ex', parenthesized assertions) is refused with a ParseError, so
deep input never reaches Python's recursion limit here or downstream.
"""
from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, TypeVar

from protassert.assertions import (
    And,
    Assertion,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    SentA,
    SentT,
    normalize,
)
from protassert.terms import (
    AGENT,
    App,
    Basic,
    Enc,
    KEY,
    KEY_CONSTRUCTORS,
    NONCE,
    Pair,
    Term,
    Var,
)


class ParseError(Exception):
    def __init__(self, msg: str, pos: str = ""):
        super().__init__(f"{msg}{' at ' + pos if pos else ''}")
        self.msg = msg
        self.pos = pos


T = TypeVar("T")
RESERVED = {"ex", "says", "sent"}
MAX_NESTING = 100


@dataclass
class Declarations:
    agents: set[str] = field(default_factory=set)
    nonces: set[str] = field(default_factory=set)
    keys: set[str] = field(default_factory=set)
    predicates: dict[str, int] = field(default_factory=dict)
    constructors: dict[str, int | None] = field(default_factory=dict)  # None: variadic
    strict: bool = False

    def classify(self, name: str) -> Term:
        if name in self.agents:
            return Basic(name, AGENT)
        if name in self.nonces:
            return Basic(name, NONCE)
        if name in self.keys:
            return Basic(name, KEY)
        return Var(name)

    def basics(self) -> set[str]:
        return self.agents | self.nonces | self.keys


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<skip>\s+|\#[^\n]*)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<punct>/\\|\\/|[(){}<>,:=/*@;-])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Tok(NamedTuple):
    kind: str  # ident | int | punct | end
    val: str
    off: int  # where the token starts in text
    text: str
    where: str

    @property
    def pos(self) -> str:
        """where:line:col, lines broken as str.splitlines breaks them (the
        line-based formats read them so), counted only when an error reads it."""
        lines = (self.text[:self.off] + "x").splitlines()
        return f"{self.where}:{len(lines)}:{len(lines[-1])}"


# tuple.__new__(Tok, fields) skips the Python-level __new__ of a NamedTuple
_new_tok = tuple.__new__
_kind = operator.itemgetter(0)


def tokenize(text: str, where: str = "input", start: int = 0,
             end: int | None = None) -> list[Tok]:
    """The tokens of text[start:end], placed in the whole text."""
    end = len(text) if end is None else end
    toks = [_new_tok(Tok, (kind, m.group(), m.start(), text, where))
            for m in _TOKEN_RE.finditer(text, start, end) if (kind := m.lastgroup) != "skip"]
    if "bad" in map(_kind, toks):
        bad = next(t for t in toks if t.kind == "bad")
        raise ParseError(f"unexpected character {bad.val!r}", bad.pos)
    toks.append(_new_tok(Tok, ("end", "", end, text, where)))
    return toks


def _expected(what: str, t: Tok) -> ParseError:
    return ParseError(f"expected {what}, found {t.val or 'end of input'!r}", t.pos)


class Cursor:
    """A position in a token list, with the pieces every format is made of:
    identifiers, numbers, terms, `name = term` bindings, comma lists and
    the end of input.  The position never passes the end token."""

    def __init__(self, toks: list[Tok], decls: Declarations):
        self.toks = toks
        self.i = 0
        self.decls = decls
        self.depth = 0  # calls of _nested parsers now open

    def peek(self) -> Tok:
        return self.toks[self.i]

    def second(self) -> Tok:
        """The token after the next one, or the end token."""
        return self.toks[min(self.i + 1, len(self.toks) - 1)]

    def next(self) -> Tok:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def at(self, val: str) -> bool:
        t = self.toks[self.i]
        return t.val == val and t.kind in ("punct", "ident")

    def eat(self, val: str) -> bool:
        if self.at(val):
            self.next()
            return True
        return False

    def expect(self, val: str) -> Tok:
        t = self.next()
        if t.val != val:
            raise _expected(repr(val), t)
        return t

    def expect_ident(self) -> Tok:
        t = self.next()
        if t.kind != "ident":
            raise _expected("identifier", t)
        return t

    def done(self) -> bool:
        return self.peek().kind == "end"

    def end(self) -> None:
        if not self.done():
            raise ParseError(f"trailing input {self.peek().val!r}", self.peek().pos)

    def items(self, item: Callable[[], T], close: str | None = None) -> list[T]:
        """item (',' item)*, then the closing bracket when one is given."""
        out = [item()]
        while self.eat(","):
            out.append(item())
        if close is not None:
            self.expect(close)
        return out

    def ident(self) -> str:
        return self.expect_ident().val

    def number(self) -> int:
        t = self.next()
        if t.kind != "int":
            raise _expected("a number", t)
        return int(t.val)

    def term(self) -> Term:
        return _parse_term(self)

    def binding(self) -> tuple[str, Term]:
        name = self.ident()
        self.expect("=")
        return name, _parse_term(self)


def _nested(parse):
    """Count the recursion of a parser that every nesting cycle of the
    grammar passes through, and refuse input past MAX_NESTING levels."""
    @functools.wraps(parse)
    def wrapper(p: Cursor):
        if p.depth >= MAX_NESTING:
            raise ParseError(f"nested more than {MAX_NESTING} levels deep", p.peek().pos)
        p.depth += 1
        try:
            return parse(p)
        finally:
            p.depth -= 1
    return wrapper


# ---------------------------------------------------------------------------
# terms

def _parse_app_args(p: Cursor) -> tuple[Term, ...]:
    p.expect("(")
    return tuple(p.items(p.term, ")"))


def _check_applied(p: Cursor, name: str, arity: int, pos: str, as_pred: bool) -> None:
    d = p.decls
    if as_pred:
        if name in d.predicates:
            want = d.predicates[name]
            if arity != want:
                raise ParseError(f"predicate {name} expects {want} arguments, got {arity}", pos)
        elif d.strict:
            raise ParseError(f"undeclared predicate {name}", pos)
        return
    if name in KEY_CONSTRUCTORS:
        if arity != 1:
            raise ParseError(f"{name} expects 1 argument, got {arity}", pos)
    elif name in d.constructors:
        want = d.constructors[name]
        if want is not None and arity != want:
            raise ParseError(f"constructor {name} expects {want} arguments, got {arity}", pos)
    elif d.strict:
        raise ParseError(f"undeclared constructor {name}", pos)


def _parse_simple_term(p: Cursor) -> Term:
    """IDENT or IDENT(...): the only shapes allowed in a key position."""
    if p.peek().kind == "int":
        t = p.next()
        if t.val not in p.decls.basics():
            raise ParseError(f"undeclared constant {t.val}", t.pos)
        return p.decls.classify(t.val)
    t = p.expect_ident()
    if t.val in RESERVED:
        raise ParseError(f"{t.val!r} is reserved", t.pos)
    if p.at("("):
        args = _parse_app_args(p)
        _check_applied(p, t.val, len(args), t.pos, as_pred=False)
        return App(t.val, args)
    return p.decls.classify(t.val)


@_nested
def _parse_term(p: Cursor) -> Term:
    tok = p.peek()
    if tok.val == "(":
        p.next()
        left = _parse_term(p)
        p.expect(",")
        right = _parse_term(p)
        p.expect(")")
        return Pair(left, right)
    if tok.val == "{":
        p.next()
        body = _parse_term(p)
        p.expect("}")
        key = _parse_simple_term(p)
        try:
            return Enc(body, key)
        except ValueError as e:
            raise ParseError(str(e), tok.pos) from None
    if tok.kind in ("ident", "int"):
        return _parse_simple_term(p)
    raise _expected("a term", tok)


def parse_term(text: str, decls: Declarations | None = None, where: str = "term") -> Term:
    p = Cursor(tokenize(text, where), decls or Declarations())
    t = _parse_term(p)
    p.end()
    return t


# ---------------------------------------------------------------------------
# assertions

def _parse_atom_or_paren(p: Cursor) -> Assertion:
    start = p.i
    tok = p.peek()
    if tok.kind == "ident" and tok.val in p.decls.predicates and p.second().val == "(":
        p.next()
        args = _parse_app_args(p)
        _check_applied(p, tok.val, len(args), tok.pos, as_pred=True)
        return Pred(tok.val, args)
    try:
        t = _parse_term(p)
        if p.at("="):
            p.next()
            rhs = _parse_term(p)
            return Eq(t, rhs)
        if isinstance(t, App) and t.ctor not in KEY_CONSTRUCTORS and (
            t.ctor in p.decls.predicates or t.ctor not in p.decls.constructors
        ):
            _check_applied(p, t.ctor, len(t.args), tok.pos, as_pred=True)
            return Pred(t.ctor, t.args)
        raise ParseError("expected '=' after term", p.peek().pos)
    except ParseError:
        if tok.val == "(":
            p.i = start
            p.next()
            a = _parse_assertion(p)
            p.expect(")")
            return a
        raise


@_nested
def _parse_unit(p: Cursor) -> Assertion:
    tok = p.peek()
    if tok.kind == "ident" and tok.val == "ex":
        p.next()
        names = p.items(p.ident)
        p.expect(":")
        body = _parse_assertion(p)
        for n in reversed(names):
            body = Exists(n, body)
        return body
    if tok.kind == "ident" and p.second().val == "says":
        agent = p.decls.classify(p.next().val)
        p.next()
        return Says(agent, _parse_unit(p))
    if tok.kind == "ident" and p.second().val == "sent":
        agent = p.decls.classify(p.next().val)
        p.next()
        if p.eat("<"):
            body = _parse_assertion(p)
            p.expect(">")
            return SentA(agent, body)
        return SentT(agent, _parse_term(p))
    return _parse_atom_or_paren(p)


def _parse_and(p: Cursor) -> Assertion:
    a = _parse_unit(p)
    while p.at("/\\"):
        p.next()
        a = And(a, _parse_unit(p))
    return a


def _parse_assertion(p: Cursor) -> Assertion:
    a = _parse_and(p)
    while p.at("\\/"):
        p.next()
        a = Or(a, _parse_and(p))
    return a


def parse_assertion(text: str, decls: Declarations | None = None,
                    where: str = "assertion") -> Assertion:
    p = Cursor(tokenize(text, where), decls or Declarations())
    a = _parse_assertion(p)
    p.end()
    return normalize(a)


# ---------------------------------------------------------------------------
# declaration lines and sequent files

_DECL_HEADS = ("agents", "nonces", "keys", "predicates", "constructors")
_SECTIONS = ("terms", "assertions", "goal")


def _parse_decl_items(head: str, p: Cursor) -> None:
    """The rest of a declaration line: names, or symbols with arities."""
    d = p.decls

    def item() -> None:
        t = p.next()
        if t.kind not in ("ident", "int"):
            raise _expected("a name", t)
        if head in ("agents", "nonces", "keys"):
            getattr(d, head).add(t.val)
            return
        if t.kind == "int":
            raise ParseError(f"{head} need named symbols", t.pos)
        p.expect("/")
        if head == "constructors" and p.eat("*"):
            d.constructors[t.val] = None
        else:
            getattr(d, head)[t.val] = p.number()

    if not p.done():
        p.items(item)
    p.end()


@dataclass(frozen=True)
class Sequent:
    terms: frozenset[Term]
    assertions: frozenset[Assertion]
    goal: Assertion
    decls: Declarations


def _line_cursors(text: str, where: str, decls: Declarations) -> Iterator[tuple[int, Cursor]]:
    """(number, cursor) per line; token positions read where:line:col."""
    start = 0
    for lineno, line in enumerate(text.splitlines(True), 1):
        yield lineno, Cursor(tokenize(text, where, start, start + len(line.splitlines()[0])),
                             decls)
        start += len(line)


def parse_sequent(text: str, where: str = "sequent") -> Sequent:
    decls = Declarations()
    terms: list[Term] = []
    assertions: list[Assertion] = []
    goals: list[Assertion] = []
    section = None
    for lineno, p in _line_cursors(text, where, decls):
        loc = f"{where}:{lineno}"
        head = p.peek().val
        if p.second().val == ":" and (
                head in _SECTIONS or (head in _DECL_HEADS and section is None)):
            p.next()
            p.next()
            if head in _DECL_HEADS:
                _parse_decl_items(head, p)
                continue
            section = head
        if p.done():
            continue
        if section is None:
            raise ParseError("unexpected line outside any section", loc)
        if section == "terms":
            terms.extend(p.items(p.term))
        else:
            (assertions if section == "assertions" else goals).append(
                normalize(_parse_assertion(p)))
            if len(goals) > 1:
                raise ParseError("multiple goals", loc)
        p.end()
    if not goals:
        raise ParseError("missing goal: section", where)
    return Sequent(frozenset(terms), frozenset(assertions), goals[0], decls)


# ---------------------------------------------------------------------------
# protocol files

def parse_protocol(text: str, where: str = "protocol"):
    from protassert.protocol import Protocol, Role

    decls = Declarations(strict=True)
    name: str | None = None
    phases: list[str] = []
    roles: list[tuple[str, tuple[str, ...], list]] = []  # name, params, actions
    for _, p in _line_cursors(text, where, decls):
        if p.done():
            continue
        head = p.peek().val
        if head == "protocol":
            p.next()
            name = p.ident()
        elif head == "phases":
            p.next()
            phases.extend(p.items(p.ident))
        elif head in _DECL_HEADS and not roles:
            p.next()
            p.eat(":")
            _parse_decl_items(head, p)
        elif head == "role":
            p.next()
            rname = p.ident()
            params = tuple(p.items(p.ident, ")")) if p.eat("(") else ()
            p.expect(":")
            roles.append((rname, params, []))
        elif not roles:
            raise ParseError("unexpected line outside a role", p.peek().pos)
        else:
            actions = roles[-1][2]
            actions.append(_parse_action(p, phases, actions[-1].phase if actions else 0))
        p.end()
    if name is None:
        raise ParseError("missing protocol header", where)
    return Protocol(name, decls, {r: Role(r, ps, tuple(acts)) for r, ps, acts in roles},
                    tuple(phases))


_ACTION_KINDS = ("send", "recv", "confirm", "deny", "insert")


def _parse_action(p: Cursor, phases: list[str], phase: int):
    """One action line of a role; phase is the previous action's."""
    from protassert.protocol import Action

    if p.eat("@"):
        pname = p.expect_ident()
        if pname.val not in phases:
            raise ParseError(f"unknown phase {pname.val!r}", pname.pos)
        phase = phases.index(pname.val)
    kind_tok = p.expect_ident()
    kind = kind_tok.val
    if kind not in _ACTION_KINDS:
        raise ParseError(f"unknown action kind {kind!r}", kind_tok.pos)
    if kind == "send" and p.eat("*"):
        kind = "send*"
    agent = p.ident()
    fresh: tuple[str, ...] = ()
    if p.eat("fresh"):
        p.expect("(")
        fresh = tuple(p.items(p.ident, ")"))
        if kind not in ("send", "send*"):
            raise ParseError("fresh(...) is only allowed on send actions", kind_tok.pos)
    p.expect(":")
    term = _parse_term(p) if kind in ("send", "send*", "recv") else None
    assertion = None
    if term is None or p.eat(","):
        assertion = normalize(_parse_assertion(p))
    return Action(kind, Var("id") if agent == "id" else p.decls.classify(agent),
                  fresh, term, assertion, phase)


def parse_session(p: Cursor, proto) -> tuple[str, dict[str, Term]]:
    """One session, `role(name=term, ...)` or `role name=term, ...`: a role
    of proto and bindings that ground it (`protocol.suitable`)."""
    from protassert.protocol import suitable

    tok = p.expect_ident()
    role = proto.roles.get(tok.val)
    if role is None:
        raise ParseError(f"unknown role {tok.val!r}", tok.pos)
    sigma = dict(p.items(p.binding, ")") if p.eat("(") else p.items(p.binding))
    unknown = sorted(set(sigma) - {"id", *role.params})
    if unknown:
        raise ParseError(f"role {role.name} has no parameter {unknown[0]}", tok.pos)
    if not suitable(sigma, role, proto):
        raise ParseError(f"session of {role.name} does not ground its role: id needs "
                         f"a declared agent, every parameter a ground term", tok.pos)
    return role.name, sigma


def parse_sessions(text: str, proto) -> list[tuple[str, dict[str, Term]]]:
    """Parse 'role(id=A, v=v0); role2(id=B)' session lists."""
    out: list[tuple[str, dict[str, Term]]] = []
    for chunk in text.split(";"):
        p = Cursor(tokenize(chunk, "sessions"), proto.decls)
        if not p.done():
            out.append(parse_session(p, proto))
            p.end()
    return out
