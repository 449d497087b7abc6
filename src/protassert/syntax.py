"""Concrete syntax: parsing and printing for terms, assertions, sequent
files, and the protocol description language.

Term grammar:      t ::= IDENT | '(' t ',' t ')' | '{' t '}' k | IDENT '(' t, ... ')'
Assertion grammar: a ::= t '=' t | IDENT '(' t, ... ')' | a '/\\' a | a '\\/' a
                       | 'ex' IDENT+ ':' a | IDENT 'says' a | IDENT 'sent' t
                       | IDENT 'sent' '<' a '>'
'/\\' binds tighter than '\\/'; 'ex' extends maximally to the right; says
takes the tightest following unit.  Identifiers are [A-Za-z][A-Za-z0-9_]*;
'ex', 'says' and 'sent' are reserved.  Whitespace is insignificant; '#'
starts a comment.

Identifier classification needs declarations: declared names parse to basics
of the declared sort, anything else to a variable.

Input nested more than MAX_NESTING levels deep (brackets, prefixes such as
'says' and 'ex', parenthesized assertions) is refused with a ParseError, so
deep input never reaches Python's recursion limit here or downstream.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

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
    assertion_vars,
    normalize,
    rebind,
)
from .terms import (
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
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<punct>/\\|\\/|[(){}<>,:=/*@;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    kind: str  # ident | int | punct | end
    val: str
    pos: str


def tokenize(text: str, where: str = "input") -> list[Tok]:
    toks: list[Tok] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", f"{where}:{line}:{col}")
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            toks.append(Tok(kind, lexeme, f"{where}:{line}:{col}"))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        i = m.end()
    toks.append(Tok("end", "", f"{where}:{line}:{col}"))
    return toks


class _Cursor:
    def __init__(self, toks: list[Tok], decls: Declarations):
        self.toks = toks
        self.i = 0
        self.decls = decls
        self.depth = 0  # calls of _nested parsers now open

    def peek(self, ahead: int = 0) -> Tok:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Tok:
        t = self.peek()
        if t.kind != "end":
            self.i += 1
        return t

    def at(self, val: str) -> bool:
        return self.peek().val == val and self.peek().kind in ("punct", "ident")

    def eat(self, val: str) -> bool:
        if self.at(val):
            self.next()
            return True
        return False

    def expect(self, val: str) -> Tok:
        t = self.next()
        if t.val != val:
            raise ParseError(f"expected {val!r}, found {t.val or 'end of input'!r}", t.pos)
        return t

    def expect_ident(self) -> Tok:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected identifier, found {t.val or 'end of input'!r}", t.pos)
        return t

    def done(self) -> bool:
        return self.peek().kind == "end"


def _nested(parse):
    """Count the recursion of a parser that every nesting cycle of the
    grammar passes through, and refuse input past MAX_NESTING levels."""
    @functools.wraps(parse)
    def wrapper(p: _Cursor):
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

def _parse_app_args(p: _Cursor) -> tuple[Term, ...]:
    p.expect("(")
    args = [_parse_term(p)]
    while p.eat(","):
        args.append(_parse_term(p))
    p.expect(")")
    return tuple(args)


def _check_applied(p: _Cursor, name: str, arity: int, pos: str, as_pred: bool) -> None:
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


def _parse_simple_term(p: _Cursor) -> Term:
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
def _parse_term(p: _Cursor) -> Term:
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
    raise ParseError(f"expected a term, found {tok.val or 'end of input'!r}", tok.pos)


def parse_term(text: str, decls: Declarations | None = None, where: str = "term") -> Term:
    p = _Cursor(tokenize(text, where), decls or Declarations())
    t = _parse_term(p)
    if not p.done():
        raise ParseError(f"trailing input {p.peek().val!r}", p.peek().pos)
    return t


# ---------------------------------------------------------------------------
# assertions

def _parse_atom_or_paren(p: _Cursor) -> Assertion:
    start = p.i
    tok = p.peek()
    if tok.kind == "ident" and tok.val in p.decls.predicates and p.peek(1).val == "(":
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
def _parse_unit(p: _Cursor) -> Assertion:
    tok = p.peek()
    if tok.kind == "ident" and tok.val == "ex":
        p.next()
        names = [p.expect_ident().val]
        while p.eat(","):
            names.append(p.expect_ident().val)
        p.expect(":")
        body = _parse_assertion(p)
        for n in reversed(names):
            body = Exists(n, body)
        return body
    if tok.kind == "ident" and p.peek(1).val == "says":
        agent = p.decls.classify(p.next().val)
        p.next()
        return Says(agent, _parse_unit(p))
    if tok.kind == "ident" and p.peek(1).val == "sent":
        agent = p.decls.classify(p.next().val)
        p.next()
        if p.eat("<"):
            body = _parse_assertion(p)
            p.expect(">")
            return SentA(agent, body)
        return SentT(agent, _parse_term(p))
    return _parse_atom_or_paren(p)


def _parse_and(p: _Cursor) -> Assertion:
    a = _parse_unit(p)
    while p.at("/\\"):
        p.next()
        a = And(a, _parse_unit(p))
    return a


def _parse_assertion(p: _Cursor) -> Assertion:
    a = _parse_and(p)
    while p.at("\\/"):
        p.next()
        a = Or(a, _parse_and(p))
    return a


def parse_assertion(text: str, decls: Declarations | None = None,
                    where: str = "assertion") -> Assertion:
    p = _Cursor(tokenize(text, where), decls or Declarations())
    a = _parse_assertion(p)
    if not p.done():
        raise ParseError(f"trailing input {p.peek().val!r}", p.peek().pos)
    return normalize(a)


# ---------------------------------------------------------------------------
# printing

def print_term(t: Term) -> str:
    if isinstance(t, (Basic, Var)):
        return t.name
    if isinstance(t, Pair):
        return f"({print_term(t.left)}, {print_term(t.right)})"
    if isinstance(t, Enc):
        return "{" + print_term(t.body) + "}" + print_term(t.key)
    if isinstance(t, App):
        return f"{t.ctor}(" + ", ".join(print_term(a) for a in t.args) + ")"
    raise TypeError(f"not a term: {t!r}")


_DISPLAY_POOL = ["x", "y", "z", "u", "w", "r", "s", "t", "m", "n"]


def _display_names(a: Assertion) -> Assertion:
    """Rename reserved bound names (%n) to readable identifiers."""
    taken = assertion_vars(a)
    pool = (n for n in itertools.chain(_DISPLAY_POOL, (f"x{i}" for i in range(1, 1000)))
            if n not in taken)
    shown: dict[str, str] = {}

    def pick(old: str) -> str:
        if old.startswith("%") and old not in shown:
            shown[old] = next(pool)
        return shown.get(old, old)

    return rebind(a, {}, pick)


_LVL_OR, _LVL_AND, _LVL_UNIT = 0, 1, 2


def _print_assertion(a: Assertion, level: int) -> str:
    if isinstance(a, Or):
        s = f"{_print_assertion(a.left, _LVL_AND)} \\/ {_print_assertion(a.right, _LVL_UNIT if isinstance(a.right, Or) else _LVL_AND)}"
        # right operand printed one level up when it is itself an Or, to keep
        # reparse grouping identical (the grammar is left-associative)
        return f"({s})" if level > _LVL_OR else s
    if isinstance(a, And):
        right_lvl = _LVL_UNIT if isinstance(a.right, And) else _LVL_AND
        s = f"{_print_assertion(a.left, _LVL_AND)} /\\ {_print_assertion(a.right, right_lvl)}"
        return f"({s})" if level > _LVL_AND else s
    if isinstance(a, Exists):
        names = [a.var]
        body = a.body
        while isinstance(body, Exists):
            names.append(body.var)
            body = body.body
        s = f"ex {', '.join(names)}: {_print_assertion(body, _LVL_OR)}"
        return f"({s})" if level > _LVL_OR else s
    if isinstance(a, Says):
        body = _print_assertion(a.body, _LVL_UNIT)
        return f"{print_term(a.agent)} says {body}"
    if isinstance(a, SentT):
        return f"{print_term(a.agent)} sent {print_term(a.term)}"
    if isinstance(a, SentA):
        return f"{print_term(a.agent)} sent <{_print_assertion(a.body, _LVL_OR)}>"
    if isinstance(a, Eq):
        return f"{print_term(a.lhs)} = {print_term(a.rhs)}"
    if isinstance(a, Pred):
        return f"{a.name}(" + ", ".join(print_term(t) for t in a.args) + ")"
    raise TypeError(f"not an assertion: {a!r}")


def print_assertion(a: Assertion) -> str:
    shown = _display_names(a)
    out = _print_assertion(shown, _LVL_OR)
    # an Or/Exists/And at the very top is fine unparenthesized; units too
    return out


# ---------------------------------------------------------------------------
# declaration lines and sequent files

_DECL_HEADS = ("agents", "nonces", "keys", "predicates", "constructors")


def _parse_decl_items(head: str, rest: str, decls: Declarations, where: str) -> None:
    p = _Cursor(tokenize(rest, where), decls)
    first = True
    while not p.done():
        if not first:
            p.expect(",")
        first = False
        t = p.next()
        if t.kind not in ("ident", "int"):
            raise ParseError(f"expected a name, found {t.val or 'end of input'!r}", t.pos)
        if t.kind == "int" and head in ("predicates", "constructors"):
            raise ParseError(f"{head} need named symbols", t.pos)
        name = t.val
        if head in ("predicates", "constructors"):
            p.expect("/")
            if head == "constructors" and p.eat("*"):
                decls.constructors[name] = None
                continue
            n = p.next()
            if n.kind != "int":
                raise ParseError("expected an arity", n.pos)
            if head == "predicates":
                decls.predicates[name] = int(n.val)
            else:
                decls.constructors[name] = int(n.val)
        else:
            getattr(decls, head).add(name)


@dataclass(frozen=True)
class Sequent:
    terms: frozenset[Term]
    assertions: frozenset[Assertion]
    goal: Assertion
    decls: Declarations


def _split_commas(text: str) -> list[str]:
    """Split on commas that sit outside every bracket pair."""
    out: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "({<":
            depth += 1
        elif ch in ")}>":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def parse_sequent(text: str, where: str = "sequent") -> Sequent:
    decls = Declarations()
    terms: list[Term] = []
    assertions: list[Assertion] = []
    goal: Assertion | None = None
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loc = f"{where}:{lineno}"
        head, colon, rest = line.partition(":")
        head = head.strip()
        if colon == ":" and head in _DECL_HEADS and section is None:
            _parse_decl_items(head, rest, decls, loc)
            continue
        if colon == ":" and head in ("terms", "assertions", "goal"):
            section = head
            rest = rest.strip()
            if not rest:
                continue
            if section == "terms":
                for item in _split_commas(rest):
                    terms.append(parse_term(item, decls, loc))
                continue
            line = rest  # a single assertion may follow the header inline
        if section == "terms":
            terms.append(parse_term(line, decls, loc))
        elif section == "assertions":
            assertions.append(parse_assertion(line, decls, loc))
        elif section == "goal":
            if goal is not None:
                raise ParseError("multiple goals", loc)
            goal = parse_assertion(line, decls, loc)
        else:
            raise ParseError(f"unexpected line outside any section: {line!r}", loc)
    if goal is None:
        raise ParseError("missing goal: section", where)
    return Sequent(frozenset(terms), frozenset(assertions), goal, decls)


# ---------------------------------------------------------------------------
# protocol files

def parse_protocol(text: str, where: str = "protocol"):
    from .protocol import Action, Protocol, Role

    decls = Declarations(strict=True)
    name: str | None = None
    phases: list[str] = []
    roles: dict[str, Role] = {}

    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))

    i = 0
    role_name: str | None = None
    role_params: tuple[str, ...] = ()
    role_actions: list[Action] = []
    cur_phase = 0

    def close_role() -> None:
        nonlocal role_name, role_actions
        if role_name is not None:
            roles[role_name] = Role(role_name, role_params, tuple(role_actions))
            role_name = None
            role_actions = []

    while i < len(lines):
        lineno, line = lines[i]
        loc = f"{where}:{lineno}"
        i += 1
        p = _Cursor(tokenize(line, loc), decls)
        head = p.peek()
        if head.val == "protocol":
            p.next()
            name = p.expect_ident().val
            continue
        if head.val == "phases":
            p.next()
            phases.append(p.expect_ident().val)
            while p.eat(","):
                phases.append(p.expect_ident().val)
            continue
        if head.val in _DECL_HEADS and role_name is None:
            p.next()
            rest = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
            _parse_decl_items(head.val, rest, decls, loc)
            continue
        if head.val == "role":
            close_role()
            p.next()
            role_name = p.expect_ident().val
            role_params = ()
            if p.eat("("):
                params = [p.expect_ident().val]
                while p.eat(","):
                    params.append(p.expect_ident().val)
                p.expect(")")
                role_params = tuple(params)
            p.expect(":")
            cur_phase = 0
            continue
        if role_name is None:
            raise ParseError(f"unexpected line outside a role: {line!r}", loc)
        action, cur_phase = _parse_action_line(p, decls, phases, cur_phase, loc)
        role_actions.append(action)

    close_role()
    if name is None:
        raise ParseError("missing protocol header", where)
    return Protocol(name, decls, roles, tuple(phases))


_ACTION_KINDS = ("send", "recv", "confirm", "deny", "insert")


def _parse_action_line(p: _Cursor, decls: Declarations, phases: list[str],
                       cur_phase: int, loc: str):
    from .protocol import Action

    phase = cur_phase
    if p.eat("@"):
        pname = p.expect_ident()
        if pname.val not in phases:
            raise ParseError(f"unknown phase {pname.val!r}", pname.pos)
        phase = phases.index(pname.val)
    kind_tok = p.expect_ident()
    kind = kind_tok.val
    if kind not in _ACTION_KINDS:
        raise ParseError(f"unknown action kind {kind!r}", kind_tok.pos)
    anonymous = False
    if kind == "send" and p.eat("*"):
        anonymous = True
    agent_tok = p.expect_ident()
    agent: Term = Var("id") if agent_tok.val == "id" else decls.classify(agent_tok.val)
    fresh: tuple[str, ...] = ()
    if p.at("fresh"):
        p.next()
        p.expect("(")
        names = [p.expect_ident().val]
        while p.eat(","):
            names.append(p.expect_ident().val)
        p.expect(")")
        fresh = tuple(names)
    p.expect(":")

    term = None
    assertion = None
    if kind in ("send", "recv"):
        term = _parse_term(p)
        if p.eat(","):
            assertion = normalize(_parse_assertion(p))
    else:
        assertion = normalize(_parse_assertion(p))
    if not p.done():
        raise ParseError(f"trailing input {p.peek().val!r}", p.peek().pos)
    if fresh and kind != "send":
        raise ParseError("fresh(...) is only allowed on send actions", loc)
    return Action(kind if kind != "send" else ("send*" if anonymous else "send"),
                  agent, fresh, term, assertion, phase), phase


def print_action(action, phases: tuple[str, ...] = (), prev_phase: int | None = None) -> str:
    parts = []
    if phases and prev_phase is not None and action.phase != prev_phase:
        parts.append(f"@{phases[action.phase]}")
    kind = action.kind
    parts.append(kind)
    parts.append(print_term(action.agent))
    if action.fresh:
        parts.append("fresh(" + ", ".join(action.fresh) + ")")
    payload = []
    if action.term is not None:
        payload.append(print_term(action.term))
    if action.assertion is not None:
        payload.append(print_assertion(action.assertion))
    return " ".join(parts) + " : " + ", ".join(payload)


def print_protocol(proto) -> str:
    d = proto.decls
    out = [f"protocol {proto.name}"]
    if proto.phases:
        out.append("phases " + ", ".join(proto.phases))
    for head in ("agents", "nonces", "keys"):
        vals = sorted(getattr(d, head))
        if vals:
            out.append(f"{head} " + ", ".join(vals))
    if d.predicates:
        out.append("predicates " + ", ".join(f"{k}/{v}" for k, v in sorted(d.predicates.items())))
    if d.constructors:
        out.append("constructors " + ", ".join(
            f"{k}/{'*' if v is None else v}" for k, v in sorted(d.constructors.items())))
    for rname in sorted(proto.roles):
        role = proto.roles[rname]
        params = f"({', '.join(role.params)})" if role.params else ""
        out.append(f"role {rname}{params}:")
        prev = 0
        for a in role.actions:
            out.append("  " + print_action(a, proto.phases, prev))
            prev = a.phase
    return "\n".join(out) + "\n"


def parse_sessions(text: str, proto) -> list[tuple[str, dict[str, Term]]]:
    """Parse 'role(id=A, v=v0); role2(id=B)' session lists."""
    out: list[tuple[str, dict[str, Term]]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        p = _Cursor(tokenize(chunk, "sessions"), proto.decls)
        rname = p.expect_ident().val
        if rname not in proto.roles:
            raise ParseError(f"unknown role {rname!r}", p.peek().pos)
        bindings: dict[str, Term] = {}
        if p.eat("("):
            while not p.at(")"):
                if bindings:
                    p.expect(",")
                var = p.expect_ident().val
                p.expect("=")
                bindings[var] = _parse_term(p)
            p.expect(")")
        if not p.done():
            raise ParseError(f"trailing input {p.peek().val!r}", p.peek().pos)
        out.append((rname, bindings))
    return out
