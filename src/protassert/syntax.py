"""Concrete syntax: parsing for terms, assertions, sequent files, the
protocol description language and session lists, printing for terms and
assertions only (protocol and sequent files are written by hand), and the
cursor that the trace reader (`runtime.parse_trace`) shares.

Term grammar:      t ::= IDENT | '(' t ',' t ')' | '{' t '}' k | IDENT '(' t, ... ')'
Assertion grammar: a ::= t '=' t | IDENT '(' t, ... ')' | a '/\\' a | a '\\/' a
                       | 'ex' IDENT, ... ':' a | IDENT 'says' a | IDENT 'sent' t
                       | IDENT 'sent' '<' a '>'
'/\\' binds tighter than '\\/'; 'ex' extends maximally to the right; says
takes the tightest following unit.  Identifiers are [A-Za-z][A-Za-z0-9_]*;
'ex', 'says' and 'sent' are reserved, and refused as the name of a term, a
binder or an agent.  Whitespace is insignificant; '#' starts a comment.

Every format is read through one `Cursor`, which tokenizes its text once
into a tuple of token strings; a token is its index there, and its
where:line:col position is worked out only when an error reports it.
Assertions come out alpha-normal (`assertions.normalize`): each binder is
numbered %1, %2, ... by its nesting depth, so sibling binders share a name.
Every `x, ...` list is read by one helper, `Cursor.items`: item (',' item)*,
then the closing bracket if there is one.

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
  term and an optional assertion, the others an assertion.  Setup lines
  end the text and state its scenario (`runtime.stated_setup`):
    'setup' 'sessions' ':' session ['per' 'voter'], ... separated by ';'
    'setup' 'all' ':' a, ...                facts every party holds
    'setup' AGENT 'per' ROLE ':' a, ...     facts AGENT holds per ROLE session
    'setup' 'observer' ':' t, ...           the observer's terms in a privacy check
  The sessions are the layout; a per-voter entry repeats once per voter i
  (2 voters by default), an undeclared name N in it reading as the declared
  N<i>.  A per-session fact is instantiated by that session's bindings,
  the only variables a fact may hold.
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

Declared names parse to basics of their sort, bound names to their binder's
variable, and anything else to a free variable.

Input nested more than MAX_NESTING levels deep (brackets, prefixes such as
'says', each name an 'ex' binds, parenthesized assertions; each parser
takes the levels open around it as `depth`) is refused with a ParseError,
and so is an assertion with more than MAX_CHAIN binary connectives ('/\\'
and '\\/', each a level of its tree however the chains are bracketed), so
deep input never reaches Python's recursion limit here or downstream.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

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
    free_vars,
    rebind,
)
from .protocol import Action, Protocol, Role, Scenario, suitable
from .terms import (
    App,
    Basic,
    Declarations,
    Enc,
    KEY_CONSTRUCTORS,
    Pair,
    Term,
    Var,
    cache,
    subst_term,
    term_vars,
)


class ParseError(Exception):
    def __init__(self, msg: str, pos: str = ""):
        super().__init__(f"{msg}{' at ' + pos if pos else ''}")
        self.msg = msg
        self.pos = pos


T = TypeVar("T")
RESERVED = {"ex", "says", "sent"}
MAX_NESTING = 100
MAX_CHAIN = 200  # with operands nested MAX_NESTING deep, well inside the recursion limit


# ---------------------------------------------------------------------------
# the cursor

# One match per token, with the whitespace and comments before it: group 1
# is the token, empty at the end of input, and group 2 a character that
# starts no token.
_TOKEN_RE = re.compile(r"(?:\s+|#[^\n]*)*(?:([A-Za-z][A-Za-z0-9_]*|\d+|/\\|\\/"
                       r"|[(){}<>,:=/*@;-]|$)|(\S))")


class Cursor:
    """A position in the tokens of text[start:stop], a token being its index
    in `vals` (the empty end token last), with the pieces every format is
    made of: identifiers, numbers, terms, `name = term` bindings, comma
    lists and the end of input.  The position never passes the end token.

    While an assertion is read, `bound` counts the binders around the
    cursor, `scope` maps each undeclared name bound where the cursor
    stands to the variable %n of its innermost binder, and `chain` counts
    the binary connectives read so far."""

    def __init__(self, text: str, decls: Declarations, where: str = "input",
                 start: int = 0, stop: int | None = None):
        self.text, self.where, self.start = text, where, start
        self.stop = len(text) if stop is None else stop
        self.vals, bad = zip(*_TOKEN_RE.findall(text, start, self.stop))
        self.i = 0
        self.decls = decls
        self.scope: dict[str, Var] = {}
        self.bound = 0
        self.chain = 0
        if any(bad):
            c = next(filter(None, bad))
            raise ParseError(f"unexpected character {c!r}", self.pos(bad.index(c)))

    def pos(self, i: int) -> str:
        """where:line:col of token i, lines broken as str.splitlines breaks them."""
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text, self.start, self.stop), i, None))
        lines = (self.text[:m.start(m.lastindex)] + "x").splitlines()
        return f"{self.where}:{len(lines)}:{len(lines[-1])}"

    def expected(self, what: str, i: int) -> ParseError:
        return ParseError(f"expected {what}, found {self.vals[i] or 'end of input'!r}",
                          self.pos(i))

    def eat(self, val: str) -> bool:
        """Read val, a punctuation mark or a name, if it comes next."""
        if self.vals[self.i] == val:
            self.i += 1
            return True
        return False

    def expect(self, val: str) -> None:
        if self.vals[self.i] != val:
            raise self.expected(repr(val), self.i)
        self.i += 1

    def done(self) -> bool:
        return not self.vals[self.i]

    def end(self) -> None:
        if not self.done():
            raise ParseError(f"trailing input {self.vals[self.i]!r}", self.pos(self.i))

    def items(self, item: Callable[[], T], close: str | None = None, sep: str = ",") -> list[T]:
        """item (sep item)*, then the closing bracket when one is given."""
        out = [item()]
        while self.vals[self.i] == sep:
            self.i += 1
            out.append(item())
        if close is not None:
            self.expect(close)
        return out

    def ident(self) -> str:
        val = self.vals[self.i]
        if not val[:1].isalpha():
            raise self.expected("identifier", self.i)
        self.i += 1
        return val

    def name(self) -> str:
        """An identifier other than a reserved word."""
        i = self.i
        val = self.vals[i]
        if not val[:1].isalpha():
            raise self.expected("identifier", i)
        if val in RESERVED:
            raise ParseError(f"{val!r} is reserved", self.pos(i))
        self.i = i + 1
        return val

    def number(self) -> int:
        val = self.vals[self.i]
        if not val[:1].isdigit():
            raise self.expected("a number", self.i)
        self.i += 1
        return int(val)

    def term(self) -> Term:
        return _parse_term(self, 0)

    def binding(self) -> tuple[str, Term]:
        name = self.ident()
        self.expect("=")
        return name, _parse_term(self, 0)

    def resolve(self, name: str) -> Term:
        """A name in a term or an agent position: the variable of its
        binder, a declared basic, or a free variable."""
        return self.scope.get(name) or self.decls.classify(name)


# ---------------------------------------------------------------------------
# terms

def _check_applied(p: Cursor, name: str, arity: int, at: int, as_pred: bool) -> None:
    """The arity of name applied at token `at`; in strict mode, its declaration."""
    d = p.decls
    what, table = ("predicate", d.predicates) if as_pred else ("constructor", d.constructors)
    error = ""
    if not as_pred and name in KEY_CONSTRUCTORS:
        if arity != 1:
            error = f"{name} expects 1 argument, got {arity}"
    elif name in table:
        if table[name] not in (None, arity):
            error = f"{what} {name} expects {table[name]} arguments, got {arity}"
    elif d.strict:
        error = f"undeclared {what} {name}"
    if error:
        raise ParseError(error, p.pos(at))


def _parse_term(p: Cursor, depth: int) -> Term:
    if depth >= MAX_NESTING:
        raise ParseError(f"nested more than {MAX_NESTING} levels deep", p.pos(p.i))
    i = p.i
    val = p.vals[i]
    if val == "(":
        p.i += 1
        left = _parse_term(p, depth + 1)
        p.expect(",")
        right = _parse_term(p, depth + 1)
        p.expect(")")
        return Pair(left, right)
    if val == "{":
        p.i += 1
        body = _parse_term(p, depth + 1)
        p.expect("}")
        if not p.vals[p.i][:1].isalnum():  # a key is a name or an application
            raise p.expected("identifier", p.i)
        key = _parse_term(p, depth)
        try:
            return Enc(body, key)
        except ValueError:  # name the key as written, not with its binders' %n
            key = subst_term(key, {v.name: Var(x) for x, v in p.scope.items()})
            raise ParseError(f"encryption key must be key material, got {key!r}",
                             p.pos(i)) from None
    if val[:1].isdigit():
        p.i += 1
        basic = p.decls.classify(val)
        if isinstance(basic, Var):
            raise ParseError(f"undeclared constant {val}", p.pos(i))
        return basic
    if not val[:1].isalpha():
        raise p.expected("a term", i)
    name = p.name()
    if p.eat("("):
        args = tuple(p.items(functools.partial(_parse_term, p, depth + 1), ")"))
        _check_applied(p, name, len(args), i, as_pred=False)
        return App(name, args)
    return p.resolve(name)


def parse_term(text: str, decls: Declarations | None = None, where: str = "term") -> Term:
    p = Cursor(text, decls or Declarations(), where)
    t = _parse_term(p, 0)
    p.end()
    return t


# ---------------------------------------------------------------------------
# assertions

def _pair_equation_ahead(vals: tuple[str, ...], i: int) -> bool:
    """Whether the '(' at vals[i] may open `(t, t) = t`: '=' follows its
    closing bracket and none comes before."""
    depth = 0
    for j in range(i, len(vals)):
        if vals[j] == "=":
            return False
        depth += (vals[j] in ("(", "{")) - (vals[j] in (")", "}"))
        if depth == 0:
            return vals[j + 1] == "="
    return False


def _parse_atom_or_paren(p: Cursor, depth: int) -> Assertion:
    i = p.i
    val = p.vals[i]
    if val[:1].isalpha() and val in p.decls.predicates and p.vals[i + 1] == "(":
        p.i += 2
        args = tuple(p.items(functools.partial(_parse_term, p, depth), ")"))
        _check_applied(p, val, len(args), i, as_pred=True)
        return Pred(val, args)
    # '(' opens an equation between pairs if one can be read, else a bracketed
    # assertion: past the scan, only malformed input tries one and falls back.
    if val != "(" or _pair_equation_ahead(p.vals, i):
        try:
            t = _parse_term(p, depth)
            if p.vals[p.i] == "=":
                p.i += 1
                return Eq(t, _parse_term(p, depth))
            if isinstance(t, App) and t.ctor not in KEY_CONSTRUCTORS and (
                    t.ctor in p.decls.predicates or t.ctor not in p.decls.constructors):
                _check_applied(p, t.ctor, len(t.args), i, as_pred=True)
                return Pred(t.ctor, t.args)
            raise ParseError("expected '=' after term", p.pos(p.i))
        except ParseError:
            if val != "(":
                raise
    p.i = i + 1
    a = _parse_assertion(p, depth)
    p.expect(")")
    return a


def _parse_unit(p: Cursor, depth: int) -> Assertion:
    if depth >= MAX_NESTING:
        raise ParseError(f"nested more than {MAX_NESTING} levels deep", p.pos(p.i))
    depth += 1
    val = p.vals[p.i]
    if val == "ex":
        p.i += 1
        names = p.items(p.name)
        depth += len(names) - 1  # one level per binder, as in nested 'ex' prefixes
        p.expect(":")
        first, p.bound = p.bound + 1, p.bound + len(names)
        outer, p.scope = p.scope, {**p.scope, **{  # a declared basic is never bound
            x: Var(f"%{k}") for k, x in enumerate(names, first)
            if x not in p.decls.agents and x not in p.decls.nonces and x not in p.decls.keys}}
        body = _parse_assertion(p, depth)
        p.scope, p.bound = outer, first - 1
        for k in reversed(range(first, first + len(names))):
            body = Exists(f"%{k}", body)
        return body
    op = p.vals[p.i + 1] if val[:1].isalpha() else ""
    if op not in ("says", "sent"):
        return _parse_atom_or_paren(p, depth)
    agent = p.resolve(p.name())
    p.i += 1
    if op == "says":
        return Says(agent, _parse_unit(p, depth))
    if p.eat("<"):
        body = _parse_assertion(p, depth)
        p.expect(">")
        return SentA(agent, body)
    return SentT(agent, _parse_term(p, depth))


def _connective(p: Cursor) -> None:
    """Read a '/\\' or '\\/', one more of the assertion's MAX_CHAIN."""
    p.chain += 1
    if p.chain > MAX_CHAIN:
        raise ParseError(f"more than {MAX_CHAIN} '/\\' and '\\/' in one assertion",
                         p.pos(p.i))
    p.i += 1


def _parse_and(p: Cursor, depth: int) -> Assertion:
    a = _parse_unit(p, depth)
    while p.vals[p.i] == "/\\":
        _connective(p)
        a = And(a, _parse_unit(p, depth))
    return a


def _parse_assertion(p: Cursor, depth: int) -> Assertion:
    """At depth 0 a whole assertion, read with no binder around it (each
    binder gives `bound` back when its body ends) and no connective counted
    yet: it is cached as its own normal form (`assertions.normalize`)."""
    if not depth:
        p.chain = 0
    a = _parse_and(p, depth)
    while p.vals[p.i] == "\\/":
        _connective(p)
        a = Or(a, _parse_and(p, depth))
    return a if depth else cache(a, "_normal", a)


def parse_assertion(text: str, decls: Declarations | None = None,
                    where: str = "assertion") -> Assertion:
    p = Cursor(text, decls or Declarations(), where)
    a = _parse_assertion(p, 0)
    p.end()
    return a


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
    """Give each binder named %n a readable name of its own, in preorder."""
    taken = assertion_vars(a)
    pool = (n for n in itertools.chain(_DISPLAY_POOL, (f"x{i}" for i in range(1, 1000)))
            if n not in taken)

    def pick(old: str, _depth: int) -> str:
        return next(pool) if old.startswith("%") else old

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
    return _print_assertion(_display_names(a), _LVL_OR)


# ---------------------------------------------------------------------------
# declaration lines and sequent files

_DECL_HEADS = ("agents", "nonces", "keys", "predicates", "constructors")
_SECTIONS = ("terms", "assertions", "goal")


def _parse_decl_items(head: str, p: Cursor) -> None:
    """The rest of a declaration line: names, or symbols with arities."""
    d = p.decls

    def item() -> None:
        at = p.i
        val = p.vals[at]
        if not val[:1].isalnum():
            raise p.expected("a name", at)
        p.i += 1
        if head in ("agents", "nonces", "keys"):
            getattr(d, head).add(val)
            return
        if not val[:1].isalpha():
            raise ParseError(f"{head} need named symbols", p.pos(at))
        p.expect("/")
        if head == "constructors" and p.eat("*"):
            d.constructors[val] = None
        else:
            getattr(d, head)[val] = p.number()

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
        yield lineno, Cursor(text, decls, where, start, start + len(line.splitlines()[0]))
        start += len(line)


def parse_sequent(text: str, where: str = "sequent") -> Sequent:
    decls = Declarations()
    read: dict[str, list] = {section: [] for section in _SECTIONS}
    section = None
    for lineno, p in _line_cursors(text, where, decls):
        head = p.vals[0]
        if head and p.vals[1] == ":" and (
                head in _SECTIONS or (head in _DECL_HEADS and section is None)):
            p.i = 2
            if head in _DECL_HEADS:
                _parse_decl_items(head, p)
                continue
            section = head
        if p.done():
            continue
        if section is None:
            raise ParseError("unexpected line outside any section", f"{where}:{lineno}")
        read[section] += p.items(p.term) if section == "terms" else [_parse_assertion(p, 0)]
        if len(read["goal"]) > 1:
            raise ParseError("multiple goals", f"{where}:{lineno}")
        p.end()
    if not read["goal"]:
        raise ParseError("missing goal: section", where)
    return Sequent(frozenset(read["terms"]), frozenset(read["assertions"]), read["goal"][0], decls)


# ---------------------------------------------------------------------------
# protocol files

def parse_protocol(text: str, where: str = "protocol"):
    decls = Declarations(strict=True)
    name: str | None = None
    phases: list[str] = []
    roles: list[tuple[str, tuple[str, ...], list]] = []  # name, params, actions
    setup: list[Cursor] = []  # read once every role is
    for _, p in _line_cursors(text, where, decls):
        head = p.vals[0]
        if not head:
            continue
        if head in ("protocol", "phases", "role", "setup") or (head in _DECL_HEADS and not roles):
            p.i = 1
        if (head == "setup" and not roles) or (setup and head != "setup"):
            raise ParseError("setup lines end a protocol text, after its roles", p.pos(0))
        if head == "setup":
            setup.append(p)
            continue
        if head == "protocol":
            name = p.ident()
        elif head == "phases":
            phases.extend(p.items(p.ident))
        elif head in _DECL_HEADS and not roles:
            p.eat(":")
            _parse_decl_items(head, p)
        elif head == "role":
            rname = p.ident()
            params = tuple(p.items(p.ident, ")")) if p.eat("(") else ()
            p.expect(":")
            roles.append((rname, params, []))
        elif not roles:
            raise ParseError("unexpected line outside a role", p.pos(0))
        else:
            actions = roles[-1][2]
            actions.append(_parse_action(p, phases, actions[-1].phase if actions else 0))
        p.end()
    if name is None:
        raise ParseError("missing protocol header", where)
    proto = Protocol(name, decls, {r: Role(r, ps, tuple(acts)) for r, ps, acts in roles},
                     tuple(phases))
    for p in setup:
        _parse_setup(p, proto)
    return proto


def _parse_setup(p: Cursor, proto) -> None:
    """The rest of a setup line, into proto's scenario.  A fact's variables
    are bindings of its session, and the observer's terms have none."""
    sc = proto.scenario
    at = p.i
    head = p.ident()
    role = None
    if head in proto.decls.agents:
        p.expect("per")
        at = p.i
        if (role := p.ident()) not in proto.roles:
            raise ParseError(f"unknown role {role!r}", p.pos(at))
    elif head not in ("sessions", "all", "observer"):
        raise ParseError(f"{head!r} is no setup word and no declared agent", p.pos(at))
    p.expect(":")
    if head == "sessions":
        p.items(lambda: parse_session(p, proto, sc.layout), sep=";")
    else:
        at = p.i
        items = p.items(p.term if head == "observer" else lambda: _parse_assertion(p, 0))
        bound = {"id", *proto.roles[role].params} if role else set()
        loose = set().union(*map(term_vars if head == "observer" else free_vars, items)) - bound
        if loose:
            raise ParseError(f"{min(loose)} is not declared and no session binds it", p.pos(at))
        if head == "observer":
            sc.observer += items
        elif head == "all":
            sc.facts += items
        else:
            sc.held += [(head, role, fact) for fact in items]
    p.end()


_ACTION_KINDS = ("send", "recv", "confirm", "deny", "insert")


def _parse_action(p: Cursor, phases: list[str], phase: int):
    """One action line of a role; phase is the previous action's."""
    if p.eat("@"):
        at = p.i
        pname = p.ident()
        if pname not in phases:
            raise ParseError(f"unknown phase {pname!r}", p.pos(at))
        phase = phases.index(pname)
    at = p.i
    kind = p.ident()
    if kind not in _ACTION_KINDS:
        raise ParseError(f"unknown action kind {kind!r}", p.pos(at))
    if kind == "send" and p.eat("*"):
        kind = "send*"
    agent = p.ident()
    fresh: tuple[str, ...] = ()
    if p.eat("fresh"):
        p.expect("(")
        fresh = tuple(p.items(p.ident, ")"))
        if kind not in ("send", "send*"):
            raise ParseError("fresh(...) is only allowed on send actions", p.pos(at))
        twice = sorted({v for v in fresh if fresh.count(v) > 1})
        if twice:
            raise ParseError(f"fresh(...) lists {twice[0]} twice", p.pos(at))
    p.expect(":")
    term = _parse_term(p, 0) if kind in ("send", "send*", "recv") else None
    assertion = None
    if term is None or p.eat(","):
        assertion = _parse_assertion(p, 0)
    return Action(kind, Var("id") if agent == "id" else p.decls.classify(agent),
                  fresh, term, assertion, phase)


def parse_session(p: Cursor, proto, layout: list | None = None) -> tuple[str, dict[str, Term]]:
    """One session, `role(name=term, ...)` or `role name=term, ...`: a role
    of proto and bindings that ground it (`protocol.suitable`).  An entry of
    a setup layout, appended to it, may end in 'per voter': it must then
    ground its role for voters 0 and 1 (`protocol.Scenario.sessions`)."""
    at = p.i
    name = p.ident()
    role = proto.roles.get(name)
    if role is None:
        raise ParseError(f"unknown role {name!r}", p.pos(at))
    binds = p.items(p.binding, ")") if p.eat("(") else p.items(p.binding)
    sigma = dict(binds)
    names = [k for k, _ in binds]
    twice = sorted({k for k in names if names.count(k) > 1})
    if twice:
        raise ParseError(f"session binds {twice[0]} twice", p.pos(at))
    unknown = sorted(set(sigma) - {"id", *role.params})
    if unknown:
        raise ParseError(f"role {role.name} has no parameter {unknown[0]}", p.pos(at))
    each = layout is not None and p.eat("per")
    if each:
        p.expect("voter")
    try:
        grounds = (Scenario([(name, sigma, True)]).sessions(proto.decls, 2) if each
                   else [(name, sigma)])
    except ValueError as e:
        raise ParseError(e.args[0], p.pos(at)) from None
    if not all(suitable(s, role, proto) for _, s in grounds):
        raise ParseError(f"session of {role.name} does not ground its role: id needs "
                         f"a declared agent, every parameter a ground term", p.pos(at))
    if layout is not None:
        layout.append((role.name, sigma, each))
    return role.name, sigma


def parse_sessions(text: str, proto) -> list[tuple[str, dict[str, Term]]]:
    """Parse 'role(id=A, v=v0); role2(id=B)' session lists."""
    out: list[tuple[str, dict[str, Term]]] = []
    for chunk in text.split(";"):
        p = Cursor(chunk, proto.decls, "sessions")
        if not p.done():
            out.append(parse_session(p, proto))
            p.end()
    return out
