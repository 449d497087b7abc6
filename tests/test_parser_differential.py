"""The parser against its former version, input by input.

`former_syntax` is the parser as it was before it read assertions straight
to alpha-normal form.  Seeded mutants (the mutator of `test_fuzz`) of the
builtin protocol sources (without the setup lines that end them, which
the former parser did not read), the golden sequents, seeded leak and flat
sequents, a foo and a helios trace and a session list go through both, as
do the unmutated texts.  Each input must give the identical objects, or a
ParseError with the identical text.  The one exception is a reserved word
as a binder or as the agent of says or sent: the former parser read it as a
name, the current one refuses it (`test_error_texts`).
"""
from __future__ import annotations

import dataclasses
import random

import former_syntax
import pytest

from protassert import ParseError, parse_protocol, parse_sequent, parse_sessions, runtime
from protassert.assertions import Assertion
from protassert.builtins import SOURCES, builtin_foo
from protassert.syntax import RESERVED, Cursor, print_assertion, print_term
from protassert.terms import Declarations, Term, term_key
from test_candidates import _Flat, _leak_sequent
from test_fuzz import _mutate, _traces
from test_golden_output import SEQUENTS

ROUNDS = 240
SESSIONS = "voter(id=V0, v=v0); authority(id=Auth)"
# goals with a reserved word as a binder or an agent
RESERVED_GOALS = ["ex says: n = n", "ex x, sent: x = n", "says says n = n", "says sent n",
                  "sent says n = n", "n = n /\\ ex sent says n = n"]


def _flat_text(rng: random.Random) -> str:
    """A `_Flat` sequent written out as a sequent file."""
    X, hyps, goal = _Flat(rng).sequent()
    terms = ", ".join(print_term(t) for t in sorted(X, key=term_key))
    return "\n".join(["agents: A0, A1", "nonces: n0, n1, n2", "keys: k0, k1", f"terms: {terms}",
                      "assertions:", *map(print_assertion, hyps),
                      f"goal: {print_assertion(goal)}"]) + "\n"


def _sequents() -> list[str]:
    rng = random.Random(1)
    leaks = [_leak_sequent(rng, certs, positive) for certs in (2, 3) for positive in (True, False)]
    return [*SEQUENTS.values(), *leaks, *(_flat_text(rng) for _ in range(4))]


def _roles(text: str) -> str:
    """A builtin source without its setup lines."""
    return text[:text.index("\nsetup ") + 1]


def _former(proto):
    """proto as the former parser reads its builtin source, with the
    scenario that the source's setup lines state."""
    former = former_syntax.parse_protocol(_roles(SOURCES[proto.name]), proto.name)
    return dataclasses.replace(former, scenario=proto.scenario)


class _FormerCursor(former_syntax.Cursor):
    """The former cursor over the former tokenizer, built and read as the
    current `Cursor` is: from the text, with token values and positions by
    index."""

    def __init__(self, text: str, decls, where: str = "input"):
        super().__init__(former_syntax.tokenize(text, where), decls)
        self.vals = [t.val for t in self.toks]

    def pos(self, i: int) -> str:
        return self.toks[i].pos


def _former_trace(text: str, proto):
    """runtime.parse_trace over the former tokenizer, cursor and sessions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "Cursor", _FormerCursor)
        for name in ("ParseError", "parse_session"):
            mp.setattr(runtime, name, getattr(former_syntax, name))
        return runtime.parse_trace(text, proto)


def _outcome(parse, text: str):
    try:
        return True, parse(text)
    except (ParseError, former_syntax.ParseError) as e:
        return False, str(e)


def _same(x, y) -> bool:
    """x and y are the same parse: interned terms and assertions are one
    object, and everything around them is equal field by field."""
    if x is y:
        return True
    if isinstance(x, (Term, Assertion)):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    if dataclasses.is_dataclass(x):  # the former Sequent and Declarations are other classes
        return type(x).__name__ == type(y).__name__ and all(
            _same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    return x == y


def _reserved_refusal(text: str, error: str) -> bool:
    """error refuses a reserved word in a binder list or as the agent of
    says or sent, and text has that word there."""
    word = error.split(" ", 1)[0].strip("'")
    if word not in RESERVED or not error.startswith(f"{word!r} is reserved at "):
        return False
    pos = error.rsplit(" ", 1)[1]
    where, line = pos.rsplit(":", 2)[:2]  # an assertion is read from one line
    lines = text.splitlines(True)[:int(line)]
    start = sum(map(len, lines[:-1]))
    p = Cursor(text, Declarations(), where, start, start + len(lines[-1].splitlines()[0]))
    return any(val == word and p.pos(i) == pos and (
        p.vals[i - 1] in ("ex", ",") or p.vals[i + 1] in ("says", "sent"))
        for i, val in enumerate(p.vals))


def _cases():
    """(format, text, current parser, former parser)."""
    foo = builtin_foo()
    formats = [("protocol", _roles(s), parse_protocol, former_syntax.parse_protocol)
               for s in SOURCES.values()]
    formats += [("sequent", s, parse_sequent, former_syntax.parse_sequent) for s in _sequents()]
    formats += [("trace", trace, lambda t, p=proto: runtime.parse_trace(t, p),
                 lambda t, p=_former(proto): _former_trace(t, p)) for proto, trace in _traces()]
    formats.append(("sessions", SESSIONS, lambda t: parse_sessions(t, foo),
                    lambda t, p=_former(foo): former_syntax.parse_sessions(t, p)))
    rng = random.Random(15)
    yield from formats
    for goal in RESERVED_GOALS:
        yield "sequent", f"nonces: n\ngoal: {goal}\n", parse_sequent, former_syntax.parse_sequent
    for _ in range(ROUNDS):
        for kind, text, new, old in formats:
            yield kind, _mutate(text, rng), new, old


def test_the_parser_agrees_with_its_former_version():
    counts = {"same": 0, "refused": 0, "reserved": 0}
    for kind, text, new, old in _cases():
        ok, got = _outcome(new, text)
        was_ok, want = _outcome(old, text)
        if ok == was_ok and (_same(got, want) if ok else got == want):
            counts["same"] += 1
            counts["refused"] += not ok
        else:
            assert not ok and _reserved_refusal(text, got), (kind, text, got, want)
            counts["reserved"] += 1
    assert counts["same"] + counts["reserved"] > 5000
    assert counts["refused"] > 1000 and counts["same"] - counts["refused"] > 300
    assert counts["reserved"] >= len(RESERVED_GOALS)
