"""The exact text of each parse error, position included, for malformed
sequents, protocol lines and traces.  Every position reads `file:line:col`:
a sequent or protocol line is tokenized as its span of the whole text, a
trace as one token stream."""
from __future__ import annotations

import pytest

from protassert import ParseError, parse_protocol, parse_sequent, parse_trace, simulate, write_trace
from protassert.builtins import FOO_SOURCE, builtin_foo, default_foo_setup
from protassert.syntax import MAX_NESTING

DEEP = MAX_NESTING + 1
SEQUENT = "nonces: n\nterms: n\ngoal: n = n\n"
ACTION = "  deny id : ex z: voted(W, z)"

# (what is wrong, text replaced, its malformed replacement, error text)
SEQUENT_ERRORS = [
    ("bad character", "goal: n = n", "goal: n = n $",
     "unexpected character '$' at case.seq:3:13"),
    ("trailing input", "goal: n = n", "goal: n = n n",
     "trailing input 'n' at case.seq:3:13"),
    ("end of input", "goal: n = n", "goal: n =",
     "expected a term, found 'end of input' at case.seq:3:10"),
    ("nesting", "terms: n", "terms: " + "(" * DEEP + "n" + ", n)" * DEEP,
     "nested more than 100 levels deep at case.seq:2:108"),
    ("undeclared constant", "goal: n = n", "goal: n = 7",
     "undeclared constant 7 at case.seq:3:11"),
]

PROTOCOL_ERRORS = [
    ("bad character", ACTION, ACTION + " $",
     "unexpected character '$' at case.proto:15:31"),
    ("trailing input", ACTION, ACTION + " z",
     "trailing input 'z' at case.proto:15:31"),
    ("end of input", ACTION, "  deny id : ex z: voted(W,",
     "expected a term, found 'end of input' at case.proto:15:27"),
    ("nesting", ACTION, "  deny id : " + "ex z: " * DEEP + "voted(W, z)",
     "nested more than 100 levels deep at case.proto:15:613"),
    ("undeclared constant", ACTION, "  deny id : ex z: voted(W, 7)",
     "undeclared constant 7 at case.proto:15:28"),
]

# edits of the foo seed-0 trace, 27 lines long
TRACE_ERRORS = [
    ("bad character", "step 4 session 1\n", "step 4 session 1 $\n",
     "unexpected character '$' at trace:11:18"),
    ("trailing input", "step 20 session 6\n", "step 20 session 6 7\n",
     "trailing input '7' at trace:27:19"),
    ("end of input", "step 20 session 6\n", "step 20 session\n",
     "expected a number, found 'end of input' at trace:28:1"),
    ("nesting", "env={v0}k_3", "env=" + "(" * DEEP + "v0" + ", v0)" * DEEP,
     "nested more than 100 levels deep at trace:10:133"),
    ("undeclared constant", "env={v0}k_3", "env={7}k_3",
     "undeclared constant 7 at trace:10:34"),
]


def _error_text(parse, text: str) -> str:
    with pytest.raises(ParseError) as e:
        parse(text)
    return str(e.value)


@pytest.mark.parametrize("what,good,bad,expected", SEQUENT_ERRORS,
                         ids=[c[0] for c in SEQUENT_ERRORS])
def test_sequent_error_text(what, good, bad, expected):
    assert SEQUENT.count(good) == 1
    text = SEQUENT.replace(good, bad)
    assert _error_text(lambda s: parse_sequent(s, "case.seq"), text) == expected


@pytest.mark.parametrize("what,good,bad,expected", PROTOCOL_ERRORS,
                         ids=[c[0] for c in PROTOCOL_ERRORS])
def test_protocol_error_text(what, good, bad, expected):
    assert FOO_SOURCE.count(good) == 1
    text = FOO_SOURCE.replace(good, bad)
    assert _error_text(lambda s: parse_protocol(s, "case.proto"), text) == expected


@pytest.mark.parametrize("what,good,bad,expected", TRACE_ERRORS,
                         ids=[c[0] for c in TRACE_ERRORS])
def test_trace_error_text(what, good, bad, expected):
    proto = builtin_foo()
    trace = write_trace(simulate(proto, default_foo_setup(proto), seed=0)[0])
    assert trace.count(good) == 1
    text = trace.replace(good, bad)
    assert _error_text(lambda s: parse_trace(s, proto), text) == expected
