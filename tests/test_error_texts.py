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
# one binder list of 600 names: each is a level, as in nested 'ex' prefixes
BINDERS = "ex " + ", ".join(f"x{i}" for i in range(600)) + ": "

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
    ("long binder list in a hypothesis", "terms: n", "terms: n\nassertions: " + BINDERS + "n = n",
     "nested more than 100 levels deep at case.seq:3:3506"),
    ("long binder list in the goal", "goal: n = n", "goal: " + BINDERS + "n = n",
     "nested more than 100 levels deep at case.seq:3:3500"),
    ("undeclared constant", "goal: n = n", "goal: n = 7",
     "undeclared constant 7 at case.seq:3:11"),
    ("reserved binder", "goal: n = n", "goal: ex says: p(n)",
     "'says' is reserved at case.seq:3:10"),
    ("reserved says agent", "goal: n = n", "goal: says says p(n)",
     "'says' is reserved at case.seq:3:7"),
    ("reserved sent agent", "goal: n = n", "goal: says sent n",
     "'says' is reserved at case.seq:3:7"),
    ("bound name in a key", "goal: n = n", "goal: ex y: {n}k(y) = n",
     "encryption key must be key material, got App(ctor='k', args=(Var(name='y'),)) "
     "at case.seq:3:13"),
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
    ("long binder list", ACTION, "  deny id : " + BINDERS + "voted(W, x0)",
     "nested more than 100 levels deep at case.proto:15:3506"),
    ("undeclared constant", ACTION, "  deny id : ex z: voted(W, 7)",
     "undeclared constant 7 at case.proto:15:28"),
    ("fresh on a receive", "  recv id : env,", "  recv id fresh(k) : env,",
     "fresh(...) is only allowed on send actions at case.proto:14:3"),
    ("fresh name listed twice", "send id fresh(k) :", "send id fresh(k, k) :",
     "fresh(...) lists k twice at case.proto:9:3"),
    ("setup session that binds a name twice", "voter(id=V, v=v) per voter",
     "voter(id=V, v=v, v=v) per voter", "session binds v twice at case.proto:24:47"),
    ("per-voter index past the declared names", "agents Auth, Cnt, V0, V1, V2, V3",
     "agents Auth, Cnt, V0", "V1 is not declared: names for at most 1 voter at case.proto:24:47"),
    ("per-voter entry that grounds no role", "voter(id=V, v=v) per voter", "voter(id=V, v=v)",
     "session of voter does not ground its role: id needs a declared agent, every parameter "
     "a ground term at case.proto:24:47"),
    ("unknown role of a per-session fact", "setup Auth per voter:", "setup Auth per ballot:",
     "unknown role 'ballot' at case.proto:26:16"),
    ("undeclared agent of a per-session fact", "setup Auth per voter:", "setup Reg per voter:",
     "'Reg' is no setup word and no declared agent at case.proto:26:7"),
    ("name a per-session fact does not bind", "setup Auth per voter: elg(id)",
     "setup Auth per voter: elg(x)", "x is not declared and no session binds it at case.proto:26:23"),
    ("setup line before the roles", "\nrole voter(v):",
     "\nsetup observer: sk(Auth)\nrole voter(v):",
     "setup lines end a protocol text, after its roles at case.proto:8:1"),
    ("role after the setup lines", "setup observer: sk(Auth), sk(Cnt)\n",
     "setup observer: sk(Auth), sk(Cnt)\nrole extra:\n",
     "setup lines end a protocol text, after its roles at case.proto:28:1"),
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
    ("non-key in a key slot", "k=k_3:key", "k=k_3:nonce",
     "step 1: encryption key must be key material, got Basic(name='k_3', sort='nonce') "
     "at trace:8:16"),
    ("session that binds a name twice", "session 3 voter id=V0, v=v0\n",
     "session 3 voter id=V0, v=v0, v=v1\n", "session binds v twice at trace:4:11"),
    ("finished session", "step 20 session 6\n", "step 20 session 6\nstep 21 session 6\n",
     "step 21: session 6 already finished at trace:28:17"),
]

# (what is wrong, parser, whole text, error text): texts named s.seq or case.proto
TEXT_ERRORS = [
    ("key constructor arity", parse_sequent, "terms: sk(a, b)\ngoal: a = a\n",
     "sk expects 1 argument, got 2 at s.seq:1:8"),
    ("two goals", parse_sequent, "nonces: n\ngoal: n = n\ngoal: n = n\n",
     "multiple goals at s.seq:3"),
    ("no protocol header", parse_protocol, FOO_SOURCE.replace("protocol foo\n", ""),
     "missing protocol header at case.proto"),
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


@pytest.mark.parametrize("what,parse,text,expected", TEXT_ERRORS,
                         ids=[c[0] for c in TEXT_ERRORS])
def test_whole_text_error_text(what, parse, text, expected):
    where = "s.seq" if parse is parse_sequent else "case.proto"
    assert _error_text(lambda s: parse(s, where), text) == expected
