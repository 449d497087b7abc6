from __future__ import annotations

import random

import pytest

from protassert import (
    And,
    App,
    Basic,
    Enc,
    Eq,
    Exists,
    Or,
    Pair,
    ParseError,
    Pred,
    Says,
    SentA,
    Var,
    normalize,
    parse_assertion,
    parse_protocol,
    parse_sequent,
    parse_sessions,
    parse_term,
    print_assertion,
    print_protocol,
    print_term,
)
from protassert.assertions import numbered, rebind
from protassert.builtins import FOO_SOURCE, HELIOS_SOURCE, SOURCES
from protassert.syntax import MAX_CHAIN, MAX_NESTING, Declarations
from test_golden_output import SEQUENTS


def decls() -> Declarations:
    d = Declarations()
    d.agents |= {"A", "B"}
    d.nonces |= {"n", "m"}
    d.keys |= {"k"}
    d.predicates["p"] = 1
    d.constructors["h"] = 1
    return d


def test_term_round_trips():
    d = decls()
    for text in ("n", "(n, m)", "{n}k", "{(n, m)}sk(A)", "h(n)", "x",
                 "{x}y", "((n, m), k)"):
        t = parse_term(text, d)
        assert parse_term(print_term(t), d) == t


def test_term_classification():
    d = decls()
    assert parse_term("n", d) == Basic("n", "nonce")
    assert parse_term("q", d) == Var("q")
    assert parse_term("{n}k", d) == Enc(Basic("n", "nonce"), Basic("k", "key"))


def test_bad_terms_rejected():
    d = decls()
    for text in ("{n}", "(n,", "{n}(m, k)", "h(", ""):
        with pytest.raises(ParseError):
            parse_term(text, d)


def test_assertion_round_trips():
    d = decls()
    texts = [
        "n = m",
        "p(n)",
        "n = m /\\ p(k)",
        "n = m \\/ (p(n) /\\ p(m))",
        "ex x: {x}k = {n}k",
        "ex x, y: ({x}y = {n}k /\\ p(x))",
        "A says p(n)",
        "A says (ex u: n = u)",
        "A sent n",
        "A sent <p(n)>",
    ]
    for text in texts:
        a = parse_assertion(text, d)
        assert parse_assertion(print_assertion(a), d) == a


def test_assertions_come_back_normalized():
    d = decls()
    a = parse_assertion("ex q: q = n", d)
    assert a.var == "%1"
    assert a == parse_assertion("ex w: w = n", d)


# binders the parser numbers as it reads them: shadowing, a binder named
# like a declared constant, bound says and sent agents, sent <...> bodies
BINDERS = [
    "ex x, x: p(x)",
    "ex n: n = n",
    "ex y: y says p(n)",
    "ex y: y sent n",
    "ex y: y sent <ex x: x = y>",
    "A sent <ex x: p(x) /\\ (ex x: x = n)> \\/ ex x: A says x = m",
    "ex x: (ex y: x = y) /\\ (ex x, y: {x}y = {n}k)",
    "(ex x: p(x)) /\\ (ex y: y = n) \\/ A says (ex x, y: p(x) /\\ (ex z: z = y))",
]


def test_binders_are_numbered_as_read():
    d = decls()
    x1, x2 = Var("%1"), Var("%2")
    n = Basic("n", "nonce")
    assert parse_assertion("ex x, x: p(x)", d) == Exists("%1", Exists("%2", Pred("p", (x2,))))
    assert parse_assertion("ex n: n = n", d) == Exists("%1", Eq(n, n))
    assert parse_assertion("ex y: y says p(n)", d) == Exists("%1", Says(x1, Pred("p", (n,))))
    # by depth: sibling binders share a name
    assert parse_assertion("(ex x: p(x)) /\\ (ex y: p(y))", d) == And(
        Exists("%1", Pred("p", (x1,))), Exists("%1", Pred("p", (x1,))))


def test_sibling_binders_print_with_names_of_their_own():
    d = decls()
    d.predicates["q"] = 1
    for text in ("(ex x: q(x)) /\\ (ex y: p(y))",
                 "A sent <ex x: p(x) /\\ (ex y: p(y))> \\/ (ex z: A says p(z))"):
        assert print_assertion(parse_assertion(text, d)) == text


def _depth_zero_parts(a):
    """a, and the parts that a proof takes apart without opening a binder:
    the sides of a conjunction or disjunction and says or sent bodies."""
    yield a
    if isinstance(a, (And, Or)):
        yield from _depth_zero_parts(a.left)
        yield from _depth_zero_parts(a.right)
    elif isinstance(a, (Says, SentA)):
        yield from _depth_zero_parts(a.body)


def test_every_parsed_assertion_is_its_own_normal_form():
    """normalize has nothing left to build: rebuilding the normal form from
    scratch gives the very object the parser returned, and so for every
    depth-0 part of it."""
    d = decls()
    found = [parse_assertion(text, d) for text in BINDERS]
    role = "\n".join(f"  deny id : {text}" for text in BINDERS)
    sources = [*SOURCES.values(), "protocol nf\nagents A\nnonces n, m\nkeys k\n"
               f"predicates p/1\nrole r:\n{role}\n"]
    for proto in map(parse_protocol, sources):
        found += [act.assertion for r in proto.roles.values() for act in r.actions
                  if act.assertion is not None]
    texts = [*SEQUENTS.values(), "agents: A\nnonces: n, m\nkeys: k\nassertions:\n"
             + "\n".join(BINDERS) + "\ngoal: ex x: x = n\n"]
    for seq in map(parse_sequent, texts):
        found += [*seq.assertions, seq.goal]
    assert len(found) > 50
    parts = [part for a in found for part in _depth_zero_parts(a)]
    # existentials below a connective, not only whole ones
    assert sum(isinstance(part, Exists) for part in parts) > 20 + sum(
        isinstance(a, Exists) for a in found)
    for a in parts:
        assert normalize(a) is a
        assert rebind(a, {}, numbered()) is a


def test_predicate_arity_checked():
    d = decls()
    with pytest.raises(ParseError):
        parse_assertion("p(n, m)", d)


def test_a_variadic_constructor_takes_any_arity():
    seq = parse_sequent("constructors: f/*\nterms: f(a), f(a, b)\ngoal: f(a) = f(a, b)\n")
    a, b = Var("a"), Var("b")
    assert seq.terms == {App("f", (a,)), App("f", (a, b))}
    assert seq.goal == Eq(App("f", (a,)), App("f", (a, b)))
    assert seq.decls.constructors == {"f": None}


def test_operator_structure():
    d = decls()
    a = parse_assertion("n = m /\\ p(n) \\/ p(m)", d)
    # conjunction binds tighter than disjunction
    assert type(a).__name__ == "Or"
    b = parse_assertion("ex x: x = n /\\ p(x)", d)
    assert type(b).__name__ == "Exists"
    assert type(b.body).__name__ == "And"


def test_sequent_with_sections_and_inline_lists():
    seq = parse_sequent(
        """
        nonces: v, 0, 1
        keys: k
        terms: {v}k, k
        assertions: ex x: ({v}k = {x}k /\\ (x = 0 \\/ x = 1))
        goal: ex y: {v}k = {0}y
        """
    )
    assert len(seq.terms) == 2
    assert len(seq.assertions) == 1
    assert seq.goal == normalize(seq.goal)
    assert "0" in seq.decls.nonces


def test_sequent_numeral_constants_must_be_declared():
    with pytest.raises(ParseError):
        parse_sequent("nonces: v\nkeys: k\nterms: {v}k\ngoal: v = 0\n")


def test_nesting_past_the_limit_is_a_parse_error():
    # deep input is refused before it can reach the recursion limit, for
    # bracketed terms as for prefix chains and parenthesized assertions
    d = decls()
    n = MAX_NESTING
    ok_term = "(" * (n - 1) + "n" + ", n)" * (n - 1)
    assert parse_term(ok_term, d) is not None
    deep = [
        ("term", "(" * 3000 + "n" + ", n)" * 3000),
        ("term", "{" * n + "n" + "}k" * n),
        ("assertion", "A says " * n + "n = n"),
        ("assertion", "ex x: " * n + "x = n"),
        ("assertion", "(" * n + "n = n" + ")" * n),
    ]
    for kind, text in deep:
        with pytest.raises(ParseError, match="nested more than"):
            (parse_term if kind == "term" else parse_assertion)(text, d)
    with pytest.raises(ParseError, match="nested more than"):
        parse_sequent(f"nonces: n\nterms: {deep[0][1]}\ngoal: n = n\n")
    src = FOO_SOURCE.replace("send id : ", "send id : " + "h(" * n, 1)
    with pytest.raises(ParseError, match="nested more than"):
        parse_protocol(src)
    # so is a chain of more than MAX_CHAIN connectives in one assertion,
    # however it is bracketed; each assertion counts its own
    chain = " /\\ ".join(["n = n"] * (MAX_CHAIN + 1))
    half = " /\\ ".join(["n = n"] * (MAX_CHAIN // 2 + 1))
    assert parse_sequent(f"nonces: n\nassertions: {chain}\n{chain}\ngoal: {chain}\n")
    long = [chain + " /\\ n = n", chain.replace("/\\", "\\/") + " \\/ n = n",
            f"({half}) /\\ {half}", f"A says ({half}) \\/ ex x: (x = n /\\ {half})"]
    for text in long:
        with pytest.raises(ParseError, match=f"more than {MAX_CHAIN} "):
            parse_assertion(text, d)
        with pytest.raises(ParseError, match=f"more than {MAX_CHAIN} "):
            parse_sequent(f"nonces: n\nagents: A\nassertions: n = n\n{text}\ngoal: n = n\n")
    src = FOO_SOURCE.replace("valid(x)))", "valid(x)" + " /\\ valid(x)" * MAX_CHAIN + "))", 1)
    with pytest.raises(ParseError, match=f"more than {MAX_CHAIN} "):
        parse_protocol(src)
    assert parse_protocol(src.replace(" /\\ valid(x)", "", 1))


def test_protocol_round_trip_builtins():
    for src in (FOO_SOURCE, HELIOS_SOURCE):
        proto = parse_protocol(src)
        again = parse_protocol(print_protocol(proto))
        assert again.name == proto.name
        assert set(again.roles) == set(proto.roles)
        for rname in proto.roles:
            assert again.roles[rname].actions == proto.roles[rname].actions


def test_printing_keeps_the_scenario_of_every_builtin():
    for name, src in SOURCES.items():
        proto = parse_protocol(src, name)
        assert proto.scenario.layout and proto.scenario.facts, name
        printed = print_protocol(proto)
        assert parse_protocol(printed).scenario == proto.scenario, name
        assert print_protocol(parse_protocol(printed)) == printed, name


def test_protocol_reports_location_on_error():
    src = "protocol bad\nagents A\nrole r(v):\n  send id : undeclared_ctor(v)\n"
    with pytest.raises(ParseError) as e:
        parse_protocol(src)
    assert str(e.value) == "undeclared constructor undeclared_ctor at protocol:4:13"


def test_parse_sessions():
    proto = parse_protocol(FOO_SOURCE)
    ss = parse_sessions("voter(id=V0, v=v0); counter(id=Cnt)", proto)
    assert ss[0][0] == "voter"
    assert ss[0][1]["v"] == Basic("v0", "nonce")
    assert ss[1][0] == "counter"


def test_a_session_must_ground_its_role():
    proto = parse_protocol(FOO_SOURCE)
    for bad, why in [("voter(id=V0)", "ground"),  # v unbound
                     ("voter(v=v0)", "ground"),  # id unbound
                     ("voter(id=X, v=v0)", "ground"),  # X is no declared agent
                     ("voter(id=V0, v=x)", "ground"),  # x is a variable
                     ("voter(id=V0, v=v0, w=v1)", "no parameter w"),
                     ("mayor(id=V0)", "unknown role")]:
        with pytest.raises(ParseError, match=why):
            parse_sessions(bad, proto)


def _rand_term(rng: random.Random, d: Declarations, depth: int):
    pool = [Basic("n", "nonce"), Basic("m", "nonce"), Basic("k", "key"),
            Basic("A", "agent"), Var("x")]
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(pool)
    r = rng.random()
    if r < 0.4:
        return Pair(_rand_term(rng, d, depth - 1), _rand_term(rng, d, depth - 1))
    if r < 0.8:
        return Enc(_rand_term(rng, d, depth - 1), Basic("k", "key"))
    from protassert import App
    return App("h", (_rand_term(rng, d, depth - 1),))


def test_term_print_parse_identity_property():
    rng = random.Random(40)
    d = decls()
    for _ in range(200):
        t = _rand_term(rng, d, 3)
        assert parse_term(print_term(t), d) == t


def test_assertion_print_parse_identity_property():
    rng = random.Random(41)
    d = decls()
    base = ["n = m", "p(n)", "ex x: p(x)", "A says p(n)", "A sent n",
            "A sent <n = m>"]
    ops = ["/\\", "\\/"]
    for _ in range(200):
        parts = [rng.choice(base) for _ in range(rng.randint(1, 3))]
        text = (" " + rng.choice(ops) + " ").join(f"({p})" for p in parts)
        a = parse_assertion(text, d)
        assert parse_assertion(print_assertion(a), d) == a
