"""Built-in protocol models: a commitment-based election scheme with an
anonymous casting channel, a two-voter homomorphic-tally election, and a
deliberately weakened variant of the first that casts over an identified
channel.

Each builtin ships with a default session layout and the initial assertion
databases its runs need: every agent recognizes the public vote values as
valid, and the registrar holds the eligibility roll.
"""
from __future__ import annotations

from typing import Callable

from .assertions import Pred
from .protocol import Protocol
from .runtime import Setup, parties
from .syntax import parse_protocol, parse_sessions
from .terms import AGENT, Basic, NONCE, Term, sk


def _sk_of(agent: str) -> Term:
    return sk(Basic(agent, AGENT))

FOO_SOURCE = """\
protocol foo
phases auth, vote
agents Auth, Cnt, V0, V1, V2, V3
nonces v0, v1, v2, v3
predicates elg/1, voted/2, valid/1
constructors sk/1, vk/1

role voter(v):
  send id fresh(k) : {v}k, id says (ex x, r: ({x}r = {v}k /\\ valid(x)))
  recv id : id, Auth says (elg(id) /\\ voted(id, {v}k) /\\ id says (ex x, r: ({x}r = {v}k /\\ valid(x))))
  @vote send* id fresh(kc) : ({v}kc, kc), ex X, y, s: (Auth says (elg(X) /\\ voted(X, {y}s) /\\ X says (ex x, r: ({x}r = {y}s /\\ valid(x)))) /\\ y = v)

role authority:
  recv id : env, W says (ex x, r: ({x}r = env /\\ valid(x)))
  deny id : ex z: voted(W, z)
  insert id : voted(W, env)
  send id : W, id says (elg(W) /\\ voted(W, env) /\\ W says (ex x, r: ({x}r = env /\\ valid(x))))

role counter:
  @vote recv id : (env2, kk), ex X, y, s: (Auth says (elg(X) /\\ voted(X, {y}s) /\\ X says (ex x, r: ({x}r = {y}s /\\ valid(x)))) /\\ y = w)
  confirm id : ex X, y, s: (Auth says (elg(X) /\\ voted(X, {y}s) /\\ X says (ex x, r: ({x}r = {y}s /\\ valid(x)))) /\\ y = w)
  send id : (env2, kk), ex X, y, s: (Auth says (elg(X) /\\ voted(X, {y}s) /\\ X says (ex x, r: ({x}r = {y}s /\\ valid(x)))) /\\ y = w)
"""

# identical to foo except the ballot is cast over an identified channel,
# linking the opened vote to its sender
FOO_LINKED_SOURCE = FOO_SOURCE.replace(
    "protocol foo", "protocol foo_linked").replace(
    "@vote send* id fresh(kc)", "@vote send id fresh(kc)")

HELIOS_SOURCE = """\
protocol helios
phases cast, tally
agents Adm, Scr, V0, V1
nonces v0, v1
predicates valid/1, voted/2
constructors ballot/1, sum/2, sk/1, vk/1

role voter(v):
  send id : v, id says valid(v)
  recv id : ballot(v), Scr says (ex u: (ballot(v) = ballot(u) /\\ id says valid(u)))
  send id : (id, ballot(v))

role script:
  recv id : w, V says valid(w)
  send id : ballot(w), id says (ex u: (ballot(w) = ballot(u) /\\ V says valid(u)))
  recv id : (V, ballot(w))
  send id : (V, ballot(w)), id says (ex u: (ballot(w) = ballot(u) /\\ V says valid(u)))

role admin:
  recv id : (W1, ballot(w1)), Scr says (ex u: (ballot(w1) = ballot(u) /\\ W1 says valid(u)))
  deny id : ex z: voted(W1, z)
  insert id : voted(W1, ballot(w1))
  send id : ballot(w1), id says (Scr says (ex u: (ballot(w1) = ballot(u) /\\ W1 says valid(u))))
  recv id : (W2, ballot(w2)), Scr says (ex u: (ballot(w2) = ballot(u) /\\ W2 says valid(u)))
  deny id : ex z: voted(W2, z)
  insert id : voted(W2, ballot(w2))
  send id : ballot(w2), id says (Scr says (ex u: (ballot(w2) = ballot(u) /\\ W2 says valid(u))))
  @tally send id : ballot(sum(w1, w2)), id says (ex u1, u2: (ballot(sum(w1, w2)) = ballot(sum(u1, u2)) /\\ (valid(u1) /\\ valid(u2))))
"""


SOURCES = {"foo": FOO_SOURCE, "foo-linked": FOO_LINKED_SOURCE, "helios": HELIOS_SOURCE}


def _parser(name: str) -> Callable[[], Protocol]:
    """A function that parses the named builtin afresh."""
    return lambda: parse_protocol(SOURCES[name], name)


BUILTINS = {name: _parser(name) for name in SOURCES}
builtin_foo = BUILTINS["foo"]
builtin_foo_linked = BUILTINS["foo-linked"]
builtin_helios = BUILTINS["helios"]


def setup_over(name: str, proto: Protocol, sessions: list[tuple[str, dict[str, Term]]],
               anonymity: bool = False) -> Setup:
    """The builtin `name`'s set-up over a session list: every party holds
    the public vote values as valid; for foo and foo-linked the registrar
    holds the eligibility roll of the V<i> sessions, and an anonymity
    observer also controls registrar and counter (holds their signing keys)."""
    setup = Setup(sessions=sessions)
    votes = [Basic(n, NONCE) for n in sorted(proto.decls.nonces)]
    for party in parties(proto, setup):
        db = setup.agent_assertions.setdefault(party, set())
        for v in votes:
            db.add(Pred("valid", (v,)))
    if name.startswith("foo"):
        roll = setup.agent_assertions.setdefault("Auth", set())
        for _, sigma in sessions:
            ag = sigma.get("id")
            if isinstance(ag, Basic) and ag.name.startswith("V"):
                roll.add(Pred("elg", (ag,)))
        if anonymity:
            setup.agent_terms.setdefault(setup.intruder, set()).update(
                (_sk_of("Auth"), _sk_of("Cnt")))
    return setup


def builtin_setup(name: str, proto: Protocol | None = None,
                  anonymity: bool = False, voters: int = 2) -> Setup:
    """Default scenario for a builtin protocol by registry name: for foo and
    foo-linked one authority and one counter session per voter, voter i
    voting v<i>; for helios two voters, two script sessions and an admin."""
    if name not in BUILTINS:
        raise KeyError(name)
    proto = proto or BUILTINS[name]()
    if name.startswith("foo"):
        if not 2 <= voters <= 4:
            raise ValueError("between 2 and 4 voters are declared")
        layout = ["authority(id=Auth)"] * voters + [
            f"voter(id=V{i}, v=v{i})" for i in range(voters)] + ["counter(id=Cnt)"] * voters
    elif anonymity:
        raise KeyError(f"no anonymity scenario for {name}")
    else:
        layout = ["voter(id=V0, v=v0)", "voter(id=V1, v=v1)", "script(id=Scr)", "script(id=Scr)",
                  "admin(id=Adm)"]
    return setup_over(name, proto, parse_sessions("; ".join(layout), proto), anonymity)


def default_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    return builtin_setup("foo", proto, voters=voters)


def anonymity_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    return builtin_setup("foo", proto, anonymity=True, voters=voters)


def default_helios_setup(proto: Protocol | None = None) -> Setup:
    return builtin_setup("helios", proto)
