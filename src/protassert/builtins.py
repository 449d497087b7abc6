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


def _vote_values(proto: Protocol) -> list[Basic]:
    return [Basic(n, NONCE) for n in sorted(proto.decls.nonces)]


def _with_common_databases(proto: Protocol, setup: Setup,
                           registrar: str | None) -> Setup:
    votes = _vote_values(proto)
    for name in parties(proto, setup):
        db = setup.agent_assertions.setdefault(name, set())
        for v in votes:
            db.add(Pred("valid", (v,)))
    if registrar is not None:
        roll = setup.agent_assertions.setdefault(registrar, set())
        for _, sigma in setup.sessions:
            ag = sigma.get("id")
            if isinstance(ag, Basic) and ag.name.startswith("V"):
                roll.add(Pred("elg", (ag,)))
    return setup


def default_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    """One authority and one counter session per voter; voter i votes v<i>."""
    proto = proto or builtin_foo()
    if not 2 <= voters <= 4:
        raise ValueError("between 2 and 4 voters are declared")
    parts = ["authority(id=Auth)"] * voters
    parts += [f"voter(id=V{i}, v=v{i})" for i in range(voters)]
    parts += ["counter(id=Cnt)"] * voters
    setup = Setup(sessions=parse_sessions("; ".join(parts), proto))
    return _with_common_databases(proto, setup, registrar="Auth")


def anonymity_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    """The casting-channel observer also controls registrar and counter."""
    proto = proto or builtin_foo()
    setup = default_foo_setup(proto, voters)
    setup.agent_terms.setdefault(setup.intruder, set()).update((_sk_of("Auth"), _sk_of("Cnt")))
    return setup


def default_helios_setup(proto: Protocol | None = None) -> Setup:
    proto = proto or builtin_helios()
    text = ("voter(id=V0, v=v0); voter(id=V1, v=v1); "
            "script(id=Scr); script(id=Scr); admin(id=Adm)")
    setup = Setup(sessions=parse_sessions(text, proto))
    return _with_common_databases(proto, setup, registrar=None)


def builtin_setup(name: str, proto: Protocol | None = None,
                  anonymity: bool = False, voters: int = 2) -> Setup:
    """Default scenario for a builtin protocol by registry name."""
    if name not in BUILTINS:
        raise KeyError(name)
    proto = proto or BUILTINS[name]()
    if name.startswith("foo"):
        return (anonymity_foo_setup(proto, voters) if anonymity
                else default_foo_setup(proto, voters))
    if anonymity:
        raise KeyError(f"no anonymity scenario for {name}")
    return default_helios_setup(proto)
