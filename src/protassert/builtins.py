"""Built-in protocol models: a commitment-based election scheme with an
anonymous casting channel, a two-voter homomorphic-tally election, and a
deliberately weakened variant of the first that casts over an identified
channel.

Each builtin is only its text, which states its scenario in `setup` lines
(grammar in the `syntax` docstring): its default session layout, the vote
values every party holds as valid, foo's eligibility roll at the registrar
and the keys foo's observer holds in a privacy check.  The set-up functions
here are `runtime.stated_setup` on a builtin.
"""
from __future__ import annotations

from typing import Callable

from .protocol import Protocol
from .runtime import Setup, stated_setup
from .syntax import parse_protocol

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

setup sessions: authority(id=Auth) per voter; voter(id=V, v=v) per voter; counter(id=Cnt) per voter
setup all: valid(v0), valid(v1), valid(v2), valid(v3)
setup Auth per voter: elg(id)
setup observer: sk(Auth), sk(Cnt)
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

setup sessions: voter(id=V0, v=v0); voter(id=V1, v=v1); script(id=Scr); script(id=Scr); admin(id=Adm)
setup all: valid(v0), valid(v1)
"""


SOURCES = {"foo": FOO_SOURCE, "foo-linked": FOO_LINKED_SOURCE, "helios": HELIOS_SOURCE}


def _parser(name: str) -> Callable[[], Protocol]:
    """A function that parses the named builtin afresh."""
    return lambda: parse_protocol(SOURCES[name], name)


BUILTINS = {name: _parser(name) for name in SOURCES}
builtin_foo = BUILTINS["foo"]
builtin_foo_linked = BUILTINS["foo-linked"]
builtin_helios = BUILTINS["helios"]


def builtin_setup(name: str, proto: Protocol | None = None,
                  anonymity: bool = False, voters: int = 2) -> Setup:
    """The scenario the builtin `name` states, at a voter count, for a
    privacy check or not."""
    return stated_setup(proto or BUILTINS[name](), voters, anonymity)


def default_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    return builtin_setup("foo", proto, voters=voters)


def anonymity_foo_setup(proto: Protocol | None = None, voters: int = 2) -> Setup:
    return builtin_setup("foo", proto, anonymity=True, voters=voters)


def default_helios_setup(proto: Protocol | None = None) -> Setup:
    return builtin_setup("helios", proto)
