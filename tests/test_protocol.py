from __future__ import annotations

import itertools

import pytest

from protassert import (
    Basic,
    Pair,
    parse_protocol,
    parse_sessions,
    sk,
    validate_protocol,
)
from protassert.builtins import (
    BUILTINS,
    FOO_SOURCE,
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    builtin_setup,
    default_foo_setup,
    default_helios_setup,
)
from protassert.protocol import action_subst, suitable
from protassert.runtime import OBSERVER
from protassert.syntax import ParseError


HEADER = """protocol t
agents A, B
nonces na
keys ka
predicates ok/1
constructors c/1, sk/1, vk/1
"""


def test_builtin_protocols_are_clean():
    for proto in (builtin_foo(), builtin_foo_linked(), builtin_helios()):
        assert validate_protocol(proto) == []


def test_builtin_registry():
    assert set(BUILTINS) >= {"foo", "helios", "foo-linked"}
    for name in ("foo", "foo-linked", "helios"):
        proto = BUILTINS[name]()
        assert validate_protocol(proto) == []
        assert builtin_setup(name, proto).sessions


def test_unbound_variable_diagnostic():
    src = HEADER + "role r:\n  send id : c(w)\n"
    diags = validate_protocol(parse_protocol(src))
    assert any(d.code == "unbound-variable" and "w" in d.detail for d in diags)


def test_fresh_reuse_diagnostic():
    src = HEADER + "role r(v):\n  send id fresh(v) : c(v)\n"
    diags = validate_protocol(parse_protocol(src))
    assert any(d.code == "fresh-reuse" for d in diags)


def test_reveal_violation_diagnostic():
    # the assertion lays open a key that no message ever carried
    src = HEADER + "role r:\n  send id : na, ka = ka\n"
    diags = validate_protocol(parse_protocol(src))
    assert any(d.code == "reveal-violation" for d in diags)


def test_receive_binds_variables():
    src = HEADER + "role r:\n  recv id : c(w)\n  send id : w\n"
    assert validate_protocol(parse_protocol(src)) == []


def test_mixed_principal_diagnostic():
    src = HEADER + "role r:\n  send id : na\n  send A : na\n"
    diags = validate_protocol(parse_protocol(src))
    assert any(d.code == "mixed-principal" for d in diags)


def test_diagnostics_render():
    src = HEADER + "role r:\n  send id : c(w)\n"
    diags = validate_protocol(parse_protocol(src))
    assert "r[0]" in str(diags[0])


def test_default_setups_fit_their_protocols():
    proto = builtin_foo()
    setup = default_foo_setup(proto)
    roles = [r for r, _ in setup.sessions]
    assert roles.count("voter") == 2
    for rname, sigma in setup.sessions:
        assert suitable(sigma, proto.roles[rname], proto)
    hp = builtin_helios()
    for rname, sigma in default_helios_setup(hp).sessions:
        assert suitable(sigma, hp.roles[rname], proto=hp)


KEY_SLOTS = HEADER + """role r(p, q):
  send id : ({na}p, q)
role s(q):
  send id : na, ok({na}q)
role u(p):
  send id fresh(p) : {na}p
"""


def _instantiates(sigma, role) -> bool:
    """The reference for suitable's last condition: build every action."""
    try:
        for act in role.actions:
            action_subst(act, {k: v for k, v in sigma.items() if k not in act.fresh})
    except ValueError:
        return False
    return True


def test_a_key_slot_parameter_needs_key_material():
    proto = parse_protocol(KEY_SLOTS)
    for ok in ("r(id=A, p=ka, q=na)", "r(id=A, p=sk(B), q=(na, na))", "s(id=A, q=vk(A))",
               "u(id=A, p=na)"):  # u's p is fresh where it sits in a key slot
        assert parse_sessions(ok, proto)
    for bad in ("r(id=A, p=na, q=na)", "r(id=A, p=(ka, ka), q=na)", "s(id=A, q=na)"):
        with pytest.raises(ParseError, match="ground"):
            parse_sessions(bad, proto)
    na, ka = Basic("na", "nonce"), Basic("ka", "key")
    values = [na, ka, Basic("A", "agent"), sk(Basic("B", "agent")), Pair(na, ka)]
    for proto in (proto, builtin_foo(), builtin_helios()):
        for role in proto.roles.values():
            for vals in itertools.product(values, repeat=len(role.params)):
                sigma = {"id": Basic("A", "agent"), **dict(zip(role.params, vals))}
                assert suitable(sigma, role, proto) == _instantiates(sigma, role), (role.name, sigma)


def test_voter_count_is_bounded():
    proto = builtin_foo()
    for voters in (2, 3, 4):
        setup = default_foo_setup(proto, voters=voters)
        assert len([r for r, _ in setup.sessions if r == "voter"]) == voters
    with pytest.raises(ValueError):
        default_foo_setup(proto, voters=1)
    with pytest.raises(ValueError):
        default_foo_setup(proto, voters=5)


def test_anonymity_setup_arms_the_observer():
    proto = builtin_foo()
    setup = anonymity_foo_setup(proto)
    plain = default_foo_setup(proto)
    assert setup.agent_terms[OBSERVER] > plain.agent_terms.get(OBSERVER, set())


def test_session_list_parsing_matches_builtin():
    proto = builtin_foo()
    ss = parse_sessions(
        "authority(id=Auth); authority(id=Auth); "
        "voter(id=V0, v=v0); voter(id=V1, v=v1); "
        "counter(id=Cnt); counter(id=Cnt)", proto)
    assert ss == default_foo_setup(proto).sessions


def test_phases_order_roles():
    proto = builtin_foo()
    phases = [a.phase for r in proto.roles.values() for a in r.actions]
    assert min(phases) == 0
    assert max(phases) >= 1
