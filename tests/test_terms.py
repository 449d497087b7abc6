from __future__ import annotations

import gc
import random

import pytest

from protassert import App, Basic, Enc, Pair, Var, sk, vk
from protassert.terms import (
    _TABLE,
    KEYS,
    has_bound_name,
    is_ground,
    is_key_position,
    iter_subterms,
    replace_term,
    sorted_terms,
    subst_term,
    term_depth,
    term_key,
    term_vars,
)

A = Basic("A", "agent")
B = Basic("B", "agent")
n = Basic("n", "nonce")
k = Basic("k", "key")


def test_constructors_and_sorts():
    assert A.sort == "agent" and n.sort == "nonce" and k.sort == "key"
    assert sk(A) == App("sk", (A,))
    assert vk(A) == App("vk", (A,))
    assert Enc(n, k).key is k
    assert Pair(A, n).left is A


def test_enc_rejects_non_key_material():
    with pytest.raises(ValueError):
        Enc(n, Pair(k, k))
    with pytest.raises(ValueError):
        Enc(n, n)


def test_key_positions():
    assert is_key_position(k)
    assert is_key_position(Var("y"))
    assert is_key_position(sk(A)) and is_key_position(vk(A))
    assert not is_key_position(n)
    assert not is_key_position(Pair(k, k))


def test_key_inverses():
    assert KEYS.inverse(k) == k
    assert KEYS.inverse(sk(A)) == vk(A)
    assert KEYS.inverse(vk(A)) == sk(A)
    assert KEYS.inverse(KEYS.inverse(sk(B))) == sk(B)
    with pytest.raises(ValueError):
        KEYS.inverse(n)


def test_subterms_and_depth():
    t = Pair(Enc(n, k), A)
    assert frozenset(iter_subterms(t)) == frozenset({t, Enc(n, k), n, k, A})
    assert term_depth(A) == 0
    assert term_depth(t) == 2
    assert list(iter_subterms(A)) == [A]


def test_vars_and_ground():
    t = Pair(Var("x"), Enc(n, Var("y")))
    assert term_vars(t) == frozenset({"x", "y"})
    assert not is_ground(t)
    assert is_ground(Enc(n, k))


def test_subst_term():
    t = Pair(Var("x"), Enc(Var("x"), k))
    assert subst_term(t, {"x": n}) == Pair(n, Enc(n, k))
    assert subst_term(t, {"z": n}) == t


def test_replace_term_is_whole_subterm_only():
    t = Pair(n, Enc(n, k))
    assert replace_term(t, {n: A}) == Pair(A, Enc(A, k))
    # the outermost match wins and the replacement is not revisited
    assert replace_term(t, {t: n, n: A}) == n
    assert replace_term(n, {n: Pair(n, n)}) == Pair(n, n)


def test_replace_term_swap_map():
    m = {A: B, B: A}
    t = Pair(A, Enc(B, sk(A)))
    assert replace_term(t, m) == Pair(B, Enc(A, sk(B)))
    assert replace_term(replace_term(t, m), m) == t


def test_sorted_terms_deterministic():
    ts = [Enc(n, k), A, Pair(A, n), Var("x"), sk(A)]
    once = sorted_terms(ts)
    assert sorted_terms(list(reversed(ts))) == once
    assert set(once) == set(ts)


def _random_term(rng: random.Random, pool, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(pool)
    r = rng.random()
    if r < 0.45:
        return Pair(_random_term(rng, pool, depth - 1),
                    _random_term(rng, pool, depth - 1))
    if r < 0.8:
        return Enc(_random_term(rng, pool, depth - 1), rng.choice([k, sk(A), sk(B)]))
    return App("h", (_random_term(rng, pool, depth - 1),))


def test_swap_involution_property():
    # 200 random terms: swapping twice is the identity
    rng = random.Random(11)
    pool = [A, B, n, k]
    m = {A: B, B: A}
    for _ in range(200):
        t = _random_term(rng, pool, 3)
        assert replace_term(replace_term(t, m), m) == t


def test_swap_homomorphism_property():
    # swapping basics commutes with every constructor
    rng = random.Random(12)
    pool = [A, B, n, k]
    m = {A: B, B: A}

    def swp(t):
        return replace_term(t, m)

    for _ in range(200):
        a = _random_term(rng, pool, 2)
        b = _random_term(rng, pool, 2)
        assert swp(Pair(a, b)) == Pair(swp(a), swp(b))
        assert swp(Enc(a, sk(B))) == Enc(swp(a), sk(A))
        assert swp(App("h", (a,))) == App("h", (swp(a),))


# -- hash-consing


def _entries(name: str) -> list:
    """Live table entries whose fields mention the basic or variable name."""
    return [key for key in list(_TABLE.keys())
            if any(name in repr(field) for field in key[1:])]


def test_equal_structures_are_one_object():
    assert Pair(A, n) is Pair(A, n)
    assert Pair(left=A, right=n) is Pair(A, n)
    assert Pair(A, right=n) is Pair(A, n)
    assert Basic(name="A", sort="agent") is A
    assert Enc(Pair(A, Var("x")), sk(B)) is Enc(Pair(A, Var("x")), App("sk", (B,)))
    assert App("h", (Pair(n, k), A)) is App(ctor="h", args=(Pair(n, k), A))
    assert Basic("A", "nonce") is not A


def test_equality_and_hash_are_identity():
    for cls in (Basic, Var, Pair, Enc, App):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    t = Pair(A, Enc(n, k))
    assert t == Pair(A, Enc(n, k)) and hash(t) == hash(Pair(A, Enc(n, k)))


def test_repr_is_the_dataclass_repr():
    assert repr(Pair(A, Enc(n, sk(B)))) == (
        "Pair(left=Basic(name='A', sort='agent'), right=Enc(body=Basic(name='n', "
        "sort='nonce'), key=App(ctor='sk', args=(Basic(name='B', sort='agent'),))))")
    assert repr(Var("x")) == "Var(name='x')"


def test_invalid_enc_raises_and_is_not_interned():
    body = Basic("only-in-the-invalid-enc", "nonce")
    with pytest.raises(ValueError):
        Enc(body, body)
    with pytest.raises(ValueError):
        Enc(body=body, key=Pair(k, k))
    with pytest.raises(ValueError):
        Basic("only-in-the-invalid-basic", "colour")
    # only the valid basic, which body still holds
    assert [key[0] for key in _entries("only-in-the-invalid")] == [Basic]


def test_an_unreferenced_term_leaves_the_table():
    t = Pair(Var("only-in-the-dropped-term"), Enc(n, k))
    term_key(t), has_bound_name(t)  # caches on the object keep nothing else alive
    assert _entries("only-in-the-dropped-term")
    del t
    gc.collect()
    assert _entries("only-in-the-dropped-term") == []


@pytest.mark.parametrize("deferred", [False, True])
def test_a_structure_rebuilt_after_collection_is_one_live_entry(deferred):
    """Rebuilt after its object died, a structure is interned afresh: one
    entry, whose reference is the new object.  While the table is being
    iterated, it defers removing dead entries, so a lookup meets one."""
    name = f"only-in-the-rebuilt-term-{deferred}"
    t = Pair(Var(name), Enc(n, k))
    key = (Pair, Var(name), Enc(n, k))
    guard = iter(_TABLE.items())
    if deferred:
        next(guard)
    del t
    gc.collect()
    assert (key in _TABLE.data) is deferred
    t = Pair(Var(name), Enc(n, k))
    guard.close()
    assert t is Pair(Var(name), Enc(n, k))
    assert _TABLE.data[key]() is t
    assert sorted(entry[0].__name__ for entry in _entries(name)) == ["Pair", "Var"]


def test_cached_values_match_the_structure():
    t = Pair(Var("%1"), Enc(n, k))
    assert has_bound_name(t) and has_bound_name(Var("%1"))
    assert not has_bound_name(Enc(n, k))
    assert term_key(t) is term_key(Pair(Var("%1"), Enc(n, k)))
    assert term_key(t) == (2, (1, "%1"), (3, (0, 1, "n"), (0, 2, "k")))


def test_sorted_terms_order_is_fixed():
    ts = [App("h", (A,)), Enc(n, k), Var("y"), Pair(B, n), k, Var("x"), n, B, A,
          Enc(A, sk(A)), Pair(A, n), App("g", (B, A))]
    assert sorted_terms(ts) == [A, B, n, k, Var("x"), Var("y"), Pair(A, n), Pair(B, n),
                                Enc(A, sk(A)), Enc(n, k), App("g", (B, A)), App("h", (A,))]
