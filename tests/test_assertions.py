from __future__ import annotations

import gc
import random
import weakref

import pytest

from protassert import (
    And,
    Basic,
    Enc,
    Eq,
    Exists,
    Or,
    Pair,
    Pred,
    Says,
    SentA,
    SentT,
    Var,
    free_vars,
    is_closed,
    normalize,
    substitute,
)
from protassert import assertions, protocol
from protassert.anonymity import _TemplateGen
from protassert.assertions import (
    SYNTACTIC,
    assertion_terms,
    assertion_vars,
    map_terms,
    match_canonical,
    match_term,
    numbered,
    rebind,
    reveals,
    sorted_assertions,
    subassertions,
)
from protassert.builtins import BUILTINS, builtin_foo, builtin_helios, builtin_setup
from protassert.engine import DeriveContext, _BranchProver, _Query
from protassert.runtime import simulate
from protassert.syntax import Declarations, parse_assertion, print_assertion
from protassert.terms import App, iter_subterms, subst_term

A = Basic("A", "agent")
B = Basic("B", "agent")
n = Basic("n", "nonce")
k = Basic("k", "key")


def test_normalize_renames_binders_in_preorder():
    a = Exists("x", And(Eq(Var("x"), n), Exists("y", Eq(Var("y"), Var("x")))))
    b = Exists("u", And(Eq(Var("u"), n), Exists("v", Eq(Var("v"), Var("u")))))
    na = normalize(a)
    assert na == normalize(b)
    assert na.var == "%1"
    assert na.body.right.var == "%2"


def test_normalize_is_idempotent():
    a = Exists("x", Or(Eq(Var("x"), n), Exists("x", Eq(Var("x"), k))))
    assert normalize(normalize(a)) is normalize(a)
    assert normalize(a) is normalize(Exists("u", Or(Eq(Var("u"), n), Exists("v", Eq(Var("v"), k)))))


def test_equal_assertions_are_one_object():
    a = Says(A, Exists("%1", And(Eq(Var("%1"), n), Pred("p", (Enc(n, k),)))))
    assert a is Says(agent=A, body=Exists("%1", And(Eq(Var("%1"), n), Pred("p", (Enc(n, k),)))))
    assert SentT(A, n) is SentT(A, term=n) and SentT(A, n) is not SentT(B, n)
    for cls in (Eq, Pred, And, Or, Exists, Says, SentT, SentA):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert repr(a) == (
        "Says(agent=Basic(name='A', sort='agent'), body=Exists(var='%1', body=And("
        "left=Eq(lhs=Var(name='%1'), rhs=Basic(name='n', sort='nonce')), right=Pred("
        "name='p', args=(Enc(body=Basic(name='n', sort='nonce'), key=Basic(name='k', "
        "sort='key')),)))))")


def test_normalize_leaves_free_vars_alone():
    a = Exists("x", Eq(Var("x"), Var("z")))
    na = normalize(a)
    assert na.body.rhs == Var("z")


def test_free_vars_and_closed():
    a = Exists("x", And(Eq(Var("x"), Var("y")), Pred("p", (Var("x"),))))
    assert free_vars(a) == frozenset({"y"})
    assert not is_closed(a)
    assert is_closed(substitute(a, {"y": n}))


def test_substitute_respects_binding():
    a = Exists("x", Eq(Var("x"), Var("y")))
    s = substitute(a, {"y": n, "x": k})
    assert s == normalize(Exists("x", Eq(Var("x"), n)))
    # the bound x is out of reach
    assert substitute(a, {"x": k}) == normalize(a)


def test_substitute_does_not_capture_an_image_named_like_a_binder():
    a = Exists("y", Eq(Var("x"), Var("y")))
    s = substitute(a, {"x": Var("y")})
    assert s == Exists("%1", Eq(Var("y"), Var("%1")))
    assert free_vars(s) == frozenset({"y"})


def test_substitute_normalizes():
    a = Exists("quux", Eq(Var("quux"), Var("y")))
    assert substitute(a, {"y": n}).var == "%1"


def test_substitute_does_not_normalize_its_input_to_pick_its_path():
    # substitute takes its fast path when a is marked as its own normal form,
    # and reads that mark off the instance dict: reading the cached attribute
    # would compute, and keep, the normal form of an input that has none yet
    a = Exists("fresh_probe", And(Pred("p", (Var("fresh_probe"), Var("y"))), Eq(Var("y"), k)))
    assert "_normal" not in vars(a)
    out = substitute(a, {"y": n})
    assert "_normal" not in vars(a)
    assert out == Exists("%1", And(Pred("p", (Var("%1"), n)), Eq(n, k)))


def _action_sigmas(seed: int):
    """(assertion, sigma) for every action assertion of the builtins: the
    sigmas that simulating each one passes to substitute (receive patterns
    under the session's partial bindings among them), then seeded random
    ground images for a random subset of each assertion's free variables."""
    rng = random.Random(seed)
    pool = [A, B, n, k, Pair(n, A), Enc(Pair(A, n), k), App("sk", (A,))]
    calls = []

    def recording(a, sigma):
        calls.append((a, dict(sigma)))
        return substitute(a, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "substitute", recording)
        for name, make in BUILTINS.items():
            proto = make()
            simulate(proto, builtin_setup(name, proto), seed=seed)
            for role in proto.roles.values():
                for act in role.actions:
                    names = sorted(free_vars(act.assertion)) if act.assertion else ()
                    for _ in range(8 if names else 0):
                        some = rng.sample(names, rng.randint(0, len(names)))
                        calls.append((act.assertion, {v: rng.choice(pool) for v in some}))
    return calls


def test_ground_substitution_of_actions_is_rebind():
    """A parsed action assertion is its own normal form, so under images
    without variables substitute rebuilds it without rebind: the result
    must be rebind's very object, and its own normal form."""
    pairs = _action_sigmas(5)
    partial = failed = 0
    for a, sigma in pairs:
        assert normalize(a) is a
        try:
            want = rebind(a, sigma, numbered())
        except ValueError:  # a non-key image in an encryption's key slot
            with pytest.raises(ValueError):
                substitute(a, sigma)
            failed += 1
            continue
        got = substitute(a, sigma)
        assert got is want
        assert normalize(got) is got
        assert rebind(got, {}, numbered()) is got
        partial += bool(free_vars(got))
    assert len(pairs) > 300
    assert partial > 100 and failed > 0


def test_ground_substitution_lets_a_binder_hide_its_name():
    a = normalize(Exists("x", And(Eq(Var("x"), Var("y")), Pred("p", (Var("x"), Var("y"))))))
    assert substitute(a, {"%1": n}) is a
    got = substitute(a, {"%1": n, "y": k})
    assert got is rebind(a, {"%1": n, "y": k}, numbered())
    assert got is normalize(Exists("x", And(Eq(Var("x"), k), Pred("p", (Var("x"), k)))))


def test_an_image_with_a_variable_takes_the_general_path(monkeypatch):
    a = normalize(Exists("x", Eq(Var("x"), Pair(Var("y"), Var("z")))))
    ground = normalize(Exists("x", Eq(Var("x"), Pair(n, Pair(A, B)))))
    open_ = normalize(Exists("x", Eq(Var("x"), Pair(n, Pair(Var("w"), B)))))
    calls = []

    def counting(*args):
        calls.append(args)
        return rebind(*args)

    monkeypatch.setattr(assertions, "rebind", counting)
    assert substitute(a, {"y": n, "z": Pair(A, B)}) is ground
    assert not calls
    sigma = {"y": n, "z": Pair(Var("w"), B)}
    assert substitute(a, sigma) is open_
    assert calls[0][:2] == (a, sigma)


def test_shape_helpers():
    a = And(Eq(n, k), Says(A, Pred("p", (n,))))
    assert set(assertion_terms(a)) >= {n, k, A}
    doubled = map_terms(a, lambda t: Pair(t, t) if t == n else t)
    assert doubled.left.lhs == Pair(n, n)


def test_reveals_collects_equality_sides_and_predicate_args():
    a = Exists("x", And(Eq(Enc(n, k), Var("x")), Pred("p", (k,))))
    r = reveals(a)
    assert Enc(n, k) in r and k in r
    assert n not in r  # still under the encryption


def test_reveals_through_says_but_not_sent_terms():
    assert n in reveals(Says(A, Eq(n, n)))
    assert n in reveals(SentA(A, Pred("p", (n,))))
    assert reveals(SentT(A, n)) == frozenset()


def test_sorted_assertions_is_stable():
    xs = [Eq(n, k), Pred("p", (n,)), Says(A, Eq(n, n)), SentT(B, k),
          Or(Eq(n, n), Eq(k, k))]
    assert sorted_assertions(reversed(xs)) == sorted_assertions(xs)


def _rand_assertion(rng: random.Random, depth: int):
    leaves = [Eq(n, k), Eq(Var("x"), n), Pred("p", (Var("x"), k)),
              SentT(A, n), Eq(Var("y"), Var("x"))]
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    r = rng.random()
    if r < 0.3:
        return And(_rand_assertion(rng, depth - 1), _rand_assertion(rng, depth - 1))
    if r < 0.55:
        return Or(_rand_assertion(rng, depth - 1), _rand_assertion(rng, depth - 1))
    if r < 0.8:
        return Exists(rng.choice("xyz"), _rand_assertion(rng, depth - 1))
    return Says(A, _rand_assertion(rng, depth - 1))


def test_normalize_idempotent_property():
    rng = random.Random(31)
    for _ in range(200):
        a = _rand_assertion(rng, 3)
        na = normalize(a)
        assert normalize(na) == na


def test_substitute_ground_closes_property():
    rng = random.Random(32)
    for _ in range(200):
        a = _rand_assertion(rng, 3)
        sigma = {v: n for v in free_vars(a)}
        assert is_closed(substitute(a, sigma))


HANDLES = ("_h1", "_h2", "_h3")


def test_substitute_normalize_and_printing_agree_on_raw_templates():
    """Raw observer tests keep their qvN binders; substituting closed
    values commutes with normalizing, and the result prints and reparses
    to itself."""
    raw = substituted = 0
    for i, proto in enumerate((builtin_foo(), builtin_helios())):
        d = proto.decls
        decls = Declarations(agents=d.agents | {"I"}, nonces=set(d.nonces),
                             keys=set(d.keys), predicates=dict(d.predicates),
                             constructors=dict(d.constructors))
        templates = _TemplateGen(random.Random(61 + i), proto, len(HANDLES), 3)
        closed = _TemplateGen(random.Random(161 + i), proto, 0, 2)
        for _ in range(500):
            a = templates.assertion(3, [])
            raw += normalize(a) != a
            sigma = {h: closed.term(2, []) for h in HANDLES}
            try:
                s = substitute(a, sigma)
            except ValueError:  # a value that is no key landed in key position
                continue
            assert s == substitute(normalize(a), sigma) == normalize(s)
            assert parse_assertion(print_assertion(s), decls) == s
            substituted += 1
    assert raw > 200 and substituted > 500


def _generators(seed: int):
    """Per builtin protocol, an observer test generator over the handles
    and one that draws closed terms and assertions."""
    for i, proto in enumerate((builtin_foo(), builtin_helios())):
        yield (_TemplateGen(random.Random(seed + i), proto, len(HANDLES), 3),
               _TemplateGen(random.Random(seed + 100 + i), proto, 0, 2))


def match_read_canonical(pat, tgt, holes, binding, eq) -> list:
    """`match_canonical` of the `canonical` forms of pat and tgt, holes and
    binding named as in pat: a free bound name of pat is a hole when holes
    names it, and comes back under that name."""
    (p, wild), (t, _) = pat._canonical, tgt._canonical
    found = match_canonical(p, t, {wild.get(h, h) for h in holes if h in wild or h[:1] != "%"},
                            {wild.get(k, k): v for k, v in binding.items()}, eq)
    back = {w: n for n, w in wild.items()}
    return [{back.get(k, k): v for k, v in b.items()} for b in found]


def test_syntactic_match_recovers_the_substituted_values():
    checked = 0
    for templates, closed in _generators(41):
        for _ in range(300):
            pat = templates.next()
            values = {h: closed.term(2, []) for h in HANDLES}
            try:
                tgt = substitute(pat, values)
            except ValueError:  # a value that is no key landed in key position
                continue
            found = match_read_canonical(pat, tgt, HANDLES, {}, SYNTACTIC)
            assert found == [{h: values[h] for h in HANDLES if h in free_vars(pat)}]
            checked += 1
    assert checked >= 300


def test_a_free_bound_name_of_the_pattern_is_a_hole_by_its_own_name():
    # free %1 beside a binder %2 of its own: the binder lines up with the
    # target's %1, and the hole comes back under the name it was given
    pat = Exists("%2", Pred("p", (Var("%1"), Var("%2"))))
    tgt = normalize(Exists("y", Pred("p", (n, Var("y")))))
    assert match_read_canonical(pat, tgt, {"%1"}, {}, SYNTACTIC) == [{"%1": n}]
    assert match_read_canonical(pat, tgt, {"%1"}, {"%1": n}, SYNTACTIC) == [{"%1": n}]
    assert match_read_canonical(pat, tgt, {"%1"}, {"%1": k}, SYNTACTIC) == []
    # a hole named like a binder is no hole under it
    inner = Exists("%1", Pred("p", (Var("%1"), Var("%1"))))
    assert match_read_canonical(inner, inner, {"%1"}, {}, SYNTACTIC) == [{}]
    assert match_read_canonical(inner, normalize(Exists("y", Pred("p", (Var("y"), n)))),
                                {"%1"}, {}, SYNTACTIC) == []


def _fill(t, rng: random.Random, pool: list):
    """t with each occurrence of a handle replaced by its own draw from pool."""
    if isinstance(t, Var) and t.name in HANDLES:
        return rng.choice(pool)
    if isinstance(t, Pair):
        return Pair(_fill(t.left, rng, pool), _fill(t.right, rng, pool))
    if isinstance(t, Enc):
        return Enc(_fill(t.body, rng, pool), _fill(t.key, rng, pool))
    if isinstance(t, App):
        return App(t.ctor, tuple(_fill(x, rng, pool) for x in t.args))
    return t


def test_every_syntactic_match_instantiates_the_pattern_to_the_target():
    """Targets are unrelated closed assertions, or the pattern with every
    handle occurrence filled independently, so repeated handles may clash."""
    rng = random.Random(44)
    matched = missed = 0
    for templates, closed in _generators(43):
        for _ in range(500):
            pat = templates.next()
            pool = [closed.term(1, []), rng.choice(closed.keys)]
            try:
                filled = normalize(map_terms(pat, lambda t: _fill(t, rng, pool)))
            except ValueError:  # a value that is no key landed in key position
                filled = closed.next()
            for tgt in (closed.next(), filled):
                found = match_read_canonical(pat, tgt, HANDLES, {}, SYNTACTIC)
                for b in found:
                    assert substitute(pat, b) == tgt
                matched += len(found)
                missed += not found
    assert matched > 100 and missed > 100


def test_matching_modulo_classes_lands_in_the_target_class():
    a, c = Basic("a", "nonce"), Basic("c", "nonce")
    ctx = DeriveContext((), [Eq(a, Pair(n, k))])
    prover = _BranchProver(ctx.root, _Query(ctx))
    pat = Pair(Var("_h1"), Var("_h2"))
    assert match_term(pat, a, HANDLES, {}, prover) == [{"_h1": n, "_h2": k}]
    assert match_term(pat, a, HANDLES, {}, SYNTACTIC) == []
    matched = syntactic = 0
    for templates, closed in _generators(47):
        hyps = [Eq(a, closed.term(2, [])), Eq(c, closed.term(2, []))]
        ctx = DeriveContext((), hyps)
        prover = _BranchProver(ctx.root, _Query(ctx))
        targets = sorted({s for t in assertion_terms(And(*hyps)) for s in iter_subterms(t)},
                         key=repr)
        for _ in range(200):
            pat = templates.term(2, [])
            for tgt in targets:
                for b in match_term(pat, tgt, HANDLES, {}, prover):
                    assert prover.same(subst_term(pat, b), tgt)
                    matched += 1
                syntactic += len(match_term(pat, tgt, HANDLES, {}, SYNTACTIC))
    assert matched > syntactic


# ---------------------------------------------------------------------------
# the cached walkers against plain structural recursion


def _ref_terms(a) -> list:
    if isinstance(a, (And, Or)):
        return _ref_terms(a.left) + _ref_terms(a.right)
    if isinstance(a, Exists):
        return _ref_terms(a.body)
    if isinstance(a, (Says, SentA)):
        return [a.agent] + _ref_terms(a.body)
    if isinstance(a, SentT):
        return [a.agent, a.term]
    if isinstance(a, Eq):
        return [a.lhs, a.rhs]
    return list(a.args)


def _ref_names(terms, bound=frozenset()) -> set:
    return {s.name for t in terms for s in iter_subterms(t)
            if isinstance(s, Var) and s.name not in bound}


def _ref_free(a, bound=frozenset()) -> set:
    if isinstance(a, Exists):
        return _ref_free(a.body, bound | {a.var})
    if isinstance(a, (And, Or)):
        return _ref_free(a.left, bound) | _ref_free(a.right, bound)
    if isinstance(a, (Says, SentA)):
        return _ref_names([a.agent], bound) | _ref_free(a.body, bound)
    return _ref_names(_ref_terms(a), bound)


def _ref_subs(a) -> list:
    if isinstance(a, (And, Or)):
        return [a] + _ref_subs(a.left) + _ref_subs(a.right)
    if isinstance(a, (Exists, Says, SentA)):
        return [a] + _ref_subs(a.body)
    return [a]


def _shadowing(rng: random.Random, a):
    """a under a binder that reuses one of its free names, with that name
    free outside the binder too."""
    x = rng.choice(sorted(_ref_free(a)) or ["x"])
    inner = Exists(x, And(a, Says(Var(x), Eq(Var(x), Var("y")))))
    pick = rng.randrange(3)
    if pick == 0:
        return And(Pred("p", (Var(x),)), inner)
    if pick == 1:
        return Or(inner, SentA(Var(x), Exists(x, Eq(Var(x), n))))
    return Says(Var(x), Exists("y", inner))


def _walker_batch() -> list:
    """1000 assertions: raw foo and helios observer-test templates, each
    also under shadowing binders."""
    out = []
    for i, (gen, _) in enumerate(_generators(71)):
        rng = random.Random(171 + i)
        for _ in range(250):
            a = gen.assertion(3, [])
            out += [a, _shadowing(rng, a)]
    return out


def _check_walkers(a) -> None:
    for _ in range(2):  # the first call fills the caches, the second reads them
        terms = assertion_terms(a)
        assert type(terms) is tuple and list(terms) == _ref_terms(a), a
        assert assertion_vars(a) == _ref_names(_ref_terms(a)), a
        assert free_vars(a) == _ref_free(a), a
        assert subassertions(a) == tuple(_ref_subs(a)), a


def test_cached_walkers_equal_structural_recursion():
    batch = _walker_batch()
    assert len(batch) == 1000
    assert sum(free_vars(a) != assertion_vars(a) for a in batch) > 150
    for a in batch:
        _check_walkers(a)
    # dropped and collected, the shadowing assertions (which nothing else
    # builds) leave the table with their caches; rebuilt, each walker
    # computes its answer afresh
    refs = [weakref.ref(a) for a in batch[1::2]]
    del batch, a
    gc.collect()
    assert all(r() is None for r in refs)
    for a in _walker_batch():
        _check_walkers(a)
