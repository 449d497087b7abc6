"""The checker against its former version, proof by proof.

`oracles.replay_assertion_proof` is `checker.py` as it was before its rules
were grouped by family.  Honest proofs (the README leak, the golden
sequents, seeded leak and flat sequents, and the positive battery proofs of
a foo anonymity check) and seeded single-node mutations of each go through
both.  A mutation renames a rule to another of its family, swaps a
conclusion with another node's, drops a premise, replaces a witness or a
witness name, or swaps a term proof.  The two checkers must agree on every
verdict, except where the former one raised, accepted a reserved witness
name, or accepted a witness name that occurs in the existential it opens
(`test_checker_refusals`); the current one never raises.
"""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

import oracles
from protassert import DeriveContext, anonymity, checker, dy_derive, parse_sequent
from protassert.builtins import anonymity_foo_setup, builtin_foo
from protassert.dy import ProofNode, TermProof
from protassert.terms import Basic, Var
from test_candidates import _Flat, _leak_sequent
from test_golden_output import SEQUENTS
from test_weakening import LEAK

# rule families, of assertion proofs and of term proofs
FAMILIES = {
    ProofNode: [("ax", "and_e", "strip"), ("and_i", "or_i", "says"), ("or_e", "exists_e"),
                ("refl", "sym", "trans", "subst", "bot"),
                ("cong_pair", "cong_enc", "cong_app"), ("proj_pair", "proj_enc")],
    TermProof: [("ax", "var"), ("pair", "enc", "app"), ("split", "dec")],
}
RESERVED = "is a reserved name"
NOT_FRESH = "not fresh"  # the former checker let the opened existential mention the name


def _honest() -> list[tuple]:
    """(proof, X, Phi, goal) for every positive verdict of the corpus."""
    out = []

    def solve(X, Phi, goal, safe=False):
        v = DeriveContext(X, Phi, safe=safe).query(goal)
        if v.derivable:
            out.append((v.proof, X, Phi, goal))

    for text in (LEAK, *SEQUENTS.values()):
        seq = parse_sequent(text)
        for safe in (False, True):
            solve(seq.terms, seq.assertions, seq.goal, safe)
    rng = random.Random(601)
    for certs in (2, 3):
        for positive in (True, False):
            seq = parse_sequent(_leak_sequent(rng, certs, positive))
            solve(seq.terms, seq.assertions, seq.goal)
    flat = _Flat(random.Random(602))
    for _ in range(40):
        solve(*flat.sequent())

    real_query, real_battery = DeriveContext.query, anonymity.run_battery

    def recording(ctx, goal):
        v = real_query(ctx, goal)
        if v.derivable:
            out.append((v.proof, ctx.X, ctx.Phi, goal))
        return v

    def battery(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DeriveContext, "query", recording)
            return real_battery(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(anonymity, "run_battery", battery)
        foo = builtin_foo()
        anonymity.check_anonymity(foo, anonymity_foo_setup(foo, 2), seed=0)
    return out


def _sites(p, path=()):
    """Every node of a proof, term proofs included, with its path."""
    yield path, p
    for field in ("premises", "term_proofs"):
        for i, q in enumerate(getattr(p, field, ())):
            yield from _sites(q, path + ((field, i),))


def _put(p, path, new):
    """p with the node at path replaced by new."""
    if not path:
        return new
    (field, i), rest = path[0], path[1:]
    kids = list(getattr(p, field))
    kids[i] = _put(kids[i], rest, new)
    return replace(p, **{field: tuple(kids)})


def _mutants(proof, rng: random.Random, per_rule: int = 1):
    """Single-node changes of proof, made at per_rule sites of each rule."""
    sites = list(_sites(proof))
    nodes = [s for s in sites if isinstance(s[1], ProofNode)]
    terms = [s for s in sites if isinstance(s[1], TermProof)]
    witnesses = [p.witness for _, p in nodes if p.witness is not None]
    names = sorted({p.fresh for _, p in nodes if p.fresh} | {"%1", "%2", "_v"})

    def some(pool):
        by_rule: dict[str, list] = {}
        for site in pool:
            by_rule.setdefault(site[1].rule, []).append(site)
        return [site for rule in sorted(by_rule)
                for site in rng.sample(by_rule[rule], min(per_rule, len(by_rule[rule])))]

    for path, p in some(sites):
        for family in FAMILIES[type(p)]:
            for rule in family if p.rule in family else ():
                if rule != p.rule:
                    yield _put(proof, path, replace(p, rule=rule))
    for kind in (nodes, terms):
        for path, p in some(kind):
            other = rng.choice(kind)[1]
            if other.concl != p.concl:
                yield _put(proof, path, replace(p, concl=other.concl))
    for path, p in some([s for s in sites if s[1].premises]):
        i = rng.randrange(len(p.premises))
        yield _put(proof, path, replace(p, premises=p.premises[:i] + p.premises[i + 1:]))
    for path, p in some([s for s in nodes if s[1].witness is not None]):
        pool = [w for w in witnesses if w != p.witness] + [Var("_v"), Basic("n", "nonce")]
        yield _put(proof, path, replace(p, witness=rng.choice(pool)))
    for path, p in some([s for s in nodes if s[1].fresh is not None]):
        yield _put(proof, path, replace(p, fresh=rng.choice([x for x in names if x != p.fresh])))
    for path, p in some([s for s in nodes if s[1].term_proofs]):
        i = rng.randrange(len(p.term_proofs))
        pool = [tp for _, tp in terms if tp.concl != p.term_proofs[i].concl]
        if pool:
            swapped = p.term_proofs[:i] + (rng.choice(pool),) + p.term_proofs[i + 1:]
            yield _put(proof, path, replace(p, term_proofs=swapped))


def _honest_terms() -> list[tuple]:
    """(proof, X) for derivable random term instances: assertion proofs
    embed only ax, var, split and dec term proofs."""
    rng = random.Random(1000)
    out = []
    while len(out) < 150:
        X, t = oracles.random_instance(rng)
        v = dy_derive(X, t)
        if v.derivable:
            out.append((v.proof, X))
    return out


def _agree(name: str, *args) -> bool:
    """The current checker's verdict (replay function `name`) on args,
    checked against the former checker's."""
    ok, err = getattr(checker, name)(*args)
    try:
        was_ok = getattr(oracles, name)(*args)[0]
    except ValueError:
        assert not ok, "a proof the former checker raised on was accepted"
        return ok
    assert ok == was_ok or (was_ok and (RESERVED in err or err.endswith(NOT_FRESH))), \
        (was_ok, err)
    return ok


def test_the_checker_agrees_with_its_former_version():
    cases = [("replay_assertion_proof", proof, rest) for proof, *rest in _honest()]
    assert len(cases) > 100
    cases += [("replay_term_proof", proof, rest) for proof, *rest in _honest_terms()]
    rng = random.Random(2005)
    verdicts = {True: 0, False: 0}
    rules = set()
    for name, proof, rest in cases:
        assert _agree(name, proof, *rest)
        rules |= {p.rule for _, p in _sites(proof)}
        for mutant in _mutants(proof, rng):
            verdicts[_agree(name, mutant, *rest)] += 1
    assert {"cong_pair", "cong_enc", "cong_app", "proj_pair", "proj_enc", "subst",
            "exists_e", "or_e", "says", "bot", "pair", "enc", "app", "dec"} <= rules
    assert verdicts[False] > 1000 and verdicts[True] > 10
