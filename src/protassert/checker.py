"""Independent replay of term and assertion proofs.

Walks a proof tree and checks every node against its rule schema, threading
the hypothesis context through case analyses and witness eliminations.  It
shares no search state with the engine and imports nothing from it: the
proof formats (`dy.TermProof`, `dy.ProofNode`) and the table of each
constructor's rule names (`dy.RULES`) live beside the term attacker.  Side
conditions on derivability are discharged by replaying the embedded term
proofs against X.

One case per rule family, each over the shared shape walk (`terms.children`
and `same_head`, `assertions.parts`):

* term proofs: ax (a member of X), var, composition (pair, enc, app: the
  premises conclude the children of a conclusion built by the constructor
  the rule names, never a key constructor), split, dec (the second premise
  is the inverse key);
* connectives: ax (a hypothesis in scope), and_i, and_e, or_i, strip (a
  says body), says (the signing key derivable);
* elimination under an assumption: or_e, whose cases each add a disjunct,
  and exists_e, which adds the existential opened over its witness name.
  That name must be fresh (in neither X, a hypothesis in scope, the
  existential opened nor the conclusion) and must not be a reserved bound
  name %n, which the opening substitution would capture;
* exists_i: the witness mentions no reserved bound name and fits every
  slot of the body it fills;
* equality: refl (a derivable basic or variable), sym, trans, cong_pair,
  cong_enc and cong_app (the children equal pairwise), proj_pair and
  proj_enc (a component equality; proj_enc also needs both inverse keys
  derived), subst (a rewrite by an equality, capture respected) and bot (a
  clash of distinct basics).

A malformed proof is refused with a reason, never with an exception.
"""
from __future__ import annotations

from functools import lru_cache

from .assertions import (
    And,
    Assertion,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    assertion_vars,
    normalize,
    opened,
    parts,
    subassertions,
    substitute,
)
from .dy import RULES, ProofNode, TermProof
from .terms import (
    App,
    Basic,
    Enc,
    KEY_CONSTRUCTORS,
    KEYS,
    Pair,
    Term,
    Var,
    children,
    has_bound_name,
    same_head,
    term_vars,
)


class CheckError(Exception):
    pass


STATS = {"term": 0, "assertion": 0}

_COMPOSITION = frozenset(RULES.values())
_CONGRUENCE = frozenset("cong_" + r for r in RULES.values())


# ---------------------------------------------------------------------------
# term proofs

def replay_term_proof(p: TermProof, X) -> tuple[bool, str | None]:
    try:
        _check_term(p, frozenset(X))
    except CheckError as e:
        return False, str(e)
    STATS["term"] += 1
    return True, None


def _check_term(p: TermProof, X: frozenset[Term]) -> None:
    for q in p.premises:
        _check_term(q, X)
    rule, c, prems = p.rule, p.concl, p.premises
    if rule == "ax":
        if c not in X:
            raise CheckError(f"ax: {c!r} not in X")
    elif rule == "var":
        _expect(isinstance(c, Var), "var: conclusion not a variable")
    elif rule in _COMPOSITION:
        if RULES.get(type(c)) != rule or (isinstance(c, App) and c.ctor in KEY_CONSTRUCTORS):
            raise CheckError(f"{rule}: bad constructor")
        if tuple(q.concl for q in prems) != children(c):
            raise CheckError(f"{rule}: argument mismatch")
    elif rule == "split":
        _expect(len(prems) == 1 and isinstance(prems[0].concl, Pair),
                "split: premise not a pair")
        _expect(c in children(prems[0].concl), "split: conclusion not a component")
    elif rule == "dec":
        _expect(len(prems) == 2 and isinstance(prems[0].concl, Enc),
                "dec: first premise not an encryption")
        enc = prems[0].concl
        _expect(prems[1].concl == KEYS.inverse(enc.key),
                "dec: second premise is not the inverse key")
        _expect(c == enc.body, "dec: conclusion not the body")
    else:
        raise CheckError(f"unknown term rule {rule}")


# ---------------------------------------------------------------------------
# assertion proofs

def replay_assertion_proof(root: ProofNode, X, Phi,
                           goal: Assertion | None = None) -> tuple[bool, str | None]:
    try:
        Xf = frozenset(X)
        ctx = frozenset(normalize(a) for a in Phi)
        names = frozenset().union(*map(_all_var_names, ctx), *map(term_vars, Xf))
        _check(root, ctx, Xf, names)
        if goal is not None and root.concl != normalize(goal):
            raise CheckError("root conclusion is not the goal")
    except CheckError as e:
        return False, str(e)
    STATS["assertion"] += 1
    return True, None


@lru_cache(maxsize=4096)
def _all_var_names(a: Assertion) -> frozenset[str]:
    """The variables in a's terms and the names of its binders."""
    return assertion_vars(a) | {s.var for s in subassertions(a) if isinstance(s, Exists)}


def _term_proof(node: ProofNode, idx: int, X: frozenset[Term]) -> Term:
    if len(node.term_proofs) <= idx:
        raise CheckError(f"{node.rule}: missing term proof")
    tp = node.term_proofs[idx]
    ok, err = replay_term_proof(tp, X)
    if not ok:
        raise CheckError(f"{node.rule}: side condition failed: {err}")
    return tp.concl


def _rewrites_to(a: Assertion, b: Assertion, t: Term, t2: Term) -> bool:
    """b is a with some occurrences of t replaced by t2 (capture respected)."""
    moved = term_vars(t) | term_vars(t2)

    def ok_term(x: Term, y: Term) -> bool:
        if x == y or (x == t and y == t2):
            return True
        return same_head(x, y) and all(map(ok_term, children(x), children(y)))

    def ok(x: Assertion, y: Assertion) -> bool:
        if x == y:
            return True
        if type(x) is not type(y):
            return False
        # x != y, so under one binder the bodies differ: no rewrite may
        # move a variable that the binder would capture
        if isinstance(x, Exists) and (x.var != y.var or x.var in moved):
            return False
        if isinstance(x, Pred) and x.name != y.name:
            return False
        (xt, xs), (yt, ys) = parts(x), parts(y)
        return (len(xt) == len(yt) and all(map(ok_term, xt, yt))
                and all(map(ok, xs, ys)))

    return ok(a, b)


def _check(node: ProofNode, ctx: frozenset[Assertion], X: frozenset[Term],
           names: frozenset[str]) -> None:
    """Check node under the hypotheses ctx; names: the variables of X and ctx."""
    rule, c, prems = node.rule, node.concl, node.premises

    if rule == "ax":
        if c not in ctx:
            raise CheckError(f"ax: hypothesis not in context: {c!r}")
        return

    if rule == "refl":
        _expect(isinstance(c, Eq) and c.lhs == c.rhs, "refl: shape")
        _expect(isinstance(c.lhs, (Basic, Var)), "refl: subject not basic")
        _expect(_term_proof(node, 0, X) == c.lhs, "refl: side condition subject mismatch")
        return

    if rule in ("or_e", "exists_e"):
        # each later premise proves c under one more hypothesis: a disjunct
        # of the first premise, or its existential opened over the witness
        _expect(len(prems) == (3 if rule == "or_e" else 2), f"{rule}: arity")
        _check(prems[0], ctx, X, names)
        d = prems[0].concl
        if rule == "or_e":
            _expect(isinstance(d, Or), "or_e: premise not a disjunction")
            cases = (d.left, d.right)
        else:
            y = node.fresh
            _expect(isinstance(y, str), "exists_e: missing witness name")
            _expect(isinstance(d, Exists), "exists_e: premise not existential")
            if y.startswith("%"):
                raise CheckError(f"exists_e: witness variable {y} is a reserved name")
            if y in names or y in _all_var_names(c) or y in _all_var_names(d):
                raise CheckError(f"exists_e: witness variable {y} not fresh")
            cases = (opened(d, Var(y)),)
        for prem, hyp in zip(prems[1:], cases):
            _check(prem, ctx | {hyp}, X, names | _all_var_names(hyp))
            _expect(prem.concl == c, f"{rule}: conclusion mismatch")
        return

    for p in prems:
        _check(p, ctx, X, names)
    ps = tuple(p.concl for p in prems)
    one = ps[0] if len(ps) == 1 else None

    if rule == "and_e":
        _expect(isinstance(one, And) and c in (one.left, one.right), "and_e: shape")
    elif rule == "strip":
        _expect(isinstance(one, Says) and c == one.body, "strip: shape")
    elif rule == "and_i":
        _expect(isinstance(c, And) and ps == (c.left, c.right), "and_i: components")
    elif rule == "or_i":
        _expect(isinstance(c, Or) and one in (c.left, c.right), "or_i: component")
    elif rule == "says":
        _expect(isinstance(c, Says) and ps == (c.body,), "says: body mismatch")
        _expect(_term_proof(node, 0, X) == App("sk", (c.agent,)),
                "says: signing key not derived")
    elif rule == "exists_i":
        w = node.witness
        _expect(one is not None and isinstance(c, Exists) and isinstance(w, Term),
                "exists_i: shape")
        _expect(not has_bound_name(w), "exists_i: open witness")
        try:
            inst = substitute(c.body, {c.var: w})
        except ValueError:  # w lands in a key slot but is no key material
            raise CheckError("exists_i: witness not allowed in a key slot") from None
        _expect(one == inst, "exists_i: instance mismatch")
    elif rule == "subst":
        _expect(len(ps) == 2 and isinstance(ps[1], Eq),
                "subst: second premise not an equality")
        _expect(_rewrites_to(ps[0], c, ps[1].lhs, ps[1].rhs),
                "subst: conclusion is not a rewrite of the premise")
    elif rule == "sym":
        _expect(isinstance(c, Eq) and isinstance(one, Eq)
                and c.lhs == one.rhs and c.rhs == one.lhs, "sym: flip")
    elif rule == "trans":
        _expect(len(ps) == 2 and isinstance(c, Eq) and isinstance(ps[0], Eq)
                and isinstance(ps[1], Eq) and ps[0].rhs == ps[1].lhs
                and c.lhs == ps[0].lhs and c.rhs == ps[1].rhs, "trans: chain")
    elif rule in _CONGRUENCE:
        _expect(isinstance(c, Eq) and same_head(c.lhs, c.rhs)
                and rule == "cong_" + RULES[type(c.lhs)], f"{rule}: shape")
        _expect(ps == tuple(map(Eq, children(c.lhs), children(c.rhs))),
                f"{rule}: components")
    elif rule in ("proj_pair", "proj_enc"):
        _expect(isinstance(c, Eq) and isinstance(one, Eq) and same_head(one.lhs, one.rhs)
                and rule == "proj_" + RULES[type(one.lhs)], f"{rule}: premise shape")
        _expect(c in tuple(map(Eq, children(one.lhs), children(one.rhs))),
                f"{rule}: not a component equality")
        if rule == "proj_enc":
            k1 = _term_proof(node, 0, X)
            k2 = _term_proof(node, 1, X)
            _expect(k1 == KEYS.inverse(one.lhs.key) and k2 == KEYS.inverse(one.rhs.key),
                    "proj_enc: inverse keys not derived")
    elif rule == "bot":
        _expect(isinstance(one, Eq) and isinstance(one.lhs, Basic)
                and isinstance(one.rhs, Basic) and one.lhs != one.rhs,
                "bot: premise is not a clash of distinct basics")
    else:
        raise CheckError(f"unknown rule {rule}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)
