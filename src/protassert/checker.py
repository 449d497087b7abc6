"""Independent replay of term and assertion proofs.

Walks a proof tree and checks every node against its rule schema, threading
the hypothesis context through case analyses and witness eliminations.  Shares
no search state with the engine; side conditions on derivability are
discharged by replaying the embedded term proofs against X.
"""
from __future__ import annotations

from .assertions import (
    And,
    Assertion,
    Eq,
    Exists,
    Or,
    Pred,
    Says,
    SentA,
    SentT,
    normalize,
    substitute,
)
from .dy import TermProof
from .engine import ProofNode
from .terms import (
    App,
    Basic,
    Enc,
    KEY_CONSTRUCTORS,
    KEYS,
    Pair,
    Term,
    Var,
    iter_subterms,
)


class CheckError(Exception):
    pass


STATS = {"term": 0, "assertion": 0}


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
    c = p.concl
    if p.rule == "ax":
        if c not in X:
            raise CheckError(f"ax: {c!r} not in X")
    elif p.rule == "var":
        if not isinstance(c, Var):
            raise CheckError("var: conclusion not a variable")
    elif p.rule == "pair":
        if len(p.premises) != 2 or c != Pair(p.premises[0].concl, p.premises[1].concl):
            raise CheckError("pair: conclusion shape mismatch")
    elif p.rule == "enc":
        if len(p.premises) != 2 or c != Enc(p.premises[0].concl, p.premises[1].concl):
            raise CheckError("enc: conclusion shape mismatch")
    elif p.rule == "app":
        if not isinstance(c, App) or c.ctor in KEY_CONSTRUCTORS:
            raise CheckError("app: bad constructor")
        if tuple(q.concl for q in p.premises) != c.args:
            raise CheckError("app: argument mismatch")
    elif p.rule == "split":
        if len(p.premises) != 1 or not isinstance(p.premises[0].concl, Pair):
            raise CheckError("split: premise not a pair")
        pr = p.premises[0].concl
        if c not in (pr.left, pr.right):
            raise CheckError("split: conclusion not a component")
    elif p.rule == "dec":
        if len(p.premises) != 2 or not isinstance(p.premises[0].concl, Enc):
            raise CheckError("dec: first premise not an encryption")
        enc = p.premises[0].concl
        if p.premises[1].concl != KEYS.inverse(enc.key):
            raise CheckError("dec: second premise is not the inverse key")
        if c != enc.body:
            raise CheckError("dec: conclusion not the body")
    else:
        raise CheckError(f"unknown term rule {p.rule}")


# ---------------------------------------------------------------------------
# assertion proofs

def replay_assertion_proof(root: ProofNode, X, Phi,
                           goal: Assertion | None = None) -> tuple[bool, str | None]:
    try:
        Xf = frozenset(X)
        ctx = frozenset(normalize(a) for a in Phi)
        _check(root, ctx, Xf)
        if goal is not None and root.concl != normalize(goal):
            raise CheckError("root conclusion is not the goal")
    except CheckError as e:
        return False, str(e)
    STATS["assertion"] += 1
    return True, None


def _all_var_names(a: Assertion) -> set[str]:
    out: set[str] = set()

    def terms_of(a: Assertion) -> list[Term]:
        if isinstance(a, (And, Or)):
            return terms_of(a.left) + terms_of(a.right)
        if isinstance(a, Exists):
            return terms_of(a.body) + [Var(a.var)]
        if isinstance(a, (Says, SentA)):
            return [a.agent] + terms_of(a.body)
        if isinstance(a, SentT):
            return [a.agent, a.term]
        if isinstance(a, Eq):
            return [a.lhs, a.rhs]
        return list(a.args)

    for t in terms_of(a):
        for s in iter_subterms(t):
            if isinstance(s, Var):
                out.add(s.name)
    return out


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
    moved = {v.name for v in iter_subterms(t) if isinstance(v, Var)}
    moved |= {v.name for v in iter_subterms(t2) if isinstance(v, Var)}

    def ok_term(x: Term, y: Term) -> bool:
        if x == y:
            return True
        if x == t and y == t2:
            return True
        if type(x) is not type(y):
            return False
        if isinstance(x, Pair):
            return ok_term(x.left, y.left) and ok_term(x.right, y.right)
        if isinstance(x, Enc):
            return ok_term(x.body, y.body) and ok_term(x.key, y.key)
        if isinstance(x, App):
            return (x.ctor == y.ctor and len(x.args) == len(y.args)
                    and all(ok_term(p, q) for p, q in zip(x.args, y.args)))
        return False

    def ok(x: Assertion, y: Assertion) -> bool:
        if x == y:
            return True
        if type(x) is not type(y):
            return False
        if isinstance(x, (And, Or)):
            return ok(x.left, y.left) and ok(x.right, y.right)
        if isinstance(x, Exists):
            if x.var != y.var:
                return False
            if x.var in moved and x.body != y.body:
                return False
            return ok(x.body, y.body)
        if isinstance(x, (Says, SentA)):
            return ok_term(x.agent, y.agent) and ok(x.body, y.body)
        if isinstance(x, SentT):
            return ok_term(x.agent, y.agent) and ok_term(x.term, y.term)
        if isinstance(x, Eq):
            return ok_term(x.lhs, y.lhs) and ok_term(x.rhs, y.rhs)
        if isinstance(x, Pred):
            return (x.name == y.name and len(x.args) == len(y.args)
                    and all(ok_term(p, q) for p, q in zip(x.args, y.args)))
        return False

    return ok(a, b)


def _check(node: ProofNode, ctx: frozenset[Assertion], X: frozenset[Term]) -> None:
    rule, c, prems = node.rule, node.concl, node.premises

    if rule == "ax":
        if c not in ctx:
            raise CheckError(f"ax: hypothesis not in context: {c!r}")
        return

    if rule == "and_e":
        _expect(len(prems) == 1, "and_e: arity")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, And) and c in (p.left, p.right), "and_e: shape")
        return

    if rule == "strip":
        _expect(len(prems) == 1, "strip: arity")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, Says) and c == p.body, "strip: shape")
        return

    if rule == "and_i":
        _expect(len(prems) == 2 and isinstance(c, And), "and_i: shape")
        _check(prems[0], ctx, X)
        _check(prems[1], ctx, X)
        _expect(prems[0].concl == c.left and prems[1].concl == c.right,
                "and_i: components")
        return

    if rule == "or_i":
        _expect(len(prems) == 1 and isinstance(c, Or), "or_i: shape")
        _check(prems[0], ctx, X)
        _expect(prems[0].concl in (c.left, c.right), "or_i: component")
        return

    if rule == "or_e":
        _expect(len(prems) == 3, "or_e: arity")
        _check(prems[0], ctx, X)
        d = prems[0].concl
        _expect(isinstance(d, Or), "or_e: premise not a disjunction")
        _check(prems[1], ctx | {d.left}, X)
        _check(prems[2], ctx | {d.right}, X)
        _expect(prems[1].concl == c and prems[2].concl == c, "or_e: conclusions")
        return

    if rule == "exists_i":
        _expect(len(prems) == 1 and isinstance(c, Exists), "exists_i: shape")
        _expect(node.witness is not None, "exists_i: missing witness")
        w = node.witness
        _expect(not any(isinstance(s, Var) and s.name.startswith("%")
                        for s in iter_subterms(w)), "exists_i: open witness")
        _check(prems[0], ctx, X)
        _expect(prems[0].concl == substitute(c.body, {c.var: w}),
                "exists_i: instance mismatch")
        return

    if rule == "exists_e":
        _expect(len(prems) == 2 and node.fresh is not None, "exists_e: shape")
        _check(prems[0], ctx, X)
        ex = prems[0].concl
        _expect(isinstance(ex, Exists), "exists_e: premise not existential")
        y = node.fresh
        used: set[str] = set()
        for t in X:
            for s in iter_subterms(t):
                if isinstance(s, Var):
                    used.add(s.name)
        for a in ctx:
            used |= _all_var_names(a)
        used |= _all_var_names(c)
        _expect(y not in used, f"exists_e: witness variable {y} not fresh")
        inst = substitute(ex.body, {ex.var: Var(y)})
        _check(prems[1], ctx | {inst}, X)
        _expect(prems[1].concl == c, "exists_e: conclusion mismatch")
        return

    if rule == "subst":
        _expect(len(prems) == 2, "subst: arity")
        _check(prems[0], ctx, X)
        _check(prems[1], ctx, X)
        eq = prems[1].concl
        _expect(isinstance(eq, Eq), "subst: second premise not an equality")
        _expect(_rewrites_to(prems[0].concl, c, eq.lhs, eq.rhs),
                "subst: conclusion is not a rewrite of the premise")
        return

    if rule == "refl":
        _expect(isinstance(c, Eq) and c.lhs == c.rhs, "refl: shape")
        _expect(isinstance(c.lhs, (Basic, Var)), "refl: subject not basic")
        t = _term_proof(node, 0, X)
        _expect(t == c.lhs, "refl: side condition subject mismatch")
        return

    if rule == "sym":
        _expect(len(prems) == 1 and isinstance(c, Eq), "sym: shape")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, Eq) and c == Eq(p.rhs, p.lhs), "sym: flip")
        return

    if rule == "trans":
        _expect(len(prems) == 2 and isinstance(c, Eq), "trans: shape")
        _check(prems[0], ctx, X)
        _check(prems[1], ctx, X)
        p, q = prems[0].concl, prems[1].concl
        _expect(isinstance(p, Eq) and isinstance(q, Eq) and p.rhs == q.lhs
                and c == Eq(p.lhs, q.rhs), "trans: chain")
        return

    if rule == "cong_pair":
        _expect(len(prems) == 2 and isinstance(c, Eq)
                and isinstance(c.lhs, Pair) and isinstance(c.rhs, Pair),
                "cong_pair: shape")
        _check(prems[0], ctx, X)
        _check(prems[1], ctx, X)
        _expect(prems[0].concl == Eq(c.lhs.left, c.rhs.left)
                and prems[1].concl == Eq(c.lhs.right, c.rhs.right),
                "cong_pair: components")
        return

    if rule == "cong_enc":
        _expect(len(prems) == 2 and isinstance(c, Eq)
                and isinstance(c.lhs, Enc) and isinstance(c.rhs, Enc),
                "cong_enc: shape")
        _check(prems[0], ctx, X)
        _check(prems[1], ctx, X)
        _expect(prems[0].concl == Eq(c.lhs.body, c.rhs.body)
                and prems[1].concl == Eq(c.lhs.key, c.rhs.key),
                "cong_enc: components")
        return

    if rule == "cong_app":
        _expect(isinstance(c, Eq) and isinstance(c.lhs, App)
                and isinstance(c.rhs, App) and c.lhs.ctor == c.rhs.ctor
                and len(c.lhs.args) == len(c.rhs.args) == len(prems),
                "cong_app: shape")
        for i, p in enumerate(prems):
            _check(p, ctx, X)
            _expect(p.concl == Eq(c.lhs.args[i], c.rhs.args[i]),
                    "cong_app: components")
        return

    if rule == "proj_pair":
        _expect(len(prems) == 1 and isinstance(c, Eq), "proj_pair: shape")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, Eq) and isinstance(p.lhs, Pair)
                and isinstance(p.rhs, Pair), "proj_pair: premise shape")
        _expect(c in (Eq(p.lhs.left, p.rhs.left), Eq(p.lhs.right, p.rhs.right)),
                "proj_pair: not a component equality")
        return

    if rule == "proj_enc":
        _expect(len(prems) == 1 and isinstance(c, Eq), "proj_enc: shape")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, Eq) and isinstance(p.lhs, Enc)
                and isinstance(p.rhs, Enc), "proj_enc: premise shape")
        _expect(c in (Eq(p.lhs.body, p.rhs.body), Eq(p.lhs.key, p.rhs.key)),
                "proj_enc: not a component equality")
        k1 = _term_proof(node, 0, X)
        k2 = _term_proof(node, 1, X)
        _expect(k1 == KEYS.inverse(p.lhs.key) and k2 == KEYS.inverse(p.rhs.key),
                "proj_enc: inverse keys not derived")
        return

    if rule == "bot":
        _expect(len(prems) == 1, "bot: arity")
        _check(prems[0], ctx, X)
        p = prems[0].concl
        _expect(isinstance(p, Eq) and isinstance(p.lhs, Basic)
                and isinstance(p.rhs, Basic) and p.lhs != p.rhs,
                "bot: premise is not a clash of distinct basics")
        return

    if rule == "says":
        _expect(len(prems) == 1 and isinstance(c, Says), "says: shape")
        _check(prems[0], ctx, X)
        _expect(prems[0].concl == c.body, "says: body mismatch")
        k = _term_proof(node, 0, X)
        _expect(k == App("sk", (c.agent,)), "says: signing key not derived")
        return

    raise CheckError(f"unknown rule {rule}")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)
