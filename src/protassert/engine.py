"""Derivation engine for assertion sequents X, Phi |- alpha.

Search strategy is fixed:
  1. witness closure: every reachable existential hypothesis contributes an
     instance over a globally fresh witness variable;
  2. hypothesis flattening: conjunctions split, says bodies stripped
     (originals kept for membership);
  3. case split on demand: steps 1 and 2 run in queue order up to the first
     reachable disjunction.  A query tries the goal on that branch first and
     splits the disjunction only when that fails, then solves both sides
     and joins them by or-elimination (splitting on demand, as in DPLL(T)).
     A query owns its splits, their count against branch_cap and the
     witness names below the root, so no query sees another's (per-query
     scopes over a fixed root, as in incremental SMT solvers);
  4. congruence closure over the term universe, seeded by equality
     hypotheses, closed under pair/enc/constructor congruence, pair
     projection, and enc projection guarded by derivability of both inverse
     keys; every merge is justified by a proof-forest edge.  A context has
     one closure, undone along a trail of its writes: a branch adds its
     hypotheses at its parent's mark, and a query undoes to the root's when
     it ends (a backtrackable theory solver, as in DPLL(T)).  A branch adds
     to it, and builds its hypothesis index, when a goal first needs them,
     which a hypothesis goal never does (theory work on demand, likewise).
     A branch with no equation hypothesis has one term per class: its
     equality (`same`, `members`) answers by identity, and it adds to the
     closure only when a goal reads the term universe.  The root's closure
     starts from a copy of X's classes, registered once per DYContext, and
     is built unlogged;
  5. goal decomposition modulo the classes; an existential goal takes its
     witness candidates from E-matching its subassertions against the
     hypotheses and classes (`assertions.match_assertion` with the branch
     as the equality), drawn on demand in a fixed order: matching stops at
     the first witness whose instance is proved, and a cut of the
     candidates counts only when the search draws past it.  Each node
     indexes its hypotheses by connective, or predicate name and arity, so
     a goal or pattern meets only its own kind (the top-symbol index of de
     Moura & Bjorner, CADE 2007).  An equation pattern walks the class of
     its other side once, not once per member, since the matcher reaches
     the whole class from any member; and an equation hypothesis inside
     that class, the classes unchanged since the walk, is skipped, since
     matching it repeats the walk.  Both leave the candidates as they would
     be without them (`_ematch_sub`).  A goal that differs from a
     hypothesis only by terms equal in the classes is proved by a chain of
     subst steps, whose positions the rewrite matcher finds with the shared
     shape walk (`assertions.parts`, `terms.children`).

A branch holding two distinct basics in one class is inconsistent and proves
anything.  The safe mode disables steps 1 and 3 (the rules unsound for
composition); introduction rules stay available.

Positive verdicts carry a full proof tree over the rule schemas; negative
verdicts say whether a search budget was hit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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
    assertion_terms,
    assertion_vars,
    match_assertion,
    match_term,
    normalize,
    opened,
    parts,
    rebuilt,
    sorted_assertions,
    subassertions,
    substitute,
)
from .dy import RULES, DYContext, ProofNode
from .terms import (
    App,
    Basic,
    Enc,
    Pair,
    Term,
    Var,
    children,
    has_bound_name,
    iter_subterms,
    rebuild,
    same_head,
    sorted_terms,
    term_key,
    term_vars,
)

# When set, every positive verdict produced by derive(), derive_safe() or
# DeriveContext.query() is replayed through the independent checker before
# being returned.
REPLAY_CHECK = False


@dataclass(frozen=True)
class SearchBudget:
    witness_depth: int = 2
    branch_cap: int = 4096
    merge_cap: int = 100_000
    node_cap: int = 200_000
    candidate_cap: int = 128


DEFAULT_BUDGET = SearchBudget()


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class Verdict:
    derivable: bool
    proof: ProofNode | None = None
    budget_exhausted: bool = False

    def __bool__(self) -> bool:
        return self.derivable


# ---------------------------------------------------------------------------
# congruence closure with proof forest

_ABSENT = object()  # the old value of a key a logged write adds


@dataclass(frozen=True)
class _Edge:
    stamp: int
    kind: str  # hyp | cong | proj_pair | proj_enc
    a: Term
    b: Term
    data: tuple = ()


class EqClasses:
    """Union-find over a term universe with congruence and projection, every
    union justified by an edge in a proof forest.  Each write to a field is
    logged on ``trail`` as (dict, key, old value) for `undo`; lists and sets
    are replaced, never changed in place, so a logged old value stays."""

    def __init__(self, dyctx: DYContext, merge_cap: int = 10**6):
        self.dyctx = dyctx
        self.merge_cap = merge_cap
        self.logging = True  # whether writes go on the trail; not while a root is built
        self.parent: dict[Term, Term] = {}
        self.members: dict[Term, list[Term]] = {}
        self.pair: dict[Term, Pair] = {}  # a Pair member, for roots with one
        self.genc: dict[Term, Enc] = {}  # a guarded Enc member, for roots with one
        self.parents_of: dict[Term, set[Term]] = {}  # composites with a child in root
        self.sig_of: dict[Term, tuple] = {}
        self.sig_table: dict[tuple, Term] = {}
        self.forest: dict[Term, tuple[Term, _Edge]] = {}
        self.trail: list[tuple[dict, object, object]] = []
        self._pending: deque[tuple[Term, Term, str, tuple]] = deque()

    # -- the trail

    def _set(self, d: dict, key, value) -> None:
        if self.logging:
            self.trail.append((d, key, d.get(key, _ABSENT)))
        d[key] = value

    def _pop(self, d: dict, key):  # d.pop(key, None), logged; no value is None
        old = d.pop(key, None)
        if old is not None and self.logging:
            self.trail.append((d, key, old))
        return old

    def undo(self, mark: int) -> None:
        """Take back every write past trail length mark, newest first, and
        drop the unions still pending (a union over merge_cap leaves some)."""
        trail = self.trail
        while len(trail) > mark:
            d, key, old = trail.pop()
            if old is _ABSENT:
                del d[key]
            else:
                d[key] = old
        self._pending.clear()

    def copy(self, merge_cap: int) -> EqClasses:
        """The same classes in dicts of their own, with an empty trail and
        no logging; made without __init__.  The lists and sets the dicts
        share are never changed in place, so no write reaches the other."""
        new = EqClasses.__new__(EqClasses)
        new.__dict__ = {k: dict(v) if isinstance(v, dict) else v for k, v in vars(self).items()}
        new.merge_cap, new.logging, new.trail, new._pending = merge_cap, False, [], deque()
        return new

    # -- basic structure

    @property
    def stamp(self) -> int:  # the unions made: each adds a forest edge, rerooting none
        return len(self.forest)

    def __contains__(self, t: Term) -> bool:
        return t in self.parent

    def find(self, t: Term) -> Term:
        # every union relinks each member it moves, so a parent is a root
        return self.parent[t]

    def same(self, a: Term, b: Term) -> bool:
        return self.find(a) == self.find(b)

    # Inline switch, not children(): every add_term and union runs it.
    def _signature(self, t: Term):
        if isinstance(t, Pair):
            return ("p", self.find(t.left), self.find(t.right))
        if isinstance(t, Enc):
            return ("e", self.find(t.body), self.find(t.key))
        if isinstance(t, App):
            return ("a", t.ctor, tuple(self.find(a) for a in t.args))
        return None

    def add_term(self, t: Term) -> None:
        if t in self.parent:
            return
        for c in children(t):
            self.add_term(c)
        self._set(self.parent, t, t)
        self._set(self.members, t, [t])
        if isinstance(t, Pair):
            self._set(self.pair, t, t)
        elif isinstance(t, Enc) and self._guarded(t):
            self._set(self.genc, t, t)
        self._set(self.parents_of, t, set())
        for c in children(t):
            root = self.find(c)
            self._set(self.parents_of, root, self.parents_of[root] | {t})
        sig = self._signature(t)
        if sig is not None:
            self._set(self.sig_of, t, sig)
            other = self.sig_table.get(sig)
            if other is None:
                self._set(self.sig_table, sig, t)
            elif self.find(other) != t and self._cong_mergeable(t, other):
                self._pending.append((t, other, "cong", ()))
                self.process()

    def _guarded(self, e: Enc) -> bool:
        return self.dyctx.inv_derivable(e.key)

    # -- proof forest

    def _reroot(self, x: Term) -> None:
        path = []
        cur = x
        while cur in self.forest:
            nxt, edge = self.forest[cur]
            path.append((cur, nxt, edge))
            cur = nxt
        for u, v, edge in reversed(path):
            self._set(self.forest, v, (u, edge))
        self._pop(self.forest, x)

    def explain_path(self, s: Term, t: Term, before: int | None = None):
        """Forest path s..t as a list of (edge, forward) steps."""
        if s == t:
            return []
        up_s: list[tuple[Term, Term, _Edge]] = []
        seen = {s: 0}
        cur = s
        while cur in self.forest:
            nxt, edge = self.forest[cur]
            up_s.append((cur, nxt, edge))
            cur = nxt
            seen[cur] = len(up_s)
        up_t: list[tuple[Term, Term, _Edge]] = []
        cur = t
        while cur not in seen:
            nxt, edge = self.forest[cur]
            up_t.append((cur, nxt, edge))
            cur = nxt
        lca_depth = seen[cur]
        steps = []
        for u, v, edge in up_s[:lca_depth]:
            steps.append((edge, edge.a == u))
        for u, v, edge in reversed(up_t):
            steps.append((edge, edge.a == v))
        if before is not None and any(e.stamp >= before for e, _ in steps):
            return None
        return steps

    # -- merging

    def merge(self, a: Term, b: Term, kind: str, data: tuple = ()) -> None:
        self.add_term(a)
        self.add_term(b)
        self._pending.append((a, b, kind, data))
        self.process()

    def process(self) -> None:
        while self._pending:
            a, b, kind, data = self._pending.popleft()
            self._union(a, b, kind, data)

    def _union(self, a: Term, b: Term, kind: str, data: tuple) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.stamp >= self.merge_cap:
            raise BudgetExhausted()
        edge = _Edge(self.stamp + 1, kind, a, b, data)
        self._reroot(a)
        self._set(self.forest, a, (b, edge))

        if len(self.members[ra]) < len(self.members[rb]):
            small, big = ra, rb
        else:
            small, big = rb, ra

        # one cross projection links everything transitively; the merged
        # class keeps big's representative
        for reps, rule in ((self.pair, "proj_pair"), (self.genc, "proj_enc")):
            a, b = self._pop(reps, small), reps.get(big)
            if a is not None and b is not None:
                for i, (x, y) in enumerate(zip(children(a), children(b))):
                    self._pending.append((x, y, rule, (a, b, i)))
            elif a is not None:
                self._set(reps, big, a)

        for m in self.members[small]:
            self._set(self.parent, m, big)
        self._set(self.members, big, self.members[big] + self._pop(self.members, small))

        touched = self._pop(self.parents_of, small) | self.parents_of[big]
        self._set(self.parents_of, big, touched)
        for p in sorted(touched, key=term_key):
            old = self.sig_of.get(p)
            if old is not None and self.sig_table.get(old) is p:
                self._pop(self.sig_table, old)
        for p in sorted(touched, key=term_key):
            sig = self._signature(p)
            self._set(self.sig_of, p, sig)
            other = self.sig_table.get(sig)
            if other is None:
                self._set(self.sig_table, sig, p)
            elif self.find(other) != self.find(p):
                if self._cong_mergeable(p, other):
                    self._pending.append((p, other, "cong", ()))

    def _cong_mergeable(self, p: Term, q: Term) -> bool:
        """A congruence union is only sound if every syntactically shared
        child admits a reflexivity proof (derivable basics or a non-trivial
        class)."""
        for cp, cq in zip(children(p), children(q)):
            if cp == cq and not self._refl_possible(cp):
                return False
        return True

    def _refl_possible(self, t: Term) -> bool:
        if len(self.members[self.find(t)]) > 1:
            return True
        return all(self.dyctx.derivable(s) for s in iter_subterms(t)
                   if isinstance(s, Basic))

    def class_members(self, t: Term) -> list[Term]:
        return sorted(self.members[self.find(t)], key=term_key)


def _x_classes(dyctx: DYContext) -> EqClasses:
    """X's terms registered, in sorted order and unlogged, once per
    DYContext; each root closure over X starts from a copy.  They take no
    union (a congruence needs two terms with one signature), and a guard
    reads only dyctx, so every context over X would build the same."""
    if dyctx.classes is None:
        cc = dyctx.classes = EqClasses(dyctx)
        cc.logging = False
        for t in sorted_terms(dyctx.X):
            cc.add_term(t)
    return dyctx.classes


# ---------------------------------------------------------------------------
# hypothesis expansion

def _kind(a: Assertion):
    """The index key of a node's hypotheses: the connective, or for a
    predicate its name and arity.  Both matchers (`match_assertions` here,
    `assertions.match_assertion`) refuse a pair of different kinds before
    they compare, or register, any term."""
    return (a.name, len(a.args)) if isinstance(a, Pred) else type(a)


def _head(a: Assertion):
    """What two assertions must share, besides the shape of their parts, to
    match: their `_kind`, and an existential's binder or the agent of a says
    or sent fact."""
    if isinstance(a, Exists):
        return Exists, a.var
    if isinstance(a, (Says, SentA, SentT)):
        return type(a), a.agent
    return _kind(a)


class _Node:
    """One node of the case-split tree: the hypotheses reached from its
    parent's choice of disjunct by non-branching expansion (conjunctions
    split, says bodies stripped, existentials opened over witnesses named
    in ``names``), up to the first disjunction, which is left in ``split``
    for a query to split on (`_Query.children`).  The hypothesis index, the
    node's mark on the context's closure and the bottom test are made on
    first read."""

    def __init__(self, ctx: "DeriveContext", names: dict[Assertion, str],
                 hyps: set[Assertion], origin: dict[Assertion, tuple],
                 queue: deque[Assertion], parent: "_Node | None" = None):
        self.wits: list[tuple[Assertion, Assertion, str]] = []
        self.split: Or | None = None
        while queue:
            psi = queue.popleft()
            if isinstance(psi, And):
                for idx, child in ((0, psi.left), (1, psi.right)):
                    if child not in hyps:
                        hyps.add(child)
                        origin[child] = ("and_e", psi, idx)
                        queue.append(child)
            elif isinstance(psi, Says):
                if psi.body not in hyps:
                    hyps.add(psi.body)
                    origin[psi.body] = ("strip", psi)
                    queue.append(psi.body)
            elif isinstance(psi, Exists) and not ctx.safe:
                # each existential is opened once per query, on _w1, _w2, ...
                var = names.setdefault(psi, f"_w{len(names) + 1}")
                inst = opened(psi, var)
                if inst not in hyps:
                    hyps.add(inst)
                    origin[inst] = ("assume",)
                    queue.append(inst)
                    self.wits.append((psi, inst, var))
            elif isinstance(psi, Or) and not ctx.safe:
                self.split = psi
                break
        self.hyps = frozenset(hyps)
        self.origin = origin
        self.queue = queue  # what the children go on expanding
        self.ctx, self.parent = ctx, parent

    @cached_property
    def sorted_hyps(self) -> list[Assertion]:  # matching order
        return sorted_assertions(self.hyps)

    @cached_property
    def by_kind(self) -> dict[object, list[Assertion]]:  # sorted_hyps by _kind
        out = {}
        for h in self.sorted_hyps:
            out.setdefault(_kind(h), []).append(h)
        return out

    @cached_property
    def mark(self) -> int:
        """The trail length at which ctx.cc holds X and the terms of the
        sorted hypotheses, merged along their equations: the root builds
        ctx.cc from a copy of X's classes without logging, so its mark is
        0; a child undoes ctx.cc to its parent's mark and adds its own
        hypotheses.  Read only while the search is in this node's subtree.
        A root over merge_cap sets ctx.build_failed."""
        ctx, parent = self.ctx, self.parent
        if parent is not None:
            mark, cc = parent.mark, ctx.cc  # the parent's mark builds ctx.cc
            cc.undo(mark)
            new = [a for a in self.sorted_hyps if a not in parent.hyps]
        elif ctx.build_failed:
            raise BudgetExhausted()
        else:
            cc, new = _x_classes(ctx.dyctx).copy(ctx.budget.merge_cap), self.sorted_hyps
        try:
            for a in new:
                _add_terms(cc, assertion_terms(a))
            for a in new:
                if isinstance(a, Eq) and not has_bound_name(a.lhs) and not has_bound_name(a.rhs):
                    cc.merge(a.lhs, a.rhs, "hyp", (a,))
        except BudgetExhausted:
            ctx.build_failed |= parent is None
            raise
        if parent is None:
            cc.logging = True
            ctx.cc = cc
        return len(cc.trail)

    @cached_property
    def bottom(self) -> tuple[Term, Term] | None:
        """Two distinct basics of one class, which make the branch
        inconsistent; with no equation among the hypotheses there are none.
        First read before the node's prover adds a goal's terms, or in
        `DeriveContext.leaves`."""
        if Eq not in self.by_kind:
            return None
        self.mark  # builds ctx.cc up to this node
        members = self.ctx.cc.members  # keyed by the roots
        for root in sorted(members, key=term_key):
            basics = [m for m in members[root] if isinstance(m, Basic)]
            if len(basics) >= 2:
                b = sorted(basics, key=term_key)
                return (b[0], b[1])
        return None


class _Query:
    """What one query decides over a context's shared root: the branches
    it splits off, counted against branch_cap, the names of the witnesses
    opened on them, numbered on from the root's, and its goal count and
    truncation flag.  So a query answers as it would on a fresh context."""

    def __init__(self, ctx: "DeriveContext"):
        self.ctx = ctx
        self.budget = ctx.budget
        self.names = dict(ctx.wit_names)
        self.branches = 1
        self.nodes = 0
        self.truncated = False

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.node_cap:
            raise BudgetExhausted()

    def children(self, node: _Node) -> tuple[_Node, _Node]:
        """Split node on its disjunction; each split adds one branch."""
        if self.branches >= self.budget.branch_cap:
            raise BudgetExhausted()
        self.branches += 1
        kids = []
        for side in (node.split.left, node.split.right):
            hyps, origin, queue = set(node.hyps), dict(node.origin), deque(node.queue)
            if side not in hyps:
                hyps.add(side)
                origin[side] = ("assume",)
                queue.append(side)
            kids.append(_Node(self.ctx, self.names, hyps, origin, queue, node))
        return kids[0], kids[1]

    def solve(self, node: _Node, goal: Assertion) -> ProofNode | None:
        """Try the goal on node; if that fails, split node's disjunction and
        solve both children.  On None, self.truncated says whether the
        failing attempt, on a node with no split left, was cut short."""
        self.truncated = False
        prover = _BranchProver(node, self)
        inner = prover.prove(goal)
        if inner is None:
            if node.split is None:
                return None
            left, right = self.children(node)
            lp = self.solve(left, goal)
            if lp is None:
                return None
            rp = self.solve(right, goal)
            if rp is None:
                return None
            inner = ProofNode("or_e", goal, (prover.resolve(node.split), lp, rp))
        for psi, inst, var in reversed(node.wits):
            inner = ProofNode("exists_e", goal, (prover.resolve(psi), inner), fresh=var)
        return inner


def _add_terms(cc: EqClasses, terms) -> None:
    for t in terms:
        if not has_bound_name(t):
            cc.add_term(t)


# ---------------------------------------------------------------------------
# the prover proper

class _BranchProver:
    def __init__(self, node: _Node, query: _Query):
        self.ctx = query.ctx
        self.node = node
        self.query = query
        self.memo: dict[Assertion, ProofNode | None] = {}
        self._access: dict[Assertion, ProofNode] = {}
        self._unregistered: list[Term] | None = []

    @cached_property
    def singletons(self) -> bool:
        """The node has no equation hypothesis, so every class of its
        closure is one term: `same` and `members` answer by identity, and
        the closure is built only for a read of the term universe."""
        return Eq not in self.node.by_kind

    @cached_property
    def cc(self) -> EqClasses:
        """ctx.cc at the node's mark, with the terms registered so far, on first read."""
        self.node.mark  # builds ctx.cc up to the node
        _add_terms(self.ctx.cc, self._unregistered)
        self._unregistered = None
        return self.ctx.cc

    def _register(self, terms: tuple[Term, ...]) -> None:
        """Add terms free of bound names to the classes, in order, or defer
        them until the classes are built."""
        if self._unregistered is None:
            _add_terms(self.cc, terms)
        else:
            self._unregistered += terms

    # -- access derivations for hypotheses

    def resolve(self, psi: Assertion) -> ProofNode:
        if psi in self._access:
            return self._access[psi]
        how = self.node.origin[psi]
        if how[0] in ("ax", "assume"):
            node = ProofNode("ax", psi)
        else:  # and_e or strip, from how[1]
            node = ProofNode(how[0], psi, (self.resolve(how[1]),))
        self._access[psi] = node
        return node

    # -- equality proofs

    def _edge_proof(self, edge: _Edge) -> ProofNode:
        if edge.kind == "hyp":
            return self.resolve(edge.data[0])
        if edge.kind == "cong":
            return self._cong_proof(edge.a, edge.b, edge.stamp)
        if edge.kind == "proj_pair":
            pa, pb, idx = edge.data
            prem = self.eq_proof(pa, pb, edge.stamp)
            assert prem is not None
            return ProofNode("proj_pair", Eq(edge.a, edge.b), (prem,))
        if edge.kind == "proj_enc":
            ea, eb, idx = edge.data
            prem = self.eq_proof(ea, eb, edge.stamp)
            assert prem is not None
            tp = (self.ctx.dyctx.inv_proof(ea.key), self.ctx.dyctx.inv_proof(eb.key))
            return ProofNode("proj_enc", Eq(edge.a, edge.b), (prem,), term_proofs=tp)
        raise AssertionError(edge.kind)

    def _cong_proof(self, a: Term, b: Term, before: int) -> ProofNode:
        prems = tuple(self.eq_proof(x, y, before) for x, y in zip(children(a), children(b)))
        assert all(p is not None for p in prems)
        return ProofNode("cong_" + RULES[type(a)], Eq(a, b), prems)

    def refl_proof(self, t: Term, before: int | None = None) -> ProofNode | None:
        """Prove t = t: structurally when every basic leaf is derivable,
        otherwise through a loop in a non-trivial class."""
        struct = self._refl_structural(t)
        if struct is not None:
            return struct
        for other in self.members(t):
            if other != t:
                fwd = self.eq_proof(t, other, before)
                if fwd is None:
                    continue
                back = ProofNode("sym", Eq(other, t), (fwd,))
                return ProofNode("trans", Eq(t, t), (fwd, back))
        return None

    def _refl_structural(self, t: Term) -> ProofNode | None:
        if isinstance(t, (Basic, Var)):
            if not self.ctx.dyctx.derivable(t):
                return None
            return ProofNode("refl", Eq(t, t), term_proofs=(self.ctx.dyctx.proof(t),))
        prems = []
        for c in children(t):
            p = self._refl_structural(c)
            if p is None:
                return None
            prems.append(p)
        return ProofNode("cong_" + RULES[type(t)], Eq(t, t), tuple(prems))

    def eq_proof(self, s: Term, t: Term, before: int | None = None) -> ProofNode | None:
        if s == t:
            return self.refl_proof(s, before)
        steps = self.cc.explain_path(s, t, before)
        if steps is None:
            return None
        chain: list[ProofNode] = []
        for edge, forward in steps:
            p = self._edge_proof(edge)
            if not forward:
                lhs, rhs = p.concl.lhs, p.concl.rhs
                p = ProofNode("sym", Eq(rhs, lhs), (p,))
            chain.append(p)
        cur = chain[0]
        for nxt in chain[1:]:
            cur = ProofNode("trans", Eq(cur.concl.lhs, nxt.concl.rhs), (cur, nxt))
        return cur

    # -- matching modulo classes

    def same(self, a: Term, b: Term) -> bool:
        """Whether a and b share a class: with `members`, the branch's one equality."""
        if a == b:
            return True
        if has_bound_name(a) or has_bound_name(b):
            return False
        self._register((a, b))
        return not self.singletons and self.cc.same(a, b)

    def members(self, t: Term) -> list[Term]:
        """The terms of t's class, or t alone when the classes hold no such
        term."""
        if self.singletons or has_bound_name(t) or t not in self.cc:
            return [t]
        return self.cc.class_members(t)

    # No binder set: hypotheses and goals are alpha-normal, so a binder in
    # scope only shows up as a %n name, which `same` refuses to rewrite.

    def match_terms(self, h: Term, g: Term, path: tuple):
        """Rewrite pairs turning h into g, or None.  Prefers descending into
        equal constructors so rewrite premises stay small and provable."""
        if h == g:
            return []
        if same_head(h, g):
            kids = children(h)
            out = self._zip_rewrites(kids, children(g), path, len(kids))
            if out is not None:
                return out
        return [(path, h, g)] if self.same(h, g) else None

    def match_assertions(self, h: Assertion, g: Assertion, path: tuple = ()):
        """Rewrite pairs turning h into g, or None; their heads must agree."""
        if _head(h) != _head(g):
            return None
        (ht, hs), (gt, gs) = parts(h), parts(g)
        return self._zip_rewrites(ht + hs, gt + gs, path, len(ht))

    def _zip_rewrites(self, hs, gs, path: tuple, n_terms: int):
        """Rewrite pairs for every aligned (h, g), the first n_terms of them
        terms and the rest assertions, or None when one has none."""
        out = []
        for i, (h, g) in enumerate(zip(hs, gs)):
            match = self.match_terms if i < n_terms else self.match_assertions
            m = match(h, g, path + (i,))
            if m is None:
                return None
            out += m
        return out

    def _subst_chain(self, hyp: Assertion, pairs, goal: Assertion) -> ProofNode | None:
        proof = self.resolve(hyp)
        cur = hyp
        for path, told, tnew in pairs:
            eqp = self.eq_proof(told, tnew)
            if eqp is None:
                return None
            cur = _replace_at(cur, path, tnew)
            proof = ProofNode("subst", cur, (proof, eqp))
        assert cur == goal, (cur, goal)
        return proof

    # -- goal decomposition

    def prove(self, goal: Assertion) -> ProofNode | None:
        if goal in self.memo:
            return self.memo[goal]
        self.query.tick()
        self.memo[goal] = None  # cycles impossible, but keep lookups cheap
        proof = self._prove(goal)
        self.memo[goal] = proof
        return proof

    def _prove(self, goal: Assertion) -> ProofNode | None:
        if goal in self.node.hyps:
            return self.resolve(goal)
        if self.node.bottom is not None:
            m, n = self.node.bottom
            prem = self.eq_proof(m, n)
            if prem is not None:
                return ProofNode("bot", goal, (prem,))
        self._register(assertion_terms(goal))  # the goal's terms join the classes

        if isinstance(goal, And):
            l = self.prove(goal.left)
            if l is None:
                return None
            r = self.prove(goal.right)
            if r is None:
                return None
            return ProofNode("and_i", goal, (l, r))

        if isinstance(goal, Or):
            for side in (goal.left, goal.right):
                p = self.prove(side)
                if p is not None:
                    return ProofNode("or_i", goal, (p,))
            return None

        if isinstance(goal, Exists):
            return self._prove_exists(goal)

        if isinstance(goal, Eq):
            return self._prove_eq(goal)

        if isinstance(goal, (Pred, SentT, SentA)):
            return self._prove_by_matching(goal)

        if isinstance(goal, Says):
            p = self._prove_by_matching(goal)
            if p is not None:
                return p
            skey = App("sk", (goal.agent,))
            if self.ctx.dyctx.derivable(skey):
                body = self.prove(goal.body)
                if body is not None:
                    return ProofNode("says", goal, (body,),
                                     term_proofs=(self.ctx.dyctx.proof(skey),))
            return None
        return None

    def _prove_by_matching(self, goal: Assertion) -> ProofNode | None:
        for hyp in self.node.by_kind.get(_kind(goal), ()):
            pairs = self.match_assertions(hyp, goal)
            if pairs is None:
                continue
            p = self._subst_chain(hyp, pairs, goal)
            if p is not None:
                return p
        return None

    def _prove_eq(self, goal: Eq) -> ProofNode | None:
        return self.eq_proof(goal.lhs, goal.rhs) if self.same(goal.lhs, goal.rhs) else None

    def _prove_exists(self, goal: Exists) -> ProofNode | None:
        p = self._prove_by_matching(goal)
        if p is not None:
            return p
        for u in self._candidates(goal.var, goal.body):
            try:
                inst = substitute(goal.body, {goal.var: u})
            except ValueError:  # a non-key in an encryption's key slot
                continue
            p = self.prove(inst)
            if p is not None:
                return ProofNode("exists_i", goal, (p,), witness=u)
        return None

    # -- witness candidate generation

    def _candidates(self, var: str, body: Assertion) -> Iterator[Term]:
        """Witnesses for var in body, distinct and free of bound names, drawn
        on demand: the E-matches of each subassertion holding var, in
        preorder, then instances of the patterns that equation atoms set var
        equal to; with no such subassertion, the least term of the universe.
        Past the candidate_cap-th, query.truncated is set and none follow:
        a cut counts only when the search draws past it, so a search that
        proves a witness before any cut is never inconclusive for it."""
        anchored = [sub for sub in subassertions(body) if var in assertion_vars(sub)]
        if not anchored:
            universe = (t for t in self.cc.parent if not has_bound_name(t))
            first = min(universe, key=term_key, default=None)
            if first is not None:
                yield first
            return
        seen: set[Term] = set()
        for t in self._drawn(var, anchored):
            if t not in seen and not has_bound_name(t):
                seen.add(t)
                yield t
                if len(seen) >= self.query.budget.candidate_cap:
                    self.query.truncated = True
                    return

    def _drawn(self, var: str, anchored: list[Assertion]) -> Iterator[Term]:
        for sub in anchored:
            yield from self._ematch_sub(sub, var)
        for sub in anchored:
            if isinstance(sub, Eq):
                for pat, other in ((sub.lhs, sub.rhs), (sub.rhs, sub.lhs)):
                    if isinstance(pat, Var) and pat.name == var:
                        yield from self._synth_from_pattern(other)

    def _ematch_sub(self, pattern: Assertion, var: str):
        """Bind var by matching a goal subassertion against hypotheses (and,
        for equations, against congruence classes), with the shared matcher
        of `assertions` working modulo this branch (`same`, `members`).

        An equation side that holds var meets the class of the other side.
        A bare var binds each member.  A compound side is walked once per
        class: `match_term` reaches the whole class through `members`
        from any of its members, so matching each member in turn repeats
        one walk, unless a walk changed the classes, which is then walked
        again (at most once per member).  An equation hypothesis with both
        sides in a class walked this way, the classes unchanged since, is
        skipped: matching it would repeat the walk, or compare two members
        of one class, so it binds nothing new.  `_candidates` reads only
        the distinct bindings in order of first appearance, which neither
        shortcut changes."""
        holes = {var} | {n for n in assertion_vars(pattern) if n.startswith("%")}
        results: list[Term] = []
        covered = None  # (root, trail length) of a class walked to a fixed point
        if isinstance(pattern, Eq):
            for pat, other in ((pattern.lhs, pattern.rhs), (pattern.rhs, pattern.lhs)):
                if var not in term_vars(pat) or has_bound_name(other):
                    continue
                if self.singletons:  # other's class is other; no equation hypothesis to skip
                    self._register((other,))
                    results += ([other] if isinstance(pat, Var)
                                else self._bindings(pat, other, holes, var))
                    continue
                cc = self.cc
                cc.add_term(other)
                targets = cc.class_members(other)
                if isinstance(pat, Var):
                    results += targets
                    stable = True
                else:
                    for _ in targets:
                        version = len(cc.trail)
                        results += self._bindings(pat, other, holes, var)
                        stable = len(cc.trail) == version
                        if stable:
                            break
                if stable and var not in term_vars(other):
                    covered = (cc.find(other), len(cc.trail))
        for hyp in self.node.by_kind.get(_kind(pattern), ()):
            if covered is not None and self._inside(hyp, *covered):
                continue
            for b in match_assertion(pattern, hyp, holes, {}, self):
                if var in b:
                    results.append(b[var])
        return results

    def _bindings(self, pat: Term, other: Term, holes: set[str], var: str) -> list[Term]:
        return [b[var] for b in match_term(pat, other, holes, {}, self) if var in b]

    def _inside(self, eq: Eq, root: Term, version: int) -> bool:
        """Both sides of eq lie in root's class, and the classes are as
        they were at trail length version (each write grows the trail)."""
        cc = self.cc
        return (len(cc.trail) == version and eq.lhs in cc and eq.rhs in cc
                and cc.find(eq.lhs) is root and cc.find(eq.rhs) is root)

    def _synth_from_pattern(self, pat: Term) -> list[Term]:
        """Instances of pat with its bound names filled from the branch's
        universe, sorted when the search first reaches a bound variable.
        The lists are cut (candidate_cap, witness_depth, 8 per child, 64
        per argument tuple); every cut sets query.truncated, so a negative
        answer that rests on it is inconclusive, not a definite no."""
        budget = self.query.budget
        univ = None

        def cut(xs: list, n: int) -> list:
            if len(xs) > n:
                self.query.truncated = True
            return xs[:n]

        def synth(p: Term, d: int) -> list[Term]:
            if not has_bound_name(p):
                return [p]
            if isinstance(p, Var):
                nonlocal univ
                if univ is None:
                    univ = [t for t in sorted(self.cc.parent, key=term_key)
                            if not has_bound_name(t)]
                return cut(univ, budget.candidate_cap)
            if d <= 0:
                self.query.truncated = True
                return []
            outs = [[]]
            for c in children(p):
                cands = cut(synth(c, d - 1), 8)
                outs = cut([pre + [x] for pre in outs for x in cands], 64)
            out = []
            for kids in outs:
                try:
                    out.append(rebuild(p, kids))
                except ValueError:  # a non-key in an encryption's key slot
                    pass
            return out

        return synth(pat, budget.witness_depth)


# ---------------------------------------------------------------------------
# rewrite positions (for substitution chains)

def _replace_at(a, path: tuple, new: Term):
    """a with the term at path replaced by new.  A path indexes an
    assertion's parts (terms first), then the children of terms."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(a, Term):
        kids = list(children(a))
        kids[i] = _replace_at(kids[i], rest, new)
        return rebuild(a, kids)
    terms, subs = parts(a)
    items = list(terms + subs)
    items[i] = _replace_at(items[i], rest, new)
    return rebuilt(a, items[:len(terms)], items[len(terms):])


# ---------------------------------------------------------------------------
# context and public entry points

class DeriveContext:
    """What every query over one (X, Phi) computes alike: X's saturation,
    the root's expansion with its witness names, and the root's closure
    ``cc``, built when a goal first needs it.  Each query splits below the
    root on its own (`_Query`), works on ``cc`` in place and undoes it to
    the root's mark when it ends, however it ends.  So a query on a shared
    context answers as `derive` does on a fresh one, proof included."""

    branch_count = 1  # the root; splits are a query's (perfbench/tracing.py reads it)

    def __init__(self, X, Phi, budget: SearchBudget = DEFAULT_BUDGET,
                 safe: bool = False, dyctx: DYContext | None = None):
        """dyctx, when given, must be a DYContext over exactly X; it is
        used instead of saturating X again."""
        self.X = frozenset(X)
        self.Phi = frozenset(normalize(a) for a in Phi)
        self.budget = budget
        self.safe = safe
        if dyctx is not None and dyctx.X != self.X:
            raise ValueError("dyctx is not over X")
        self.dyctx = dyctx if dyctx is not None else DYContext(self.X)
        self.wit_names: dict[Assertion, str] = {}
        self.build_failed = False  # the root's closure went over merge_cap
        self.cc: EqClasses | None = None  # set by the root's first mark
        self.root = _Node(self, self.wit_names, set(self.Phi),
                          {a: ("ax",) for a in self.Phi}, deque(sorted_assertions(self.Phi)))

    def leaves(self) -> Iterator[_Node]:
        """Every leaf of the fully split tree, left to right, split in a query
        of its own.  While a leaf is out, self.cc holds its classes, and what
        the caller adds is undone before the next leaf and when the generator
        ends or is closed.  Raises BudgetExhausted past a budget."""
        query, stack = _Query(self), [self.root]
        try:
            while stack:
                node = stack.pop()
                if node.split is None:
                    node.mark  # built here, so that going over budget raises here
                    yield node
                else:
                    stack.extend(reversed(query.children(node)))
        finally:
            self._rewind()

    def _rewind(self) -> None:  # to the root's mark, 0
        if self.cc is not None:
            self.cc.undo(0)

    def query(self, goal: Assertion) -> Verdict:
        """The verdict on goal; with REPLAY_CHECK set, a positive one is
        replayed through the independent checker before it is returned."""
        goal = normalize(goal)
        query = _Query(self)
        try:
            proof = query.solve(self.root, goal)
        except BudgetExhausted:
            return Verdict(False, budget_exhausted=True)
        finally:
            self._rewind()
        if proof is None:
            return Verdict(False, budget_exhausted=query.truncated)
        if REPLAY_CHECK:
            from .checker import replay_assertion_proof

            ok, err = replay_assertion_proof(proof, self.X, self.Phi, goal)
            if not ok:
                raise AssertionError(f"proof replay failed: {err}")
        return Verdict(True, proof)


def derive(X, Phi, goal: Assertion, budget: SearchBudget = DEFAULT_BUDGET) -> Verdict:
    return DeriveContext(X, Phi, budget, safe=False).query(goal)


def derive_safe(X, Phi, goal: Assertion, budget: SearchBudget = DEFAULT_BUDGET) -> Verdict:
    return DeriveContext(X, Phi, budget, safe=True).query(goal)
