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
     equality (`same`, `members`) answers by identity, it never builds the
     closure, and it skips the rewrite matcher, which can match only the
     goal itself.  The root's closure starts from a copy of X's classes,
     registered once per DYContext (from a copy of the run's public terms'
     classes when a run seeds them), and its trail starts empty;
  5. goal decomposition modulo the classes; an existential goal takes its
     witness candidates from E-matching its subassertions against the
     hypotheses and classes (`assertions.match_canonical` on the pattern's
     `canonical` form, with the branch as the equality), drawn on demand in
     a fixed order: matching stops at the first witness whose instance is
     proved, and a cut of the candidates counts only when the search draws
     past it.  A vacuous binder, a bound hole that is a side of an equation
     pattern, and a hole between two sides with holes draw on the branch's
     witness universe, fixed before the search: the subterms free of bound
     names of X and of the node's hypotheses (binder bodies included),
     walked once per node (`_Node.terms`), and of the query's goal (the
     gamma-rule over the branch's Herbrand universe, Fitting 1996).  With
     it empty, each takes the variable _w0: exists_i asks no freshness,
     and exists_e names start at _w1.  In a branch without equations,
     where matching is syntactic, a subassertion is matched once, and an
     instance opened in a block of existentials matches the block's own
     subassertion with the witnesses opened bound (`_ematch_sub`; one pass
     over a multi-variable pattern, as de Moura & Bjorner match): its
     level, the block's existential at its depth and the binders opened
     above it, is kept in `_blocks` when it is opened.
     Each node indexes its hypotheses by connective, or predicate name and
     arity, so a goal or pattern meets only its own kind (the top-symbol
     index of de Moura & Bjorner, CADE 2007).  An equation pattern walks
     the class of its other side once, not once per member, since the
     matcher reaches the whole class from any member; and an equation
     hypothesis inside that class, the classes unchanged since the walk,
     is skipped, since matching it repeats the walk.  Both leave the
     candidates, and the terms registered, as they would be without them
     (`_ematch_sub`).  A goal that differs from a hypothesis only by terms
     equal in the classes is proved by a chain of subst steps, whose
     positions the rewrite matcher (`rewrites`, one walk over terms and
     assertions) finds with the shared shape walk (`assertions.parts`,
     `terms.children`).

A branch holding two distinct basics in one class is inconsistent and proves
anything.  The safe mode disables steps 1 and 3 (the rules unsound for
composition); introduction rules stay available.  A context builds its root
on its first search.  In safe mode it answers a stated hypothesis by `ax`,
with no root and no search, as the search would: a safe root opens no
witness, and hypotheses are tried first.

Positive verdicts carry a full proof tree over the rule schemas; negative
verdicts say whether a search budget was hit.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    canonical,
    match_canonical,
    match_term,
    normalize,
    opened,
    parts,
    rebuilt,
    sorted_assertions,
    subassertions,
)
from .dy import RULES, DYContext, ProofNode
from .terms import (
    App,
    Basic,
    Enc,
    Pair,
    Term,
    Var,
    cached,
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
# DeriveContext.query() is replayed through the independent checker when it
# is found, before it is returned or kept.
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


@dataclass(slots=True, unsafe_hash=True)
class Verdict:
    derivable: bool
    proof: ProofNode | None = None
    budget_exhausted: bool = False

    def __bool__(self) -> bool:
        return self.derivable


# ---------------------------------------------------------------------------
# congruence closure with proof forest

_ABSENT = object()  # the old value of a key a logged write adds


@dataclass(slots=True, unsafe_hash=True)
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
        self.parent: dict[Term, Term] = {}
        self.members: dict[Term, list[Term]] = {}
        self.pair: dict[Term, Pair] = {}  # a Pair member, for roots with one
        self.genc: dict[Term, Enc] = {}  # a guarded Enc member, for roots with one
        self.parents_of: dict[Term, set[Term]] = {}  # composites with a child in root
        self.sig_table: dict[tuple, Term] = {}
        self.forest: dict[Term, tuple[Term, _Edge]] = {}
        self.trail: list[tuple[dict, object, object]] = []
        self._pending: deque[tuple[Term, Term, str, tuple]] = deque()

    # -- the trail

    def _set(self, d: dict, key, value) -> None:
        self.trail.append((d, key, d.get(key, _ABSENT)))
        d[key] = value

    def _pop(self, d: dict, key):  # d.pop(key, None), logged; no value is None
        old = d.pop(key, None)
        if old is not None:
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

    def copy(self, merge_cap: int = 10**6) -> EqClasses:
        """The same classes in dicts of their own, with an empty trail; made
        without __init__.  The lists and sets the dicts share are never
        changed in place, so no write reaches the other."""
        new = EqClasses.__new__(EqClasses)
        new.__dict__ = {k: dict(v) if isinstance(v, dict) else v for k, v in vars(self).items()}
        new.merge_cap, new.trail, new._pending = merge_cap, [], deque()
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
        elif isinstance(t, Enc) and self.dyctx.inv_derivable(t.key):
            self._set(self.genc, t, t)
        self._set(self.parents_of, t, set())
        for c in children(t):
            root = self.find(c)
            self._set(self.parents_of, root, self.parents_of[root] | {t})
        sig = self._signature(t)
        if sig is not None:
            other = self.sig_table.get(sig)
            if other is None:
                self._set(self.sig_table, sig, t)
            elif self.find(other) != t and self._cong_mergeable(t, other):
                self._pending.append((t, other, "cong", ()))
                self.process()

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
        """Forest path s..t, two distinct terms, as a list of (edge, forward) steps."""
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
                for x, y in zip(children(a), children(b)):
                    self._pending.append((x, y, rule, (a, b)))
            elif a is not None:
                self._set(reps, big, a)

        touched = self._pop(self.parents_of, small) | self.parents_of[big]
        self._set(self.parents_of, big, touched)
        touched = sorted(touched, key=term_key)
        # Before the relinking, each parent's signature is the one it was
        # stored under, since every union recomputes its parents' signatures.
        for p in touched:
            old = self._signature(p)
            if self.sig_table.get(old) is p:
                self._pop(self.sig_table, old)
        for m in self.members[small]:
            self._set(self.parent, m, big)
        self._set(self.members, big, self.members[big] + self._pop(self.members, small))
        for p in touched:
            sig = self._signature(p)
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
    """X's terms registered, in sorted order and with an empty trail, once per
    DYContext; each root closure over X starts from a copy.  They take no
    union (a congruence needs two terms with one signature), and a guard
    reads only dyctx, so every context over X would build the same.  With
    dyctx.seed, a DYContext over a subset of X that holds no encryption,
    they start from a copy of its classes and add the rest of X: the seed's
    terms have no guard, so they read no context."""
    if dyctx.classes is None:
        seed = dyctx.seed
        cc = EqClasses(dyctx) if seed is None else _x_classes(seed).copy()
        cc.dyctx = dyctx
        for t in sorted_terms(dyctx.X if seed is None else dyctx.X - seed.X):
            cc.add_term(t)
        cc.trail.clear()
        dyctx.classes = cc
    return dyctx.classes


def inert(dyctx: DYContext, a: Assertion) -> bool:
    """Whether hypothesis a, a fact over terms X's classes hold, splits
    nothing and brings no witness, equation or term to any leaf."""
    return isinstance(a, (Pred, SentT)) and all(map(_x_classes(dyctx).__contains__,
                                                    assertion_terms(a)))


# ---------------------------------------------------------------------------
# hypothesis expansion

def _kind(a: Assertion):
    """The index key of a node's hypotheses: the connective, or for a
    predicate its name and arity.  Both matchers (`rewrites` here,
    `assertions.match_canonical`) refuse a pair of different kinds before
    they compare, or register, any term."""
    return (a.name, len(a.args)) if isinstance(a, Pred) else type(a)


def _head(a: Assertion):
    """What two assertions must share, besides the shape of their parts, to
    match: their `_kind`, and the agent of a says or sent fact."""
    if isinstance(a, (Says, SentA, SentT)):
        return type(a), a.agent
    return _kind(a)


class _Node:
    """One node of the case-split tree: the hypotheses reached from its
    parent's choice of disjunct by non-branching expansion (conjunctions
    split, says bodies stripped, existentials opened over witnesses named
    in ``names``), up to the first disjunction, which is left in ``split``
    for a query to split on (`_Query.children`).  ``hyps`` maps each
    hypothesis to how it was reached, which `_BranchProver.resolve` reads.
    The hypothesis index, the node's mark on the context's closure and the
    bottom test are made on first read."""

    def __init__(self, ctx: "DeriveContext", names: dict[Assertion, str],
                 hyps: dict[Assertion, tuple], queue: deque[Assertion],
                 parent: "_Node | None" = None):
        self.wits: list[tuple[Assertion, Assertion, str]] = []
        self.split: Or | None = None
        while queue:
            psi = queue.popleft()
            if isinstance(psi, And):
                for child in (psi.left, psi.right):
                    if child not in hyps:
                        hyps[child] = ("and_e", psi)
                        queue.append(child)
            elif isinstance(psi, Says):
                if psi.body not in hyps:
                    hyps[psi.body] = ("strip", psi)
                    queue.append(psi.body)
            elif isinstance(psi, Exists) and not ctx.safe:
                # each existential is opened once per query, on _w1, _w2, ...
                var = names.setdefault(psi, f"_w{len(names) + 1}")
                inst = opened(psi, Var(var))
                if inst not in hyps:
                    hyps[inst] = ("assume",)
                    queue.append(inst)
                    self.wits.append((psi, inst, var))
            elif isinstance(psi, Or) and not ctx.safe:
                self.split = psi
                break
        self.hyps = hyps
        self.queue = queue  # what the children go on expanding
        self.ctx, self.parent = ctx, parent

    @cached
    def sorted_hyps(self) -> list[Assertion]:  # matching order
        return sorted_assertions(self.hyps)

    @cached
    def by_kind(self) -> dict[object, list[Assertion]]:  # sorted_hyps by _kind
        out = {}
        for h in self.sorted_hyps:
            out.setdefault(_kind(h), []).append(h)
        return out

    @cached
    def terms(self) -> set[Term]:
        """The subterms free of bound names of X and of the hypotheses
        (binder bodies included), walked once per node: the branch's
        witness universe but for the goal's (`_BranchProver.universe`)."""
        terms = {s for t in self.ctx.X for s in iter_subterms(t)}
        terms.update(s for a in self.hyps for t in assertion_terms(a) for s in iter_subterms(t))
        return {t for t in terms if not has_bound_name(t)}

    @cached
    def mark(self) -> int:
        """The trail length at which ctx.cc holds X and the terms of the
        sorted hypotheses, merged along their equations: the root builds
        ctx.cc from a copy of X's classes and clears the trail, so its mark is
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
            cc.trail.clear()
            ctx.cc = cc
        return len(cc.trail)

    @cached
    def singletons(self) -> bool:
        """The node has no equation hypothesis, so every class of its
        closure is one term: `bottom` is None, and the prover's `same` and
        `members` answer by identity and never build the closure."""
        return Eq not in self.by_kind

    @cached
    def bottom(self) -> tuple[Term, Term] | None:
        """Two distinct basics of one class, which make the branch
        inconsistent; with no equation among the hypotheses there are none.
        First read before the node's prover adds a goal's terms, or in
        `DeriveContext.leaves`."""
        if self.singletons:
            return None
        self.mark  # builds ctx.cc up to this node
        members = self.ctx.cc.members  # keyed by the roots
        for root in sorted((r for r, ms in members.items() if len(ms) > 1), key=term_key):
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
        ctx.root  # built first: its expansion names the root's witnesses
        self.goal: Assertion | None = None  # set by solve
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
            hyps, queue = dict(node.hyps), deque(node.queue)
            if side not in hyps:
                hyps[side] = ("assume",)
                queue.append(side)
            kids.append(_Node(self.ctx, self.names, hyps, queue, node))
        return kids[0], kids[1]

    def solve(self, node: _Node, goal: Assertion) -> ProofNode | None:
        """Try the goal on node; if that fails, split node's disjunction and
        solve both children.  On None, self.truncated says whether the
        failing attempt, on a node with no split left, was cut short."""
        self.goal, self.truncated = goal, False
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

# The existential of a block at an opened instance's depth, and each binder
# above it with the witness opened for it (`_BranchProver._blocks`).
_Level = tuple[Exists, tuple[tuple[str, Term], ...]]

class _BranchProver:
    def __init__(self, node: _Node, query: _Query):
        self.ctx = query.ctx
        self.node = node
        self.query = query
        self.memo: dict[Assertion, ProofNode | None] = {}
        self._access: dict[Assertion, ProofNode] = {}
        # the body of an instance opened in an existential block -> its level
        self._blocks: dict[Assertion, _Level] = {}
        # in an equation-free branch, a subassertion -> every binding it matched
        self._found: dict[Assertion, list[dict[str, Term]]] = {}

    @cached
    def cc(self) -> EqClasses:
        """ctx.cc at the node's mark, built on first read."""
        self.node.mark  # builds ctx.cc up to the node
        return self.ctx.cc

    @cached
    def universe(self) -> list[Term]:
        """The branch's witness universe, fixed before the search: the
        node's `terms` and the subterms free of bound names of the query's
        goal, sorted by term_key."""
        goal = (s for t in assertion_terms(self.query.goal) for s in iter_subterms(t))
        return sorted(self.node.terms.union(t for t in goal if not has_bound_name(t)),
                      key=term_key)

    # -- access derivations for hypotheses

    def resolve(self, psi: Assertion) -> ProofNode:
        if psi in self._access:
            return self._access[psi]
        how = self.node.hyps[psi]
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
            prem = self.eq_proof(*edge.data, edge.stamp)
            assert prem is not None
            return ProofNode("proj_pair", Eq(edge.a, edge.b), (prem,))
        if edge.kind == "proj_enc":
            ea, eb = edge.data
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
        if self.node.singletons or has_bound_name(a) or has_bound_name(b):
            return False
        _add_terms(self.cc, (a, b))
        return self.cc.same(a, b)

    def members(self, t: Term) -> list[Term]:
        """The terms of t's class, or t alone when the classes hold no such
        term."""
        if self.node.singletons or has_bound_name(t) or t not in self.cc:
            return [t]
        return self.cc.class_members(t)

    # No binder set: hypotheses and goals are alpha-normal, so a binder in
    # scope only shows up as a %n name, which `same` refuses to rewrite.

    def rewrites(self, h, g, path: tuple = ()):
        """Rewrite pairs (path, old, new) turning h into g, two terms or two
        assertions, or None.  It descends into equal constructors, and into
        assertions with one `_head`, before it rewrites a whole term, so
        rewrite premises stay small and provable."""
        if h == g:
            return []
        term = isinstance(h, Term)
        if term and same_head(h, g):
            hs, gs = children(h), children(g)
        elif not term and _head(h) == _head(g):
            (ht, hs), (gt, gs) = parts(h), parts(g)
            hs, gs = ht + hs, gt + gs
        else:
            hs = gs = None
        if hs is not None:
            out = []
            for i, (a, b) in enumerate(zip(hs, gs)):
                m = self.rewrites(a, b, path + (i,))
                if m is None:
                    break
                out += m
            else:
                return out
        return [(path, h, g)] if term and self.same(h, g) else None

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
        if not self.node.singletons:  # the goal's terms join the classes
            _add_terms(self.cc, assertion_terms(goal))

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

    def _prove_by_matching(self, goal: Assertion) -> ProofNode | None:
        if self.node.singletons:  # only the goal would match, and it is no hypothesis
            return None
        for hyp in self.node.by_kind.get(_kind(goal), ()):
            pairs = self.rewrites(hyp, goal)
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
        e, above = self._blocks.get(goal.body, (goal, ()))
        for u in self._candidates(goal.var, goal.body):
            try:
                inst = opened(goal, u)
            except ValueError:  # a non-key in an encryption's key slot
                continue
            if isinstance(inst, Exists) and self.node.singletons:
                self._blocks.setdefault(inst.body, (e.body, above + ((e.var, u),)))
            p = self.prove(inst)
            if p is not None:
                return ProofNode("exists_i", goal, (p,), witness=u)
        return None

    # -- witness candidate generation

    def _candidates(self, var: str, body: Assertion) -> Iterator[Term]:
        """Witnesses for var in body, distinct and free of bound names, drawn
        on demand: the E-matches of each subassertion holding var, in
        preorder, then instances of the patterns that equation atoms set var
        equal to, and the branch's `universe` (or _w0) where var is a hole
        of an equation whose two sides hold holes; with no such subassertion,
        the least term of the `universe`, or the variable _w0 when it is
        empty.  Past the candidate_cap-th, query.truncated is set and none
        follow: a cut counts only when the search draws past it, so a
        search that proves a witness before any cut is never inconclusive
        for it.  For an instance opened in an existential block, the
        block's existential at its depth (`_blocks`), whose body's
        subassertions line up with body's, says which hold var and lends
        each but an equation to match in its place; body's own are listed
        only when an equation needs one."""
        level = self._blocks.get(body)
        shape, held = (body, var) if level is None else (level[0].body, level[0].var)
        shapes = subassertions(shape)
        anchored = [i for i, sub in enumerate(shapes) if held in assertion_vars(sub)]
        if not anchored:
            yield self.universe[0] if self.universe else Var("_w0")
            return
        seen: set[Term] = set()
        for t in self._drawn(var, body, shapes, anchored, level):
            if t not in seen and not has_bound_name(t):
                seen.add(t)
                yield t
                if len(seen) >= self.query.budget.candidate_cap:
                    self.query.truncated = True
                    return

    def _drawn(self, var: str, body: Assertion, shapes: tuple[Assertion, ...],
               anchored: list[int], level: _Level | None) -> Iterator[Term]:
        subs = shapes if level is None else None  # body's own, listed on first need
        for i in anchored:
            if level is None or isinstance(shapes[i], Eq):
                subs = subs or subassertions(body)
                yield from self._ematch_sub(subs[i], var)
            else:  # the block's part, with the witnesses opened above bound
                yield from self._ematch_sub(shapes[i], level[0].var, level[1])
        for i in anchored:
            if isinstance(shapes[i], Eq):
                subs = subs or subassertions(body)
                sub = subs[i]
                sides = (sub.lhs, sub.rhs)
                for pat, other in (sides, sides[::-1]):
                    if isinstance(pat, Var) and pat.name == var:
                        yield from self._synth_from_pattern(other)
                if Var(var) not in sides and all(map(has_bound_name, sides)):
                    # var a hole between two sides with holes, no closed side
                    # to match: it draws as a bare hole does
                    yield from self._synth_from_pattern(Var(var))

    def _ematch_sub(self, sub: Assertion, var: str,
                    opened: tuple[tuple[str, Term], ...] = ()) -> list[Term]:
        """Bind var by matching a goal subassertion against hypotheses (and,
        for equations, against congruence classes), with the shared matcher
        of `assertions` working modulo this branch (`same`, `members`); only
        the bindings that give each bound name of opened its witness count.

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
        shortcut changes.  The holes are the free bound names of the
        pattern's `canonical` form, var among them.  With no hypothesis of
        its kind, a pattern that is no equation is not put in canonical
        form.  In an equation-free branch the matcher is syntactic and
        registers nothing, so the bindings of a pattern with hypotheses of
        its kind are kept per subassertion (`_found`).  A block ``ex x1,
        ..., xk: B`` is thus matched once: its instance on witnesses u1..uj
        binds as B's subassertions do with each xi bound to ui (opened)."""
        hyps = self.node.by_kind.get(_kind(sub), ())
        if not hyps and not isinstance(sub, Eq):  # no hypothesis to match, nor a class to walk
            return []
        pattern, wild = canonical(sub)
        holes, var = set(wild.values()), wild[var]
        if self.node.singletons and hyps:
            found = self._found.get(sub)
            if found is None:
                found = self._found[sub] = [b for hyp in hyps for b in
                                            match_canonical(pattern, hyp, holes, {}, self)]
            fixed = [(wild[n], u) for n, u in opened if n in wild]
            return [b[var] for b in found if var in b and all(b.get(w) is u for w, u in fixed)]
        results: list[Term] = []
        covered = None  # (root, trail length) of a class walked to a fixed point
        if isinstance(pattern, Eq):
            for pat, other in ((pattern.lhs, pattern.rhs), (pattern.rhs, pattern.lhs)):
                if var not in term_vars(pat) or has_bound_name(other):
                    continue
                if self.node.singletons:  # other's class is other; no equation hypothesis to skip
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
        found = [b for hyp in hyps if covered is None or not self._inside(hyp, *covered)
                 for b in match_canonical(pattern, hyp, holes, {}, self)]
        return results + [b[var] for b in found if var in b]

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
        `universe`, or with _w0 when it is empty.  The lists are cut
        (candidate_cap, witness_depth, 8 per child, 64 per argument tuple);
        every cut sets query.truncated, so a negative answer that rests on
        it is inconclusive, not a definite no."""
        budget = self.query.budget

        def cut(xs: list, n: int) -> list:
            if len(xs) > n:
                self.query.truncated = True
            return xs[:n]

        def synth(p: Term, d: int) -> list[Term]:
            if not has_bound_name(p):
                return [p]
            if isinstance(p, Var):
                return cut(self.universe, budget.candidate_cap) if self.universe else [Var("_w0")]
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
    """What every query over one (X, Phi) computes alike, each on first
    need: X's saturation, the root's expansion with its witness names (on
    the first search; a safe context answers a stated hypothesis without
    it), and the root's closure ``cc``.  Each query splits below the root
    on its own (`_Query`), works on ``cc`` in place and undoes it to the
    root's mark when it ends, however it ends.  So a query on a shared
    context answers as `derive` does on a fresh one, proof included, and
    each distinct goal is searched once: ``verdicts`` keeps every answer."""

    branch_count = 1  # the root; splits are a query's (perfbench/tracing.py reads it)

    def __init__(self, X, Phi, budget: SearchBudget = DEFAULT_BUDGET,
                 safe: bool = False, dyctx: DYContext | None = None):
        """dyctx, when given, must be a DYContext over exactly X; it is
        used instead of saturating X again."""
        self.X = frozenset(X)
        self.Phi = frozenset(map(normalize, Phi))  # a normal form is its own, cached
        self.budget = budget
        self.safe = safe
        if dyctx is not None and dyctx.X != self.X:
            raise ValueError("dyctx is not over X")
        self.dyctx = dyctx if dyctx is not None else DYContext(self.X)
        self.wit_names: dict[Assertion, str] = {}
        self.verdicts: dict[Assertion, Verdict] = {}  # by normalized goal
        self.build_failed = False  # the root's closure went over merge_cap
        self.cc: EqClasses | None = None  # set by the root's first mark

    @cached
    def root(self) -> _Node:
        return _Node(self, self.wit_names, dict.fromkeys(self.Phi, ("ax",)),
                     deque(sorted_assertions(self.Phi)))

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
        """The verdict on goal, searched when the goal is first asked."""
        goal = normalize(goal)
        if goal not in self.verdicts:
            self.verdicts[goal] = self._search(goal)
        return self.verdicts[goal]

    def _search(self, goal: Assertion) -> Verdict:
        if self.safe and goal in self.Phi and self.budget.node_cap >= 1:
            proof = ProofNode("ax", goal)  # what a search returns: safe roots open no witness
        else:
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
