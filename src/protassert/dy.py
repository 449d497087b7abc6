"""Message derivation: can a set of terms produce a term?

Decision procedure is the standard two-phase one: saturate the knowledge set
under analysis (projection of pairs, decryption when the inverse key is
available), then check the target by composition (pairing, encryption,
constructor application).  Variables are axiomatically derivable, matching the
convention used by the assertion rules for open terms.

Every positive answer carries a proof tree; the independent checker replays
these against the rule schemas.  The proof formats live here: `TermProof`
for terms and `ProofNode` for assertions, with `RULES`, the one table from
a constructor to its rule names, and `Verdict`, the answer that carries
either.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assertions import Assertion
from .terms import (
    App,
    Enc,
    KEY_CONSTRUCTORS,
    KEYS,
    Pair,
    Term,
    Var,
    children,
    is_key_position,
    sorted_terms,
)

# Term rules: ax (member), var (variable convention), pair, split, enc, dec,
# app.  A constructor's composition rule is named here; the assertion rules
# over it are "cong_" and "proj_" plus that name.
RULES = {Pair: "pair", Enc: "enc", App: "app"}


# Built by the thousand per query: slotted and not frozen, so that __init__
# assigns plainly; equality and hash are by value.
@dataclass(slots=True, unsafe_hash=True)
class TermProof:
    rule: str
    concl: Term
    premises: tuple["TermProof", ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class ProofNode:
    rule: str
    concl: Assertion
    premises: tuple["ProofNode", ...] = ()
    term_proofs: tuple[TermProof, ...] = ()
    witness: Term | None = None  # exists_i
    fresh: str | None = None  # exists_e


@dataclass(slots=True, unsafe_hash=True)
class Verdict:
    derivable: bool
    proof: TermProof | ProofNode | None = None
    budget_exhausted: bool = False

    def __bool__(self) -> bool:
        return self.derivable


Provenance = dict  # Term -> ("ax",) | ("split", parent) | ("dec", parent)


def dy_saturate(X) -> tuple[frozenset[Term], Provenance]:
    """Close X under pair projection and decryption.  Returns the analyzed set
    and a provenance map recording how each element was obtained."""
    prov: Provenance = {}
    S: set[Term] = set()

    def add(t: Term, how: tuple) -> bool:
        if t in S:
            return False
        S.add(t)
        prov[t] = how
        return True

    for t in sorted_terms(X):
        add(t, ("ax",))

    changed = True
    while changed:
        changed = False
        for t in sorted_terms(S):
            if isinstance(t, Pair):
                changed |= add(t.left, ("split", t))
                changed |= add(t.right, ("split", t))
            elif isinstance(t, Enc):
                ik = KEYS.inverse(t.key)
                if isinstance(ik, Var) or ik in S:
                    changed |= add(t.body, ("dec", t))
    return frozenset(S), prov


# Inline switch, not children(): every derivability question runs it.
def _synth_ok(S: frozenset[Term], t: Term, vars_axiomatic: bool = True) -> bool:
    """Composition check against an analyzed set.  With vars_axiomatic a
    variable is derivable outright; without it, it must be in S."""
    if t in S or (vars_axiomatic and isinstance(t, Var)):
        return True
    if isinstance(t, Pair):
        return (_synth_ok(S, t.left, vars_axiomatic)
                and _synth_ok(S, t.right, vars_axiomatic))
    if isinstance(t, Enc):
        return (_synth_ok(S, t.body, vars_axiomatic)
                and _synth_ok(S, t.key, vars_axiomatic))
    if isinstance(t, App) and t.ctor not in KEY_CONSTRUCTORS:
        return all(_synth_ok(S, a, vars_axiomatic) for a in t.args)
    return False  # basics and key-constructor applications are atomic


def _analysis_proof(t: Term, prov: Provenance, memo: dict) -> TermProof:
    if t in memo:
        return memo[t]
    how = prov[t]
    if how[0] == "ax":
        p = TermProof("ax", t)
    elif how[0] == "split":
        p = TermProof("split", t, (_analysis_proof(how[1], prov, memo),))
    else:  # dec
        parent: Enc = how[1]
        ik = KEYS.inverse(parent.key)
        if isinstance(ik, Var):
            key_proof = TermProof("var", ik)
        else:
            key_proof = _analysis_proof(ik, prov, memo)
        p = TermProof("dec", t, (_analysis_proof(parent, prov, memo), key_proof))
    memo[t] = p
    return p


def _synth_proof(S: frozenset[Term], t: Term, prov: Provenance, memo: dict) -> TermProof:
    if t in S:
        return _analysis_proof(t, prov, memo)
    if isinstance(t, Var):
        return TermProof("var", t)
    rule = RULES.get(type(t))
    if rule is None or (rule == "app" and t.ctor in KEY_CONSTRUCTORS):
        raise ValueError(f"not derivable: {t!r}")
    return TermProof(rule, t, tuple(_synth_proof(S, c, prov, memo) for c in children(t)))


def dy_derive(X, t: Term) -> Verdict:
    ctx = DYContext(X)
    return Verdict(True, ctx.proof(t)) if ctx.derivable(t) else Verdict(False)


class DYContext:
    """Saturates X on first need, answers many queries; proofs on demand.  A
    term composed from X's members needs no analysis, and a member's proof
    is `ax`, as `dy_saturate`, which enters X first and never overwrites an
    entry, would give.  Once X is saturated, only the saturated set is asked."""

    def __init__(self, X):
        self.X = frozenset(X)
        self.saturated, self._prov = None, {}  # X's analysis and provenance, once needed
        self._memo: dict = {}

    def _analyzed(self) -> frozenset[Term]:
        if self.saturated is None:
            self.saturated, self._prov = dy_saturate(self.X)
        return self.saturated

    def derivable(self, t: Term) -> bool:
        if self.saturated is None and _synth_ok(self.X, t):
            return True
        return _synth_ok(self._analyzed(), t)

    def proof(self, t: Term) -> TermProof:
        if t in self.X:
            return self._memo.setdefault(t, TermProof("ax", t))
        return _synth_proof(self._analyzed(), t, self._prov, self._memo)

    def inv_derivable(self, key: Term) -> bool:
        if not is_key_position(key):
            return False
        return self.derivable(KEYS.inverse(key))

    def inv_proof(self, key: Term) -> TermProof:
        return self.proof(KEYS.inverse(key))
