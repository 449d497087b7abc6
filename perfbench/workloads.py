"""Seeded workloads for the protassert benchmark.

Each workload turns a seed into an endless sequence of rounds.  A round is a
fixed mix of items; every item knows its answer in advance and, when run,
calls the program through its public functions and returns an Outcome that
says whether the answer came back.  The functions are looked up on their
modules at call time (``engine.derive``, not a name imported once), so a
tracer that wraps them sees every call.

The program is only handed the generated inputs: sequent texts, builtin
protocol names with voter counts, and simulation and check seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from protassert import anonymity, builtins, checker, engine, runtime, syntax
from protassert.assertions import And, Eq, Pred, Says, SentT
from protassert.terms import AGENT, KEY, NONCE, App, Basic, Enc, Pair

from oracles import AssertionOracle

OK, BUDGET, WRONG = "ok", "budget", "wrong"


@dataclass
class Outcome:
    status: str  # OK | BUDGET | WRONG
    lines: list[str]  # verdict lines, traces or reports, fed to the digest
    why: str = ""


@dataclass
class Item:
    label: str
    run: Callable[[], Outcome]


class Workload:
    """Rounds of items drawn from a seed; a run measures the first ROUNDS.
    PASS_S is about how long one pass over them took at the commit that
    added the benchmark, on the machine of its baseline; the runner divides
    its time by it to fix the number of passes."""

    ROUNDS = 1
    PASS_S = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Item]:
        raise NotImplementedError

    def items(self) -> list[Item]:
        return [item for r in range(self.ROUNDS) for item in self.round(r)]


# ---------------------------------------------------------------------------
# sequents

def _tag(v) -> str:
    if v.derivable:
        return "derivable"
    return "inconclusive" if v.budget_exhausted else "not derivable"


def _judge(label: str, mode: str, v, want: bool) -> tuple[str, str]:
    """Status of one verdict against its known answer.  A budget-exhausted
    verdict is counted as failed whatever the known answer: on a negative
    item its 'not derivable' would otherwise pass as correct."""
    if v.budget_exhausted:
        return BUDGET, f"{label}: {mode} search budget exhausted"
    if v.derivable == want:
        return OK, ""
    return WRONG, f"{label}: {mode} verdict {_tag(v)}, expected " \
                  f"{'derivable' if want else 'not derivable'}"


def decide_sequent(label: str, text: str, want_full: bool,
                   want_safe: bool | None) -> Outcome:
    """Parse, derive (and derive_safe when want_safe is given), replay every
    positive proof, and compare with the known answers."""
    seq = syntax.parse_sequent(text, label)
    results = [("full", engine.derive, want_full)]
    if want_safe is not None:
        results.append(("safe", engine.derive_safe, want_safe))
    worst, why, tags = OK, "", []
    for mode, fn, want in results:
        v = fn(seq.terms, seq.assertions, seq.goal)
        tags.append(f"{mode}={_tag(v)}")
        status, msg = _judge(label, mode, v, want)
        if v.derivable:
            ok, err = checker.replay_assertion_proof(
                v.proof, seq.terms, seq.assertions, seq.goal)
            if not ok:
                status, msg = WRONG, f"{label}: {mode} proof rejected: {err}"
        if status == WRONG or (status == BUDGET and worst == OK):
            worst, why = status, msg
    return Outcome(worst, [f"{label} " + " ".join(tags)], why)


class _Names:
    """Fresh identifiers drawn from the seed, so no two sequents share names."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(10_000)}"
            if name not in self.used:
                self.used.add(name)
                return name


def leak_sequent(rng: random.Random, certs: int, positive: bool) -> str:
    """The two-certificate attack of the README, renamed and widened to
    ``certs`` certificates.  Each certificate pins the encrypted vote down
    to a disjunction of values.  In the positive variant exactly one value
    is common to all of them, so full mode derives it and safe mode does
    not.  In the negative variant two values stay common to every
    certificate, so neither mode can single out the goal's value."""
    fresh = _Names(rng)
    v, k, x, y = fresh("v"), fresh("k"), fresh("x"), fresh("y")
    common = [fresh("c") for _ in range(1 if positive else 2)]
    own = [fresh("c") for _ in range(certs)]
    lines = [f"nonces: {', '.join([v] + common + own)}", f"keys: {k}",
             f"terms: {{{v}}}{k}", "assertions:"]
    order = list(range(certs))
    rng.shuffle(order)
    for i in order:
        values = common + [own[i]] if positive or i % 2 else common
        rng.shuffle(values)
        options = " \\/ ".join(f"{x} = {c}" for c in values)
        lines.append(f"ex {x}, {y}: ({{{v}}}{k} = {{{x}}}{y} /\\ ({options}))")
    lines.append(f"goal: ex {y}: {{{v}}}{k} = {{{common[0]}}}{y}")
    return "\n".join(lines) + "\n"


def fanout_sequent(rng: random.Random, k: int) -> str:
    """The goal is itself a hypothesis, next to k disjunctions that have
    nothing to do with it.  Always derivable; the engine splits all of them."""
    fresh = _Names(rng)
    p, q, r = fresh("p"), fresh("q"), fresh("r")
    a = fresh("a")
    bs = [fresh("b") for _ in range(k)]
    hyps = [f"{p}({a})"] + [f"{q}({b}) \\/ {r}({b})" for b in bs]
    rng.shuffle(hyps)
    return "\n".join([f"nonces: {', '.join([a] + bs)}",
                      f"predicates: {p}/1, {q}/1, {r}/1", "assertions:",
                      *hyps, f"goal: {p}({a})"]) + "\n"


class FlatOracle(AssertionOracle):
    """The flat-context oracle of the engine tests, with one correction.
    ``AssertionOracle.prove`` takes a goal ``t = t`` as holding outright.
    The engine and the independent checker only prove ``t = t`` through a
    provable reflexivity (``refl`` carries a derivation of t) or a class
    mate, which is the oracle's own ``refl_ok`` rule for congruence; goals
    of that shape are judged by that rule."""

    def prove(self, goal) -> bool:
        if isinstance(goal, Eq) and goal.lhs == goal.rhs and goal not in self.hyps:
            return self.cc.refl_ok(goal.lhs)
        return super().prove(goal)


class _FlatGen:
    """Random contexts without disjunctions or quantifiers, in the shape of
    the engine's oracle-agreement test.  Builds the sequent text and the
    same objects side by side, so the oracle never goes through the parser
    under test."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        fresh = _Names(rng)
        self.agents = [Basic(fresh("A"), AGENT) for _ in range(2)]
        self.nonces = [Basic(fresh("n"), NONCE) for _ in range(3)]
        self.keys = [Basic(fresh("k"), KEY) for _ in range(2)]
        self.preds = [fresh("p"), fresh("p")]
        self.ctor = fresh("g")
        self.enc_keys = self.keys + [App("sk", (self.agents[0],))]

    def term(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.45:
            b = r.choice(self.agents + self.nonces + self.keys)
            return b, b.name
        roll = r.random()
        if roll < 0.45:
            (lt, ls), (rt, rs) = self.term(depth - 1), self.term(depth - 1)
            return Pair(lt, rt), f"({ls}, {rs})"
        if roll < 0.85:
            bt, bs = self.term(depth - 1)
            key = r.choice(self.enc_keys)
            ks = key.name if isinstance(key, Basic) else f"sk({key.args[0].name})"
            return Enc(bt, key), f"{{{bs}}}{ks}"
        at, as_ = self.term(depth - 1)
        return App(self.ctor, (at,)), f"{self.ctor}({as_})"

    def assertion(self, depth: int):
        r = self.rng
        if depth <= 0 or r.random() < 0.5:
            roll = r.random()
            (lt, ls), (rt, rs) = self.term(2), self.term(2)
            if roll < 1 / 3:
                return Eq(lt, rt), f"{ls} = {rs}"
            if roll < 2 / 3:
                p = r.choice(self.preds)
                return Pred(p, (lt,)), f"{p}({ls})"
            ag = r.choice(self.agents)
            return SentT(ag, lt), f"{ag.name} sent {ls}"
        if r.random() < 0.5:
            (la, ls), (ra, rs) = self.assertion(depth - 1), self.assertion(depth - 1)
            return And(la, ra), f"({ls} /\\ {rs})"
        ag = r.choice(self.agents)
        ba, bs = self.assertion(depth - 1)
        return Says(ag, ba), f"{ag.name} says ({bs})"

    def sequent(self) -> tuple[str, bool]:
        r = self.rng
        X = [self.term(2) for _ in range(r.randint(0, 3))]
        phi = [self.assertion(2) for _ in range(r.randint(1, 4))]
        goal, goal_s = self.assertion(2)
        lines = [f"agents: {', '.join(a.name for a in self.agents)}",
                 f"nonces: {', '.join(n.name for n in self.nonces)}",
                 f"keys: {', '.join(k.name for k in self.keys)}",
                 f"predicates: {', '.join(p + '/1' for p in self.preds)}",
                 f"constructors: {self.ctor}/1"]
        lines.append("terms: " + ", ".join(s for _, s in X) if X else "terms:")
        lines += ["assertions:", *(s for _, s in phi), f"goal: {goal_s}"]
        want = FlatOracle({t for t, _ in X}, [a for a, _ in phi]).holds(goal)
        return "\n".join(lines) + "\n", want


# Item mix of one sequents round; the seed shuffles the order.
LEAK_CERTS = (2, 3, 4)
FLAT_PER_ROUND = 8
FANOUT_KS = (3, 6, 9, 9, 9, 13)


class Sequents(Workload):
    ROUNDS = 2
    PASS_S = 1.5

    def round(self, r: int) -> list[Item]:
        rng = random.Random(f"sequents/{self.seed}/{r}")
        specs: list[tuple[str, str, bool, bool | None]] = []
        for certs in LEAK_CERTS:
            for positive in (True, False):
                specs.append((f"leak{certs}{'+' if positive else '-'}",
                              leak_sequent(rng, certs, positive), positive, False))
        flat = _FlatGen(rng)
        for _ in range(FLAT_PER_ROUND):
            text, want = flat.sequent()
            specs.append(("flat", text, want, None))
        for k in FANOUT_KS:
            specs.append((f"fanout{k}", fanout_sequent(rng, k), True, None))
        rng.shuffle(specs)
        items = []
        for i, (kind, text, want_full, want_safe) in enumerate(specs):
            label = f"r{r}.{i}.{kind}"
            items.append(Item(label, lambda l=label, t=text, f=want_full, s=want_safe:
                              decide_sequent(l, t, f, s)))
        return items


# ---------------------------------------------------------------------------
# protocols

def vote_run(label: str, proto, setup, sim_seed: int) -> Outcome:
    """simulate, write the trace, parse it back, validate the replay and
    print it again: the run must complete, replay and re-print identically.
    A run whose search hit the budget somewhere on its way is counted as
    failed, as is a run that does not complete for that reason."""
    run, _ = runtime.simulate(proto, setup, seed=sim_seed)
    text = runtime.write_trace(run)
    budget = [w for w in run.warnings if "search budget" in w]
    if not run.complete:
        if budget:
            return Outcome(BUDGET, [text], f"{label}: {budget[0]}")
        return Outcome(WRONG, [text], f"{label}: no completing run found")
    again = runtime.parse_trace(text, proto, setup)
    ok, problems, _ = runtime.validate_run(again)
    if not ok:
        return Outcome(WRONG, [text], f"{label}: replay rejected: {problems[:2]}")
    if runtime.write_trace(again) != text or again.steps != run.steps:
        return Outcome(WRONG, [text], f"{label}: replayed trace differs")
    if budget:
        return Outcome(BUDGET, [text], f"{label}: {budget[0]}")
    return Outcome(OK, [text])


TESTS = 500


def linked_check(label: str, proto, seed: int) -> Outcome:
    """check_anonymity on foo-linked with the CLI's defaults: the linked
    casts must be distinguished.  A check in which any test hit the search
    budget is counted as failed, whatever its verdict."""
    rep = anonymity.check_anonymity(proto, builtins.anonymity_foo_setup(proto, 2),
                                    seed=seed, tests=TESTS)
    text = anonymity.render_report(rep)
    if rep.verdict not in ("distinguished", "inconclusive"):
        return Outcome(WRONG, [text], f"{label}: verdict {rep.verdict}, expected distinguished")
    if rep.inconclusive:
        return Outcome(BUDGET, [text], f"{label}: {rep.inconclusive} tests hit the budget")
    if rep.verdict == "distinguished":
        return Outcome(OK, [text])
    return Outcome(WRONG, [text], f"{label}: verdict {rep.verdict}, expected distinguished")


def _run_item(label, proto, make_setup, sim_seed) -> Item:
    return Item(label, lambda: vote_run(label, proto, make_setup(proto), sim_seed))


def _linked_item(label, proto, _, seed) -> Item:
    return Item(label, lambda: linked_check(label, proto, seed))


# (label, protocol, item maker, setup factory); one round runs these in order.
PROTOCOLS_MIX = (
    ("foo2", "foo", _run_item, lambda p: builtins.default_foo_setup(p, 2)),
    ("helios", "helios", _run_item, builtins.default_helios_setup),
    ("linked", "foo-linked", _linked_item, None),
    ("foo3", "foo", _run_item, lambda p: builtins.default_foo_setup(p, 3)),
    ("foo2", "foo", _run_item, lambda p: builtins.default_foo_setup(p, 2)),
)


class Protocols(Workload):
    ROUNDS = 1
    PASS_S = 1.1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.protos = {"foo": builtins.builtin_foo(), "helios": builtins.builtin_helios(),
                       "foo-linked": builtins.builtin_foo_linked()}

    def round(self, r: int) -> list[Item]:
        rng = random.Random(f"protocols/{self.seed}/{r}")
        items = []
        for i, (kind, name, make_item, make_setup) in enumerate(PROTOCOLS_MIX):
            s = rng.randrange(1_000_000)
            items.append(make_item(f"r{r}.{i}.{kind}.seed{s}", self.protos[name], make_setup, s))
        return items


WORKLOADS = {"sequents": Sequents, "protocols": Protocols}
