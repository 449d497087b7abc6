"""Byte-identity of what runs print on fixed seeds.

The digests are sha256 over the output of `write_trace` plus the run's
warnings, and over anonymity reports, recorded at commit 71d5b96 (the
foo-linked reports of seeds 0-19 at commit 2e81273), and over `derive
--proof` output, full and `--safe`, on fixed sequents, recorded at commit
77bc8bf.  A change that only makes the program faster must leave every one
of them as it is.
CI also runs this file under three hash seeds, since no set iteration order
may leak into the output.  Terms and assertions are hash-consed, so their
hashes are object identities and set order also follows allocation: one
test re-runs a scenario in the same process with the allocator in another
state.
"""
from __future__ import annotations

import gc
import hashlib

from protassert.anonymity import check_anonymity, render_report
from protassert.builtins import (
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    default_foo_setup,
    default_helios_setup,
)
from protassert.cli import main
from protassert.runtime import simulate, write_trace
from protassert.terms import Basic, Enc, Pair, Var

GOLDEN = {
    "foo2": "7fd2d0d641a7c3fea9f3bc14649f6327604f42e0569bc1b4c89d8dc3c0b63b8e",
    "foo3": "e617f1e6b99028bcf7386e535d48b136a52c85d0cf0a648d71639d4a3a823760",
    "helios": "a47263b7b04d5ef1ce1321ff9789eb02b84d8704391490541a56bbdf109ea72a",
    "foo-linked": "a73a710e61765da53f7894b2fce3cabb415261356b37e84913d8e71569128bb3",
    "foo-linked-20": "317c020835a7d67174d17e1d89431b828ce2c2dffc6891b88c70d6624e7568ef",
    "proofs": "1457183610052d1ce811150ab32d7edbdd53ae37aa23db36c5a449e31b9a0fdb",
}

# Between them the proofs use or_e, exists_e, exists_i over witnesses from
# pattern synthesis, subst inside an existential, says and sent bodies, the
# cong, proj_pair and proj_enc rules, says introduction and bot.
SEQUENTS = {
    "leak": """\
nonces: v, 0, 1, 2
keys: k
terms: {v}k
assertions:
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 1))
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 2))
goal: ex y: {v}k = {0}y
""",
    "synthesis": """\
nonces: a1, z, n
keys: k
constructors: f/2
terms: a1, z, n, k
goal: ex x, y: (x = (y, y) /\\ y = z /\\ ex u: u = {y}k /\\ ex w: w = f(y, n))
""",
    "subst-under-ex": """\
nonces: n, m
keys: k
predicates: p/2
terms: n, m, k
assertions:
n = {m}k
ex y: p(n, (y, n))
goal: ex y: p({m}k, (y, {m}k))
""",
    "congruence": """\
nonces: n, m
keys: k
constructors: f/2
terms: n, m, k
assertions:
n = {m}k
goal: (n, k) = ({m}k, k) /\\ {n}k = {{m}k}k /\\ f(n, k) = f({m}k, k)
""",
    "projection": """\
nonces: n, m, a, b
keys: k, k2
terms: k, k2
assertions:
(n, {m}k) = ({a}k, m)
{(a, m)}k = {b}k
goal: m = {m}k /\\ n = {a}k /\\ b = (a, m)
""",
    "says": """\
agents: A, B
nonces: n, m
predicates: p/1
terms: sk(A), n, m
assertions:
B says p(n)
n = {m}sk(A)
goal: A says p({m}sk(A)) /\\ B says p({m}sk(A)) /\\ p(n)
""",
    "sent": """\
agents: A, B
nonces: n, m
predicates: p/1
terms: n
assertions:
A sent (n, m)
B sent <ex y: p((y, n)) \\/ A says p(n)>
n = {m}sk(B)
goal: A sent (n, m) /\\ A sent ({m}sk(B), m) /\\ B sent <ex y: p((y, {m}sk(B))) \\/ A says p({m}sk(B))>
""",
    "bottom": """\
nonces: n, m
predicates: q/1
terms: n
assertions:
n = m
goal: q(n)
""",
}


def _runs_digest(proto, setup, seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        run, _ = simulate(proto, setup, seed=seed)
        h.update(write_trace(run).encode())
        h.update(("\n".join(run.warnings) + "\n").encode())
    return h.hexdigest()


def test_simulated_runs_are_unchanged():
    foo, helios = builtin_foo(), builtin_helios()
    got = {
        "foo2": _runs_digest(foo, default_foo_setup(foo, 2), range(10)),
        "foo3": _runs_digest(foo, default_foo_setup(foo, 3), range(10)),
        "helios": _runs_digest(helios, default_helios_setup(helios), range(5)),
    }
    assert got == {k: GOLDEN[k] for k in got}


def _reports_digest(proto, seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        rep = check_anonymity(proto, anonymity_foo_setup(proto, 2), seed=seed)
        h.update((render_report(rep) + "\n").encode())
    return h.hexdigest()


def test_anonymity_reports_are_unchanged():
    assert _reports_digest(builtin_foo_linked(), range(2)) == GOLDEN["foo-linked"]


def test_distinguishers_are_described_as_before():
    # each of these reports names the test that told the runs apart, which
    # the battery prints only once it has found it
    assert _reports_digest(builtin_foo_linked(), range(20)) == GOLDEN["foo-linked-20"]


def test_derive_proofs_are_unchanged(tmp_path, capsys):
    h = hashlib.sha256()
    for name, text in SEQUENTS.items():
        path = tmp_path / f"{name}.seq"
        path.write_text(text, encoding="utf-8")
        for extra in ([], ["--safe"]):
            rc = main(["derive", str(path), "--proof", *extra])
            h.update(f"{name} {extra} exit {rc}\n".encode())
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == GOLDEN["proofs"]


def test_output_does_not_depend_on_allocation_order(capsys):
    def scenario() -> str:
        assert main(["simulate", "foo", "--seed", "3"]) == 0
        assert main(["anonymity", "foo", "--seeds", "1"]) == 0
        return capsys.readouterr().out

    first = scenario()
    # Terms built and dropped, and terms still alive during the second run,
    # move where the allocator puts that run's objects.
    key = Basic("k-unrelated", "key")
    kept = [Enc(Pair(Var(f"x{i}"), Basic(f"n{i}", "nonce")), key) for i in range(3000)]
    dropped = [Pair(t, Basic(f"m{i}", "nonce")) for i, t in enumerate(kept)]
    del dropped
    gc.collect()
    assert scenario() == first
    assert len(kept) == 3000
