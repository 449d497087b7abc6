"""Byte-identity of what runs print on fixed seeds.

The digests are sha256 over the output of `write_trace` plus the run's
warnings, and over anonymity reports, recorded at commit 71d5b96.  A change
that only makes the program faster must leave every one of them as it is.
CI also runs this file under two hash seeds, since no set iteration order
may leak into the output.
"""
from __future__ import annotations

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
from protassert.runtime import simulate, write_trace

GOLDEN = {
    "foo2": "7fd2d0d641a7c3fea9f3bc14649f6327604f42e0569bc1b4c89d8dc3c0b63b8e",
    "foo3": "e617f1e6b99028bcf7386e535d48b136a52c85d0cf0a648d71639d4a3a823760",
    "helios": "a47263b7b04d5ef1ce1321ff9789eb02b84d8704391490541a56bbdf109ea72a",
    "foo-linked": "a73a710e61765da53f7894b2fce3cabb415261356b37e84913d8e71569128bb3",
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


def test_anonymity_reports_are_unchanged():
    proto = builtin_foo_linked()
    h = hashlib.sha256()
    for seed in range(2):
        rep = check_anonymity(proto, anonymity_foo_setup(proto, 2), seed=seed)
        h.update((render_report(rep) + "\n").encode())
    assert h.hexdigest() == GOLDEN["foo-linked"]
