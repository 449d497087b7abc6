"""Seeded mutation fuzzing of every text format.

The builtin protocol sources, sequents and traces are mutated (characters
deleted, inserted, duplicated or swapped, lines cut short) and read back.
A parser may accept a mutant or refuse it with a ParseError, nothing else;
through the CLI every mutant must end with an exit code of the contract
(0, 1, 2 or 3) and without a traceback on stderr, also when `simulate`
runs the scenario a mutated protocol source states.
"""
from __future__ import annotations

import random

import pytest

from protassert import ParseError, parse_protocol, parse_sequent, parse_sessions, parse_trace
from protassert.builtins import SOURCES, builtin_foo, builtin_helios, default_foo_setup, default_helios_setup
from protassert.cli import main
from protassert.runtime import simulate, write_trace
from test_golden_output import SEQUENTS

ALPHABET = "abxyzAV0v19 _,:;=()[]{}<>/\\*@#-$\n\t'\"%"


def _mutate(text: str, rng: random.Random) -> str:
    """text with one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 6))
        op = rng.randrange(5)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 2:
            text = text[:i] + text[i:j] + text[i:]
        elif op == 3 and j - i >= 2:
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
        else:
            end = text.find("\n", i)
            text = text[:i] + (text[end:] if end >= 0 else "")
    return text


def _traces():
    foo, helios = builtin_foo(), builtin_helios()
    return [(foo, write_trace(simulate(foo, default_foo_setup(foo), seed=0)[0])),
            (helios, write_trace(simulate(helios, default_helios_setup(helios), seed=0)[0]))]


def _refused(parse, text: str) -> bool:
    try:
        parse(text)
    except ParseError:
        return True
    return False


def test_mutated_texts_parse_or_raise_parse_errors():
    rng = random.Random(12)
    foo, traces = builtin_foo(), _traces()
    mutants = refused = 0
    for _ in range(100):
        for source in SOURCES.values():
            refused += _refused(parse_protocol, _mutate(source, rng))
        for text in SEQUENTS.values():
            refused += _refused(parse_sequent, _mutate(text, rng))
        for proto, trace in traces:
            refused += _refused(lambda t: parse_trace(t, proto), _mutate(trace, rng))
        refused += _refused(lambda t: parse_sessions(t, foo),
                            _mutate("voter(id=V0, v=v0); authority(id=Auth)", rng))
        mutants += len(SOURCES) + len(SEQUENTS) + len(traces) + 1
    assert refused > mutants / 2 and mutants - refused > 30  # both outcomes occur


def _run(argv, capsys) -> tuple[int, str]:
    rc = main(argv)
    err = capsys.readouterr().err
    return rc, err


@pytest.mark.parametrize("seed", range(3))
def test_mutated_files_keep_the_exit_code_contract(tmp_path, capsys, seed):
    rng = random.Random(seed)
    traces = _traces()
    budget = ["--branches", "64", "--depth", "1"]
    codes = set()
    for i in range(12):
        path = tmp_path / f"case{i}"
        name = rng.choice(sorted(SEQUENTS))
        path.write_text(_mutate(SEQUENTS[name], rng), encoding="utf-8")
        rc, err = _run(["derive", str(path), *budget], capsys)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err, (name, path.read_text())
        codes.add(rc)
        path.write_text(_mutate(rng.choice(sorted(SOURCES.values())), rng), encoding="utf-8")
        rc, err = _run(["validate", str(path)], capsys)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err, path.read_text()
        codes.add(rc)
        rc, err = _run(["simulate", str(path), *budget], capsys)  # the scenario the text states
        assert rc in (0, 1, 2, 3) and "Traceback" not in err, path.read_text()
        codes.add(rc)
        proto, trace = traces[i % 2]
        path.write_text(_mutate(trace, rng), encoding="utf-8")
        rc, err = _run(["replay", proto.name, str(path), *budget], capsys)
        assert rc in (0, 1, 2, 3) and "Traceback" not in err, path.read_text()
        codes.add(rc)
    assert 2 in codes and len(codes) > 1  # refused, and run
