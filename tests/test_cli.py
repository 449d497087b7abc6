from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import protassert
from protassert.builtins import FOO_SOURCE
from protassert.checker import replay_assertion_proof
from protassert.cli import main
from protassert.engine import derive, derive_safe
from protassert.syntax import MAX_CHAIN, parse_protocol, parse_sequent

LEAK = """\
# an agent holding only the ciphertext learns the plaintext from two
# certificates that each reveal it only up to a disjunction
nonces: v, 0, 1, 2
keys: k
terms: {v}k
assertions:
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 1))
ex x, y: ({v}k = {x}y /\\ (x = 0 \\/ x = 2))
goal: ex y: {v}k = {0}y
"""

UNDERIVABLE = """\
nonces: n, m
terms: n
goal: n = m
"""


def _write(tmp_path, name: str, text: str) -> str:
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


def test_derive_leak_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "leak.seq", LEAK)
    assert main(["derive", path]) == 0
    assert "derivable" in capsys.readouterr().out


def test_derive_proof_flag_prints_the_tree(tmp_path, capsys):
    path = _write(tmp_path, "leak.seq", LEAK)
    assert main(["derive", path, "--proof"]) == 0
    out = capsys.readouterr().out
    assert "[exists_e]" in out
    assert "[or_e]" in out
    assert "[exists_i]" in out


def test_derive_proof_does_not_depend_on_the_hash_seed(tmp_path):
    # split order and witness names come from sorted hypotheses, never from
    # set iteration order; the two certificates iterate in different orders
    # under these two hash seeds
    path = _write(tmp_path, "leak.seq", LEAK)
    src = str(Path(protassert.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "protassert.cli", "derive", path, "--proof"],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert b"[or_e]" in outs[0]
    assert outs[0] == outs[1]


def test_derive_safe_mode_blocks_the_leak(tmp_path, capsys):
    path = _write(tmp_path, "leak.seq", LEAK)
    assert main(["derive", path, "--safe"]) == 1
    assert "not derivable" in capsys.readouterr().out


def test_derive_negative_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "bad.seq", UNDERIVABLE)
    assert main(["derive", path]) == 1
    assert "not derivable" in capsys.readouterr().out


def test_derive_parse_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "broken.seq", "goal: ] [\n")
    assert main(["derive", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_deeply_nested_sequent_exits_two_without_a_traceback(tmp_path):
    # a 3000-deep pair used to end in a RecursionError traceback and exit 1,
    # the code of a definite negative
    deep = "(" * 3000 + "n" + ", n)" * 3000
    path = _write(tmp_path, "deep.seq", f"nonces: n\nterms: {deep}\ngoal: n = n\n")
    src = str(Path(protassert.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "protassert.cli", "derive", path],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_chain_twice_the_limit_exits_two_without_an_internal_error(tmp_path, capsys):
    # a long enough chain of /\ or \/ used to crash downstream in a
    # RecursionError (exit 3): the parser refuses it, in a sequent's
    # hypothesis or goal and in a protocol
    ops = [f"p(c{i})" for i in range(2 * MAX_CHAIN + 1)]
    names = ", ".join(f"c{i}" for i in range(len(ops)))
    chain, either = " /\\ ".join(ops), " \\/ ".join(ops)
    proto = (f"protocol chain\nagents A\nnonces {names}\npredicates p/1\nrole r:\n"
             f"  send id : c0, id says ({chain})\n")
    runs = [["derive", _write(tmp_path, "hyp.seq", f"nonces: {names}\nassertions: {chain}\n"
                                                   f"goal: p(c0)\n")],
            ["derive", _write(tmp_path, "goal.seq", f"nonces: {names}\ngoal: ex x: ({either})\n"),
             "--proof"],
            ["simulate", _write(tmp_path, "chain.proto", proto), "--sessions", "r(id=A)"]]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"more than {MAX_CHAIN} " in err and "internal error" not in err


def test_unexpected_error_is_an_internal_error_on_exit_three(tmp_path, capsys,
                                                             monkeypatch):
    # a crash must never read as a definite negative (exit 1)
    import protassert.cli as cli

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded\nin comparison")

    monkeypatch.setattr(cli, "derive", crash)
    path = _write(tmp_path, "bad.seq", UNDERIVABLE)
    assert main(["derive", path]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("internal error: RecursionError: "
                       "maximum recursion depth exceeded in comparison\n")


def test_derive_missing_file_exits_two(tmp_path, capsys):
    assert main(["derive", str(tmp_path / "nope.seq")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_builtins(capsys):
    for name in ("foo", "foo-linked", "helios"):
        assert main(["validate", name]) == 0
        assert "validates" in capsys.readouterr().out


def test_validate_flags_a_broken_protocol(tmp_path, capsys):
    src = """\
protocol bad
agents A, B
nonces n

role r:
  send id : (n, x)
"""
    path = _write(tmp_path, "bad.proto", src)
    assert main(["validate", path]) == 1
    assert "unbound-variable" in capsys.readouterr().out


def test_simulate_is_reproducible(capsys):
    assert main(["simulate", "foo", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "foo", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("run foo seed=3")


def test_replay_accepts_a_simulated_trace(tmp_path, capsys):
    assert main(["simulate", "helios", "--seed", "1"]) == 0
    trace = capsys.readouterr().out
    path = _write(tmp_path, "run.trace", trace)
    assert main(["replay", "helios", path]) == 0
    assert "steps check out" in capsys.readouterr().out


def test_replay_rejects_a_tampered_trace(tmp_path, capsys):
    assert main(["simulate", "foo", "--seed", "0"]) == 0
    trace = capsys.readouterr().out
    # claim the first commitment came from the other voter
    tampered = trace.replace("bind W=V0, env={v0}k_3",
                             "bind W=V1, env={v0}k_3", 1)
    assert tampered != trace
    path = _write(tmp_path, "cut.trace", tampered)
    assert main(["replay", "foo", path]) == 1
    out = capsys.readouterr().out
    assert "never offered" in out or "cannot justify" in out


# The receiver must refuse p(z) from z and p(y) \/ p(z): a definite refusal
# splits the disjunction, which --branches 1 forbids.
T2 = """\
protocol t2
agents A, B
nonces z, y
predicates p/1
role s:
  insert id : p(z)
  send id : z, (p(y) \\/ p(z))
role r:
  recv id : z, (p(y) \\/ p(z))
  deny id : p(z)
  send id : y
"""
T2_SESSIONS = ["--sessions", "s(id=A); r(id=B)"]


def test_a_run_stopped_by_a_budget_exits_three(tmp_path, capsys):
    proto = _write(tmp_path, "t2.proto", T2)
    assert main(["simulate", proto, *T2_SESSIONS]) == 0
    trace = _write(tmp_path, "t2.trace", capsys.readouterr().out)
    assert main(["replay", proto, trace, *T2_SESSIONS]) == 0
    capsys.readouterr()
    assert main(["simulate", proto, *T2_SESSIONS, "--branches", "1"]) == 3
    err = capsys.readouterr().err
    assert "deny blocked, refusal not definite under the search budget" in err
    assert "no completing run found" in err
    assert main(["replay", proto, trace, *T2_SESSIONS, "--branches", "1"]) == 3
    assert capsys.readouterr().out == "step 4: deny not definite under the budget\n"


def test_a_sender_without_its_assertion_still_exits_one(tmp_path, capsys):
    proto = _write(tmp_path, "t2.proto", T2)
    assert main(["simulate", proto, *T2_SESSIONS]) == 0
    trace = _write(tmp_path, "t2.trace", capsys.readouterr().out)
    mute = _write(tmp_path, "mute.proto", T2.replace("insert id : p(z)", "insert id : z = z"))
    for budget in ([], ["--branches", "1"]):
        assert main(["simulate", mute, *T2_SESSIONS, *budget]) == 1
        assert "no completing run found" in capsys.readouterr().err
        assert main(["replay", mute, trace, *T2_SESSIONS, *budget]) == 1
        assert "send assertion not derivable" in capsys.readouterr().out


# B's receive teaches B p(z), which B's pending deny refuses: the run
# completes only if the deny comes before the receive.
T3 = """\
protocol t3
agents A, B
nonces z
predicates p/1
role s:
  insert id : p(z)
  send id : z, p(z)
role r:
  recv id : z, p(z)
role d:
  deny id : p(z)
"""


def test_simulate_completes_whatever_the_session_order(tmp_path, capsys):
    proto = _write(tmp_path, "t3.proto", T3)
    for order in ("s(id=A); r(id=B); d(id=B)", "d(id=B); s(id=A); r(id=B)",
                  "r(id=B); d(id=B); s(id=A)"):
        for seed in range(6):
            assert main(["simulate", proto, "--sessions", order, "--seed", str(seed)]) == 0
            trace = _write(tmp_path, "t3.trace", capsys.readouterr().out)
            assert main(["replay", proto, trace, "--sessions", order]) == 0
            capsys.readouterr()


def test_replay_of_a_non_key_in_a_key_slot_is_a_parse_error(tmp_path, capsys):
    assert main(["simulate", "foo", "--seed", "0"]) == 0
    trace = capsys.readouterr().out
    assert trace.count("k=k_3:key") == 1
    path = _write(tmp_path, "nonce.trace", trace.replace("k=k_3:key", "k=k_3:nonce"))
    assert main(["replay", "foo", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: step 1: encryption key must be key material")
    assert "internal error" not in captured.err


def test_simulate_with_an_unbound_role_parameter_is_a_usage_error(capsys):
    # voter(v) without v can never run; that is no definite negative
    rc = main(["simulate", "foo", "--sessions", "voter(id=V0)"])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.startswith("parse error: ") and "ground" in captured.err
    assert captured.out == ""


def test_simulate_without_an_id_is_a_usage_error(capsys):
    rc = main(["simulate", "foo", "--sessions", "voter(v=v0)"])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.startswith("parse error: ") and "internal error" not in captured.err


def test_derive_key_slot_witness_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "slot.seq", "nonces: c, d\nkeys: k\nterms: c, d, k\n"
                  "goal: ex x: (x = c \\/ x = k) /\\ {d}x = {d}x\n")
    assert main(["derive", path]) == 0
    assert capsys.readouterr().out == "derivable\n"


VACUOUS = """\
nonces: n
predicates: p/1
terms:{terms}
assertions:
ex y: p(y)
goal: ex x: ex y: p(y)
"""


def test_derive_vacuous_binder_is_derivable_in_both_modes(tmp_path, capsys):
    # x takes the least term of the branch's universe: n when X holds it;
    # else in full mode the witness _w1 that exists_e opened for the
    # hypothesis, and in safe mode, where the universe is empty, _w0
    for terms, witnesses in (("", ("_w1", "_w0")), (" n", ("n", "n"))):
        text = VACUOUS.format(terms=terms)
        path = _write(tmp_path, "vacuous.seq", text)
        seq = parse_sequent(text)
        for mode, fn, witness in zip(([], ["--safe"]), (derive, derive_safe), witnesses):
            assert main(["derive", path, *mode]) == 0
            assert capsys.readouterr().out == "derivable\n"
            assert main(["derive", path, "--proof", *mode]) == 0
            out = capsys.readouterr().out
            assert f"[exists_i] ex x, y: p(y) witness {witness}\n" in out
            proof = fn(seq.terms, seq.assertions, seq.goal).proof  # the tree printed
            intro = proof if proof.rule == "exists_i" else proof.premises[1]
            assert intro.witness.name == witness
            assert replay_assertion_proof(proof, seq.terms, seq.assertions, seq.goal) == (True, None)


def test_derive_an_equation_hole_over_nothing_declared_takes_w0(tmp_path, capsys):
    # x's only anchor is the equation x = x, whose bound hole draws on the
    # empty universe: it takes the variable _w0, as a vacuous binder does
    text = "goal: ex x: x = x\n"
    path = _write(tmp_path, "refl.seq", text)
    seq = parse_sequent(text)
    for mode, fn in (([], derive), (["--safe"], derive_safe)):
        assert main(["derive", path, *mode]) == 0
        assert capsys.readouterr().out == "derivable\n"
        assert main(["derive", path, "--proof", *mode]) == 0
        out = capsys.readouterr().out
        assert out.startswith("derivable\n[exists_i] ex x: x = x witness _w0\n  [refl] _w0 = _w0\n")
        proof = fn(seq.terms, seq.assertions, seq.goal).proof  # the tree printed
        assert proof.rule == "exists_i" and proof.witness.name == "_w0"
        assert replay_assertion_proof(proof, seq.terms, seq.assertions, seq.goal) == (True, None)


def test_derive_a_hole_between_compound_sides_draws_as_a_bare_hole(tmp_path, capsys):
    # x is the only hole of (x, x) = (x, x) and neither side is x or closed,
    # so nothing is matched: x draws on the universe as a bare hole does,
    # _w0 over nothing declared and n over terms: n
    goal = "ex x: (x, x) = (x, x)"
    for decls, w in (("", "_w0"), ("nonces: n\nterms: n\n", "n")):
        text = f"{decls}goal: {goal}\n"
        path = _write(tmp_path, "pairs.seq", text)
        seq = parse_sequent(text)
        for mode, fn in (([], derive), (["--safe"], derive_safe)):
            assert main(["derive", path, *mode]) == 0
            assert capsys.readouterr().out == "derivable\n"
            assert main(["derive", path, "--proof", *mode]) == 0
            assert capsys.readouterr().out.startswith(
                f"derivable\n[exists_i] {goal} witness {w}\n"
                f"  [cong_pair] ({w}, {w}) = ({w}, {w})\n    [refl] {w} = {w}\n")
            proof = fn(seq.terms, seq.assertions, seq.goal).proof  # the tree printed
            assert proof.rule == "exists_i" and proof.witness.name == w
            assert [p.rule for p in proof.premises[0].premises] == ["refl", "refl"]
            assert replay_assertion_proof(proof, seq.terms, seq.assertions, seq.goal) == (True, None)


def test_derive_a_hole_beside_another_hole_draws_as_a_bare_hole(tmp_path, capsys):
    # x is a hole of y = (x, n) and of (x, y) = (y, x), whose sides both hold
    # a hole and neither is x: nothing is matched, and x draws on the
    # universe as a bare hole does, n over terms: n and _w0 over nothing
    # declared; y then takes its own witness
    cases = (("nonces: n\nterms: n\n", "ex x, y: y = (x, n)", "n"),
             ("nonces: n\nterms: n\n", "ex x, y: (x, y) = (y, x)", "n"),
             ("", "ex x, y: (x, y) = (y, x)", "_w0"))
    for decls, goal, w in cases:
        text = f"{decls}goal: {goal}\n"
        path = _write(tmp_path, "holes.seq", text)
        seq = parse_sequent(text)
        for mode, fn in (([], derive), (["--safe"], derive_safe)):
            assert main(["derive", path, *mode]) == 0
            assert capsys.readouterr().out == "derivable\n"
            assert main(["derive", path, "--proof", *mode]) == 0
            assert capsys.readouterr().out.startswith(f"derivable\n[exists_i] {goal} witness {w}\n")
            proof = fn(seq.terms, seq.assertions, seq.goal).proof  # the tree printed
            assert proof.rule == "exists_i" and proof.witness.name == w
            assert replay_assertion_proof(proof, seq.terms, seq.assertions, seq.goal) == (True, None)


def test_derive_cut_synthesis_is_no_definite_negative(tmp_path, capsys):
    # z is the tenth term of the universe, past the eight candidates pattern
    # synthesis keeps per child: a search that cut it answers inconclusive
    # (exit 3), never "not derivable" (exit 1); with fewer nonces it is found
    nonces = ", ".join([f"a{i}" for i in range(1, 10)] + ["z"])
    goal = "goal: ex x, y: (x = (y, y) /\\ y = z)\n"
    path = _write(tmp_path, "cut.seq", f"nonces: {nonces}\nterms: {nonces}\n{goal}")
    for extra in ([], ["--depth", "4"]):
        assert main(["derive", path, *extra]) == 3
        assert capsys.readouterr().out == "inconclusive: search budget exhausted\n"
    path = _write(tmp_path, "few.seq", f"nonces: a1, z\nterms: a1, z\n{goal}")
    assert main(["derive", path]) == 0
    assert capsys.readouterr().out == "derivable\n"


def test_derive_a_witness_past_the_depth_is_no_definite_negative(tmp_path, capsys):
    # x = (y, n) needs a pair synthesized for x: at depth 0 the synthesis is
    # cut, which leaves the question open (exit 3); one level finds it
    path = _write(tmp_path, "deep.seq", "nonces: n\nterms: n\ngoal: ex x, y: x = (y, n)\n")
    assert main(["derive", path, "--depth", "0"]) == 3
    assert capsys.readouterr().out == "inconclusive: search budget exhausted\n"
    assert main(["derive", path, "--depth", "1"]) == 0
    assert capsys.readouterr().out == "derivable\n"


# each voter commits under a fresh key and attaches a disjunction, which a
# test the observer cannot answer at the root must split
SPLIT = """\
protocol split
phases commit, cast
agents V0, V1
nonces v0, v1

role voter(v):
  send id fresh(k) : {v}k, ({v}k = {v}k \\/ {v}k = {v}k)
  @cast send* id : v
"""


def test_anonymity_with_tests_past_the_branch_cap_exits_three(tmp_path, capsys):
    argv = ["anonymity", _write(tmp_path, "split.proto", SPLIT), "--seeds", "1",
            "--tests", "20", "--sessions", "voter(id=V0, v=v0); voter(id=V1, v=v1)"]
    assert main(argv) == 0
    assert "verdict=indistinguishable tests=64 inconclusive=0" in capsys.readouterr().out
    assert main(argv + ["--branches", "0"]) == 3
    assert capsys.readouterr().out == (
        "anonymity split seed=0 verdict=inconclusive tests=64 inconclusive=58\n"
        "  safety: not established\n"
        "  note: knowledge closure exceeded the budget\n")


def test_anonymity_foo_is_clean(capsys):
    rc = main(["anonymity", "foo", "--seeds", "1", "--tests", "60"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "verdict=indistinguishable" in out
    assert "all 1 seeds indistinguishable" in out


def test_anonymity_linked_variant_fails(capsys):
    rc = main(["anonymity", "foo-linked", "--seeds", "1", "--tests", "60"])
    out = capsys.readouterr().out
    assert rc == 1, out
    assert "verdict=distinguished" in out


def test_anonymity_three_voters(capsys):
    rc = main(["anonymity", "foo", "--seeds", "1", "--tests", "40",
               "--voters", "3"])
    out = capsys.readouterr().out
    assert rc == 0, out


def test_anonymity_too_many_voters_is_a_usage_error(capsys):
    rc = main(["anonymity", "foo", "--voters", "5", "--seeds", "1"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and "voters" in err
    assert "internal error" not in err


def test_anonymity_unknown_voter_role_is_a_usage_error(capsys):
    # refused once, before any seed runs, and not as a failed check (exit 3)
    rc = main(["anonymity", "foo", "--voter-role", "nobody", "--seeds", "3"])
    captured = capsys.readouterr()
    assert rc == 2, captured.out
    assert captured.err == "error: no role named 'nobody'\n"
    assert captured.out == ""


# foo with its voter role named elector: the role line, its layout entry
# and the registrar's per-session roll
ELECTOR = (FOO_SOURCE.replace("role voter(", "role elector(")
           .replace("; voter(id=V", "; elector(id=V")
           .replace("setup Auth per voter:", "setup Auth per elector:"))


def test_anonymity_without_a_voter_role_is_a_usage_error(tmp_path, capsys):
    # the voter role is the one named voter, unless --voter-role names it
    path = _write(tmp_path, "elector.proto", ELECTOR)
    assert main(["anonymity", path, "--seeds", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no role named 'voter'\n")
    want = main(["anonymity", "foo", "--seeds", "2"]), capsys.readouterr().out
    assert (main(["anonymity", path, "--seeds", "2", "--voter-role", "elector"]),
            capsys.readouterr().out) == want


def test_anonymity_zero_voters_is_a_usage_error(capsys):
    rc = main(["anonymity", "foo", "--voters", "0", "--seeds", "1", "--tests", "5"])
    captured = capsys.readouterr()
    assert rc == 2, captured.out
    assert captured.err.startswith("error: ") and "voters" in captured.err
    assert "indistinguishable" not in captured.out


def test_anonymity_without_seeds_is_a_usage_error(capsys):
    # no run at all must never read as "all 0 seeds indistinguishable"
    for seeds in ("0", "-3"):
        rc = main(["anonymity", "foo", "--seeds", seeds, "--tests", "5"])
        captured = capsys.readouterr()
        assert rc == 2, captured.out
        assert captured.err.startswith("error: ") and "--seeds" in captured.err
        assert captured.out == ""


def test_anonymity_without_a_scenario_prints_the_plain_message(tmp_path, capsys):
    path = _write(tmp_path, "one.proto", "protocol one\nagents A\nrole r:\n  send id : A\n")
    rc = main(["anonymity", path, "--seeds", "1"])
    captured = capsys.readouterr()
    assert rc == 2, captured.out
    assert captured.err == "parse error: one states no sessions, so it needs --sessions at cli\n"
    assert captured.out == ""


def test_anonymity_of_helios_runs_the_scenario_its_text_states(capsys):
    # no phase separates helios's casts, so its twin is refused at the first
    assert main(["anonymity", "helios", "--seeds", "1"]) == 3
    assert capsys.readouterr().out == (
        "anonymity helios seed=0 verdict=failed tests=0 inconclusive=0\n"
        "  safety: not established\n"
        "  note: the vote-swapped run is not a valid run\n"
        "  note: step 6: session 2 has no cast pending\n")


def test_negative_counts_are_usage_errors(capsys):
    # a negative count must not run a shortened check and report success
    for argv in (["anonymity", "foo", "--tests", "-5", "--seeds", "1"],
                 ["anonymity", "foo", "--test-depth", "-1", "--seeds", "1"],
                 ["simulate", "foo", "--depth", "-1"],
                 ["simulate", "foo", "--branches", "-1"],
                 ["derive", "unread.seq", "--depth", "-2"]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert "must be at least 0" in captured.err, argv
        assert captured.out == "", argv
    assert main(["simulate", "foo", "--depth", "two"]) == 2
    assert "invalid int value: 'two'" in capsys.readouterr().err


def test_examples_listing_and_source(capsys):
    assert main(["examples"]) == 0
    names = capsys.readouterr().out.split()
    assert names == ["foo", "foo-linked", "helios"]
    assert main(["examples", "foo"]) == 0
    src = capsys.readouterr().out
    proto = parse_protocol(src, "foo")
    assert proto.name == "foo"


def test_examples_unknown_name(capsys):
    assert main(["examples", "nonesuch"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2


FOO3 = "; ".join(["authority(id=Auth)"] * 3 + [f"voter(id=V{i}, v=v{i})" for i in range(3)]
                 + ["counter(id=Cnt)"] * 3)


def test_simulate_and_replay_run_three_voter_foo(tmp_path, capsys):
    # --sessions replaces only the layout: the builtin's valid and elg
    # databases come along, and a replay reads the trace's own sessions
    proto = protassert.builtin_foo()
    want = protassert.write_trace(
        protassert.simulate(proto, protassert.default_foo_setup(proto, 3), seed=0)[0])
    assert main(["simulate", "foo", "--sessions", FOO3]) == 0
    assert capsys.readouterr().out == want
    trace = _write(tmp_path, "foo3.trace", want)
    for extra in ([], ["--sessions", FOO3]):
        assert main(["replay", "foo", trace, *extra]) == 0
        assert capsys.readouterr().out == "run replays: 30 steps check out\n"


def test_anonymity_sessions_keep_the_observer_keys(capsys):
    layout = "; ".join(["authority(id=Auth)"] * 2 + [f"voter(id=V{i}, v=v{i})" for i in range(2)]
                       + ["counter(id=Cnt)"] * 2)
    argv = ["anonymity", "foo", "--seeds", "1", "--tests", "20"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(argv + ["--sessions", layout]) == 0
    assert capsys.readouterr().out == want


def _printed(tmp_path, capsys, name: str) -> str:
    """`examples name > name.proto`: the builtin's text in a file."""
    assert main(["examples", name]) == 0
    return _write(tmp_path, f"{name}.proto", capsys.readouterr().out)


def _same_outputs(capsys, name: str, path: str, *argv: str) -> None:
    """The command prints the same bytes, with the same exit code, on the
    builtin as on its printed text."""
    want = main([argv[0], name, *argv[1:]]), capsys.readouterr().out
    assert (main([argv[0], path, *argv[1:]]), capsys.readouterr().out) == want, argv


@pytest.mark.parametrize("name", ["foo", "foo-linked", "helios"])
def test_a_printed_example_simulates_and_replays_as_its_builtin(tmp_path, capsys, name):
    path = _printed(tmp_path, capsys, name)
    for seed in range(5):
        assert main(["simulate", name, "--seed", str(seed)]) == 0
        trace = _write(tmp_path, "run.trace", capsys.readouterr().out)
        _same_outputs(capsys, name, path, "simulate", "--seed", str(seed))
        _same_outputs(capsys, name, path, "replay", trace)
    if name == "foo":  # the layout --sessions gives keeps the stated facts
        _same_outputs(capsys, name, path, "simulate", "--sessions", FOO3)


@pytest.mark.parametrize("name, voters, seeds", [
    ("foo", 2, 5), ("foo", 3, 5), ("foo", 4, 5), ("foo-linked", 2, 20), ("helios", 2, 1)])
def test_a_printed_example_checks_anonymity_as_its_builtin(tmp_path, capsys, name, voters, seeds):
    path = _printed(tmp_path, capsys, name)
    _same_outputs(capsys, name, path, "anonymity", "--voters", str(voters), "--seeds", str(seeds))


def test_simulate_of_a_protocol_file_needs_sessions(tmp_path, capsys):
    path = _write(tmp_path, "one.proto", "protocol one\nagents A\nrole r:\n  send id : A\n")
    assert main(["simulate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: one states no sessions, so it needs --sessions at cli\n"


def test_derive_proof_decrypts_under_a_variable_key(tmp_path, capsys):
    path = _write(tmp_path, "dec.seq", "nonces: n\nterms: {n}x\ngoal: n = n\n")
    assert main(["derive", path, "--proof"]) == 0
    assert capsys.readouterr().out == (
        "derivable\n"
        "[refl] n = n\n"
        "  | [dec] n\n"
        "  |   [ax] {n}x\n"
        "  |   [var] x\n")
