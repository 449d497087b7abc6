"""Command line interface.

Exit codes: 0 for a positive outcome (derivable, valid, complete,
indistinguishable), 1 for a definite negative one, 2 for usage or parse
errors, 3 when the search budget left the question open: so does a run
that `simulate` did not complete after cutting its search, or whose
`replay` problems all rest on a budget.  An unexpected error
(RecursionError and MemoryError included) is reported on one `internal
error: ...` line, without a traceback, and also exits 3: it leaves the
question open and is never taken for a definite negative.
"""
from __future__ import annotations

import argparse
import sys

from .anonymity import check_anonymity, render_report
from .builtins import BUILTINS, SOURCES
from .dy import ProofNode, TermProof
from .engine import DEFAULT_BUDGET, SearchBudget, derive, derive_safe
from .protocol import Protocol, validate_protocol
from .runtime import Setup, parse_trace, run_problems, simulate, stated_setup, write_trace
from .syntax import (
    ParseError,
    parse_protocol,
    parse_sequent,
    parse_sessions,
    print_assertion,
    print_term,
)

EX_OK = 0
EX_NEGATIVE = 1
EX_USAGE = 2
EX_INCONCLUSIVE = 3


def _count(text: str) -> int:
    """An argparse type: a whole number, zero or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _budget(args) -> SearchBudget:
    return SearchBudget(witness_depth=args.depth, branch_cap=args.branches)


def _load_protocol(name_or_path: str) -> Protocol:
    if name_or_path in BUILTINS:
        return BUILTINS[name_or_path]()
    with open(name_or_path, encoding="utf-8") as fh:
        return parse_protocol(fh.read(), name_or_path)


def _render_term_proof(p: TermProof, indent: str, out: list[str]) -> None:
    out.append(f"{indent}[{p.rule}] {print_term(p.concl)}")
    for q in p.premises:
        _render_term_proof(q, indent + "  ", out)


def _render_proof(node: ProofNode, indent: str, out: list[str]) -> None:
    extra = ""
    if node.witness is not None:
        extra = f" witness {print_term(node.witness)}"
    if node.fresh is not None:
        extra += f" fresh {node.fresh}"
    out.append(f"{indent}[{node.rule}] {print_assertion(node.concl)}{extra}")
    for tp in node.term_proofs:
        _render_term_proof(tp, indent + "  | ", out)
    for q in node.premises:
        _render_proof(q, indent + "  ", out)


def cmd_derive(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        seq = parse_sequent(fh.read(), args.file)
    fn = derive_safe if args.safe else derive
    verdict = fn(seq.terms, seq.assertions, seq.goal, _budget(args))
    if verdict.derivable:
        print("derivable")
        if args.proof and verdict.proof is not None:
            lines: list[str] = []
            _render_proof(verdict.proof, "", lines)
            print("\n".join(lines))
        return EX_OK
    if verdict.budget_exhausted:
        print("inconclusive: search budget exhausted")
        return EX_INCONCLUSIVE
    print("not derivable")
    return EX_NEGATIVE


def cmd_validate(args) -> int:
    proto = _load_protocol(args.protocol)
    diags = validate_protocol(proto)
    for d in diags:
        print(f"{d.code} at {d.role}[{d.index + 1}]: {d.detail}")
    if diags:
        return EX_NEGATIVE
    print(f"protocol {proto.name} validates: "
          f"{len(proto.roles)} roles, {len(proto.phases)} phases")
    return EX_OK


def _setup(proto: Protocol, sessions: str | None, voters: int = 2,
           privacy: bool = False) -> Setup:
    """The scenario the text states, over --sessions when given, else over
    its layout at the voter count."""
    if sessions:
        return stated_setup(proto, parse_sessions(sessions, proto), privacy)
    if not proto.scenario.layout:
        raise ParseError(f"{proto.name} states no sessions, so it needs --sessions", "cli")
    return stated_setup(proto, voters, privacy)


def cmd_simulate(args) -> int:
    proto = _load_protocol(args.protocol)
    setup = _setup(proto, args.sessions)
    run, state = simulate(proto, setup, seed=args.seed, budget=_budget(args))
    sys.stdout.write(write_trace(run))
    for w in run.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if run.complete:
        return EX_OK
    return EX_INCONCLUSIVE if run.cut else EX_NEGATIVE


def cmd_replay(args) -> int:
    proto = _load_protocol(args.protocol)
    with open(args.trace, encoding="utf-8") as fh:
        text = fh.read()
    # the trace's sessions, which --sessions must match
    run = parse_trace(text, proto, _setup(proto, args.sessions) if args.sessions else None)
    problems, _ = run_problems(run, _budget(args))
    for p, _ in problems:
        print(p)
    if not problems:
        print(f"run replays: {len(run.steps)} steps check out")
        return EX_OK
    return EX_INCONCLUSIVE if all(budget for _, budget in problems) else EX_NEGATIVE


def cmd_anonymity(args) -> int:
    if args.seeds < 1:
        print(f"error: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return EX_USAGE
    proto = _load_protocol(args.protocol)
    try:
        setup = _setup(proto, args.sessions, args.voters, privacy=True)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    if args.voter_role not in proto.roles:
        print(f"error: no role named {args.voter_role!r}", file=sys.stderr)
        return EX_USAGE
    verdicts: list[str] = []
    for seed in range(args.seeds):
        rep = check_anonymity(proto, setup, seed=seed, tests=args.tests,
                              depth=args.test_depth, budget=_budget(args),
                              voter_role=args.voter_role)
        print(render_report(rep))
        verdicts.append(rep.verdict)
    if all(v == "indistinguishable" for v in verdicts):
        print(f"all {args.seeds} seeds indistinguishable")
        return EX_OK
    if any(v == "distinguished" for v in verdicts):
        return EX_NEGATIVE
    return EX_INCONCLUSIVE


def cmd_examples(args) -> int:
    if args.name:
        if args.name not in SOURCES:
            print(f"error: unknown example {args.name!r}; "
                  f"pick from {', '.join(sorted(SOURCES))}", file=sys.stderr)
            return EX_USAGE
        sys.stdout.write(SOURCES[args.name])
        return EX_OK
    for name in sorted(SOURCES):
        print(name)
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="protassert",
        description="symbolic analysis of protocols that send assertions "
                    "along with their messages",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--depth", type=_count, default=DEFAULT_BUDGET.witness_depth,
                       help="witness instantiation depth (default %(default)s)")
        p.add_argument("--branches", type=_count, default=DEFAULT_BUDGET.branch_cap,
                       help="case split limit (default %(default)s)")

    p = sub.add_parser("derive", help="decide a sequent from a file")
    p.add_argument("file", help="sequent file: terms/assertions/goal sections")
    p.add_argument("--safe", action="store_true",
                   help="only rules that transfer to any larger context")
    p.add_argument("--proof", action="store_true", help="print the proof tree")
    common(p)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("validate", help="check a protocol definition")
    p.add_argument("protocol", help="builtin name or protocol file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="search for a completing run")
    p.add_argument("protocol", help="builtin name or protocol file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sessions", help="session list, e.g. 'voter(id=V0, v=v0); ...'")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("replay", help="re-check every step of a recorded run")
    p.add_argument("protocol", help="builtin name or protocol file")
    p.add_argument("trace", help="trace file produced by simulate")
    p.add_argument("--sessions", help="session list the trace must match")
    common(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("anonymity", help="vote privacy check by run swapping")
    p.add_argument("protocol", help="builtin name or protocol file")
    p.add_argument("--seeds", type=int, default=20,
                   help="number of independent runs (default 20)")
    p.add_argument("--tests", type=_count, default=500,
                   help="random observer tests per run (default 500)")
    p.add_argument("--test-depth", type=_count, default=3,
                   help="random test nesting depth (default 3)")
    p.add_argument("--voter-role", default="voter",
                   help="role that casts the votes (default: %(default)s)")
    p.add_argument("--voters", type=int, default=2,
                   help="voter count of the stated layout (default 2)")
    p.add_argument("--sessions", help="replace the stated session layout")
    common(p)
    p.set_defaults(fn=cmd_anonymity)

    p = sub.add_parser("examples", help="list or print the builtin protocols")
    p.add_argument("name", nargs="?", help="print this protocol's definition")
    p.set_defaults(fn=cmd_examples)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EX_USAGE
    except Exception as e:
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EX_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
