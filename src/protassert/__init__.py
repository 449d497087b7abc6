"""Symbolic analysis for protocols whose messages carry assertions.

The package models an active-network attacker who collects every message
and every certified statement sent with one, closes them under derivation,
and is replayed against a vote-swapped twin run to check anonymity.
"""
from __future__ import annotations

from .anonymity import (
    AnonymityReport,
    SwapSpec,
    build_swapped,
    check_anonymity,
    check_safety,
    derive_swap,
    render_report,
    swap_of,
)
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
    free_vars,
    is_closed,
    normalize,
    substitute,
)
from .builtins import (
    BUILTINS,
    anonymity_foo_setup,
    builtin_foo,
    builtin_foo_linked,
    builtin_helios,
    builtin_setup,
    default_foo_setup,
    default_helios_setup,
)
from .checker import replay_assertion_proof, replay_term_proof
from .dy import DYContext, ProofNode, TermProof, dy_derive
from .engine import (
    DEFAULT_BUDGET,
    DeriveContext,
    SearchBudget,
    Verdict,
    derive,
    derive_safe,
)
from .protocol import Action, Protocol, Role, validate_protocol
from .runtime import (
    Run,
    Setup,
    Step,
    WorldState,
    initial_state,
    parse_trace,
    simulate,
    stated_setup,
    validate_run,
    write_trace,
)
from .syntax import (
    ParseError,
    parse_assertion,
    parse_protocol,
    parse_sequent,
    parse_sessions,
    parse_term,
    print_assertion,
    print_term,
)
from .terms import App, Basic, Enc, Pair, Term, Var, sk, vk

__version__ = "0.1.0"

__all__ = [
    "AnonymityReport", "SwapSpec", "build_swapped", "check_anonymity",
    "check_safety", "derive_swap", "render_report", "swap_of",
    "And", "Assertion", "Eq", "Exists", "Or", "Pred", "Says", "SentA",
    "SentT", "free_vars", "is_closed", "normalize", "substitute",
    "BUILTINS", "Setup", "anonymity_foo_setup", "builtin_foo",
    "builtin_foo_linked", "builtin_helios", "builtin_setup",
    "default_foo_setup", "default_helios_setup",
    "replay_assertion_proof", "replay_term_proof",
    "DYContext", "TermProof", "dy_derive",
    "DEFAULT_BUDGET", "DeriveContext", "ProofNode", "SearchBudget",
    "Verdict", "derive", "derive_safe",
    "Action", "Protocol", "Role", "validate_protocol",
    "Run", "Step", "WorldState", "initial_state", "parse_trace",
    "simulate", "stated_setup", "validate_run", "write_trace",
    "ParseError", "parse_assertion", "parse_protocol", "parse_sequent",
    "parse_sessions", "parse_term", "print_assertion", "print_term",
    "App", "Basic", "Enc", "Pair", "Term", "Var", "sk", "vk",
    "__version__",
]
