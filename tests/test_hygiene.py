"""Source hygiene: every name a module imports from a sibling module is used.

The package re-exports its public names from ``__init__.py``, so that file
is the one module allowed to import names it does not use itself.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protassert"


def _unused_sibling_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_the_scan_flags_an_unused_sibling_import():
    source = "from .terms import Basic, Var\n\nx = Var('x')\n"
    assert _unused_sibling_imports(source) == ["line 1: Basic"]


def test_no_module_imports_a_sibling_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_sibling_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}
