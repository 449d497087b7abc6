"""Source hygiene: every name a module imports from a sibling module is
used, every function or method the package defines is referenced, and the
proof checker imports nothing from the engine it checks.

The package re-exports its public names from ``__init__.py``, so that file
is the one module allowed to import names it does not use itself.
"""
from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "protassert"


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


def _defined_functions(source: str) -> dict[str, int]:
    """Non-dunder functions and methods, by name, with a defining line."""
    tree = ast.parse(source)
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _referenced_names(source: str) -> set[str]:
    """Names read, attributes taken and names imported."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _unreferenced_functions(defining: dict[str, str], referencing: list[str]) -> list[str]:
    used: set[str] = set()
    for source in referencing:
        used |= _referenced_names(source)
    return [f"{label}:{line}: {name}" for label, source in sorted(defining.items())
            for name, line in sorted(_defined_functions(source).items())
            if name not in used]


def test_the_scan_flags_an_unreferenced_function():
    module = "def kept():\n    pass\n\n\nclass C:\n    def dead(self):\n        pass\n\n" \
             "    def __repr__(self):\n        return ''\n"
    caller = "from m import kept\n"
    assert _unreferenced_functions({"m.py": module}, [module, caller]) == ["m.py:6: dead"]


def test_every_function_and_method_is_referenced():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert _unreferenced_functions(package, [*package.values(), *tests]) == []


def _sibling_imports(source: str) -> set[str]:
    """The sibling modules a module imports from, at any depth of its code."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "protassert":
                    continue
                module = module.partition(".")[2]
            out |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] for a in node.names
                    if a.name.startswith("protassert.")}
    return out


def test_the_scan_finds_every_way_to_import_a_sibling():
    source = ("from .dy import TermProof\nfrom . import engine\nimport os\n"
              "def f():\n    import protassert.syntax\n"
              "    from protassert.terms import Var\n    from protassert import runtime\n")
    assert _sibling_imports(source) == {"dy", "engine", "syntax", "terms", "runtime"}


def test_the_checker_imports_nothing_from_the_engine():
    assert "engine" not in _sibling_imports((PACKAGE / "checker.py").read_text())
