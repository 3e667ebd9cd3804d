"""Guard: every public definition in ``src/repro`` is used by the program.

A public name (no leading underscore) defined at module level, or as a
method or property of a public class, must be referenced somewhere a
program path runs: elsewhere in ``src/`` (its own module counts, its own
body does not), or in ``examples/``, ``benchmarks/`` or ``perfbench/``.
Dunders and the members of ``_``-private classes are exempt.  Imports
and ``__all__`` entries are re-exports, not uses, and tests do not
count: code that only its own tests reach is deleted together with
those tests, or listed in :data:`ALLOWED` with the reason it stays.
Uses are matched by identifier, not by qualified name, so the guard errs
toward "used".
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CONSUMERS = ("examples", "benchmarks", "perfbench")

#: ``module.name`` or ``module.Class.member`` -> why it stays although no
#: program path uses it.
ALLOWED = {
    "repro.sim.checkers.BlockChecker": (
        "the Protocol every sim checker implements; sim/kernels.py and "
        "sim/roster.py document the checker interface through it"
    ),
}


def _used_names(node: ast.AST) -> set[str]:
    """Identifiers a subtree reads: bare names and attribute names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_members(cls: ast.ClassDef) -> dict[str, list[ast.stmt]]:
    """Public methods and properties of a class, by name (a property's
    getter and setter share one)."""
    members: dict[str, list[ast.stmt]] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not stmt.name.startswith("_"):
                members.setdefault(stmt.name, []).append(stmt)
    return members


def unreferenced_definitions() -> dict[str, str]:
    """``module.name`` or ``module.Class.member`` -> ``path:line`` of every
    public definition that no program code references."""
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    # per module, the names each top-level statement reads
    statement_uses = {
        path: [_used_names(stmt) for stmt in tree.body] for path, tree in modules.items()
    }
    module_uses = {path: set().union(*uses) for path, uses in statement_uses.items()}
    consumer_uses = set()
    for consumer in CONSUMERS:
        for path in (ROOT / consumer).rglob("*.py"):
            consumer_uses |= _used_names(ast.parse(path.read_text()))

    found = {}
    for path, tree in modules.items():
        module = _module_name(path)
        own = statement_uses[path]
        for index, stmt in enumerate(tree.body):

            def used_outside(name: str) -> bool:
                return (
                    name in consumer_uses
                    or any(name in uses for other, uses in module_uses.items() if other != path)
                    or any(name in uses for i, uses in enumerate(own) if i != index)
                )

            for name in _defined_names(stmt):
                if not name.startswith("_") and not used_outside(name):
                    found[f"{module}.{name}"] = f"{path.relative_to(ROOT)}:{stmt.lineno}"
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            parts = stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body
            for name, defs in _public_members(stmt).items():
                used_in_class = any(
                    name in _used_names(part) for part in parts if part not in defs
                )
                if not used_in_class and not used_outside(name):
                    where = f"{path.relative_to(ROOT)}:{defs[0].lineno}"
                    found[f"{module}.{stmt.name}.{name}"] = where
    return found


def test_every_public_definition_is_used_by_the_program():
    unexpected = {
        name: where for name, where in unreferenced_definitions().items() if name not in ALLOWED
    }
    assert not unexpected, "public definitions only tests reach:\n" + "\n".join(
        f"  {where} {name}" for name, where in sorted(unexpected.items(), key=lambda i: i[1])
    )


def test_allowlist_has_no_stale_entries():
    """An allowed name that is gone, or that the program now uses, leaves
    the list."""
    stale = sorted(set(ALLOWED) - set(unreferenced_definitions()))
    assert not stale, f"stale ALLOWED entries: {stale}"
