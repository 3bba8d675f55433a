"""Every private top-level helper of pgclass has a caller in pgclass.

A helper is a module-level function or class whose name starts with one
underscore.  It counts as used when some pgclass code outside its own
definition names it: a Name, an Attribute (module._helper) or an import.
Docstrings and tests do not count, so a helper kept alive only by a test
or by prose is reported."""

import ast
from pathlib import Path

import pgclass

SRC = Path(pgclass.__file__).resolve().parent


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _helpers_and_uses():
    """({(module, helper)}, {name: {owner}}): the private top-level
    functions and classes of every module, and for every name pgclass code
    refers to, the top-level definitions it is referred to from (None at
    module level)."""
    helpers, uses = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if _is_private(stmt.name):
                    helpers.add((path.name, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name.rpartition(".")[2] for alias in node.names]
                else:
                    continue
                for name in names:
                    uses.setdefault(name, set()).add(owner)
    return helpers, uses


def test_every_private_helper_has_a_caller():
    helpers, uses = _helpers_and_uses()
    assert helpers
    orphans = sorted(f"{module}:{name}" for module, name in helpers
                     if not uses.get(name, set()) - {name})
    assert not orphans, f"private helpers with no caller in pgclass: {orphans}"
