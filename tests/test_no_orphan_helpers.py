"""Every private top-level helper of pgclass has a caller in pgclass, and
every attribute of a private class is read somewhere.

A helper is a module-level function or class whose name starts with one
underscore.  It counts as used when some pgclass code outside its own
definition names it: a Name, an Attribute (module._helper) or an import.
Docstrings and tests do not count, so a helper kept alive only by a test
or by prose is reported.

An attribute of a private class is a dataclass field, a __slots__ entry
or a self.<name> set in the class's own __init__.  It counts as read when
an attribute of that name is loaded (obj.name) anywhere in pgclass, the
tests or perfbench; an attribute that is only ever stored is reported."""

import ast
from pathlib import Path

import pgclass

SRC = Path(pgclass.__file__).resolve().parent
READERS = (SRC, Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "perfbench")


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _trees(root):
    """(path, parsed module) for every .py file directly under root."""
    for path in sorted(root.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _helpers_and_uses():
    """({(module, helper)}, {name: {owner}}): the private top-level
    functions and classes of every module, and for every name pgclass code
    refers to, the top-level definitions it is referred to from (None at
    module level)."""
    helpers, uses = set(), {}
    for path, tree in _trees(SRC):
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


def _class_attributes(cls):
    """The attributes a class body declares: its annotated fields, its
    __slots__ entries and the self.<name> targets of its own __init__."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
            names.update(ast.literal_eval(stmt.value))
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    names.add(node.attr)
    return names


def _private_class_attributes():
    """{(module, class, attribute)} over the private classes of pgclass."""
    found = set()
    for path, tree in _trees(SRC):
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and _is_private(stmt.name):
                found.update((path.name, stmt.name, a) for a in _class_attributes(stmt))
    return found


def _loaded_attributes():
    """Every attribute name loaded as obj.name in pgclass, tests and perfbench."""
    loaded = set()
    for root in READERS:
        for _, tree in _trees(root):
            loaded.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return loaded


def test_every_private_class_attribute_is_read():
    attrs = _private_class_attributes()
    assert {cls for _, cls, _ in attrs} >= {
        "_Row", "_CentralBlock", "_PairPlan", "_PowerData", "_CenterChain", "_ChainIndex",
        "_Collector"}
    loaded = _loaded_attributes()
    unread = sorted(f"{module}:{cls}.{name}" for module, cls, name in attrs
                    if name not in loaded)
    assert not unread, f"private class attributes that nothing reads: {unread}"
