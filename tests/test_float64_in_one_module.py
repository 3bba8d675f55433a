"""Only pgclass/modular.py names float64, so the one exact float64 path,
_matmul_mod and its range guard, stays in one place.

A module names float64 when its code refers to it as a name or an
attribute (np.float64), spells it as a dtype string ("float64", "f8"),
or passes the builtin float as a value, as in astype(float) or
dtype=float.  Docstrings and comments do not count."""

import ast
from pathlib import Path

import pgclass

SRC = Path(pgclass.__file__).resolve().parent
ALLOWED = {"modular.py"}


def _float64_lines(tree):
    """The line numbers of tree's references to float64."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "float64":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and (
                node.id == "float64" or (node.id == "float" and id(node) not in called)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in ("float64", "f8", "<f8"):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_modular_names_float64():
    found = {path.name: _float64_lines(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert found["modular.py"], "modular.py no longer names float64; update this test"
    outside = {name: lines for name, lines in found.items() if lines and name not in ALLOWED}
    assert not outside, f"float64 named outside modular.py: {outside}"


def test_float64_references_are_found():
    tree = ast.parse("import numpy as np\n"
                     "a = np.zeros(2).astype(np.float64)\n"
                     "b = np.zeros(2, dtype='f8')\n"
                     "c = np.zeros(2).astype(float)\n"
                     "d = float(3)\n"
                     "'''float64 in a docstring'''\n")
    assert _float64_lines(tree) == [2, 3, 4]
