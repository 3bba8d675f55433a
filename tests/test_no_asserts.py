"""Exactness guards must survive python -O: these modules hold no assert."""

import ast
from pathlib import Path

import pytest

import pgclass

ASSERT_FREE = tuple(sorted(path.name for path in
                          Path(pgclass.__file__).resolve().parent.glob("*.py")))


@pytest.mark.parametrize("name", ASSERT_FREE)
def test_module_has_no_assert(name):
    path = Path(pgclass.__file__).resolve().parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(node.lineno)
    assert not found, f"{name}: assert or raise AssertionError at lines {found}"
