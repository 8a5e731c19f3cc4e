"""Checks on the package source as a whole."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hwpoly"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check that exactness
    # depends on must raise; an explicit raise AssertionError(...) stays
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
