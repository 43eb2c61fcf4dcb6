"""Source-level rules for the package code."""

import ast
from pathlib import Path

import normbase

SOURCES = sorted(Path(normbase.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # correctness checks must be raises: python -O strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found
