"""Source-level rules for the package code."""

import ast
from pathlib import Path

import normbase

SOURCES = sorted(Path(normbase.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # correctness checks must be raises: python -O strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found


def _referenced_names(top: ast.stmt):
    own = top.name if isinstance(top, ast.FunctionDef) else None
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != own:  # a function's calls to itself do not keep it alive
            yield name


def test_every_public_function_is_referenced():
    # a public function that no module or test names, calls or imports is dead code
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES + TESTS]
    used = {name for tree in trees for top in tree.body for name in _referenced_names(top)}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in zip(SOURCES, trees)
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used]
    assert TESTS
    assert not unused
