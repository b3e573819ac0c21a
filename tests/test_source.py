"""Source-level rules for the package."""

import ast
from pathlib import Path

import tbcalc

SOURCES = sorted(Path(tbcalc.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Self-checks must raise InternalInvariantError: python -O strips
    # assert statements.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
